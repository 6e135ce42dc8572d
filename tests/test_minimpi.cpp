// Unit tests for the minimpi message-passing substrate: point-to-point
// semantics, bounded mailboxes, collectives, send counters and error
// propagation.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

#include "minimpi/world.hpp"

namespace dpgen::minimpi {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<int> vals) {
  std::vector<std::uint8_t> out;
  for (int v : vals) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

/// Receive by polling, the way the runtime does.
Message recv(Comm& comm) {
  for (;;) {
    if (auto m = comm.try_recv()) return std::move(*m);
    std::this_thread::yield();
  }
}

TEST(MiniMpi, PointToPointDelivery) {
  World world(2);
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      auto payload = bytes({1, 2, 3});
      comm.send(1, 7, payload.data(), payload.size());
    } else {
      Message m = recv(comm);
      EXPECT_EQ(m.source, 0);
      EXPECT_EQ(m.tag, 7);
      EXPECT_EQ(m.payload, bytes({1, 2, 3}));
    }
  });
}

TEST(MiniMpi, FifoPerSender) {
  World world(2);
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 50; ++i) {
        std::uint8_t b = static_cast<std::uint8_t>(i);
        comm.send(1, i, &b, 1);
      }
    } else {
      for (int i = 0; i < 50; ++i) {
        Message m = recv(comm);
        EXPECT_EQ(m.tag, i);
        EXPECT_EQ(m.payload[0], static_cast<std::uint8_t>(i));
      }
    }
  });
}

TEST(MiniMpi, TryRecvSelfSend) {
  World world(1);
  Comm& comm = world.comm(0);
  EXPECT_EQ(comm.mailbox_depth(), 0u);
  EXPECT_FALSE(comm.try_recv().has_value());
  std::uint8_t b = 42;
  comm.send(0, 5, &b, 1);  // self-send
  EXPECT_EQ(comm.mailbox_depth(), 1u);
  auto m = comm.try_recv();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->source, 0);
  EXPECT_EQ(m->tag, 5);
  EXPECT_EQ(m->payload[0], 42);
  EXPECT_EQ(comm.mailbox_depth(), 0u);
}

TEST(MiniMpi, EmptyPayloadAllowed) {
  World world(1);
  Comm& comm = world.comm(0);
  comm.send(0, 1, nullptr, 0);
  auto m = comm.try_recv();
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(m->payload.empty());
}

TEST(MiniMpi, TrySendRespectsCapacity) {
  World world(2, /*mailbox_capacity=*/2);
  Comm& comm = world.comm(0);
  std::vector<std::uint8_t> b;
  b = {0};
  EXPECT_TRUE(comm.try_send(1, 0, b));
  EXPECT_TRUE(b.empty());  // moved into the mailbox
  b = {0};
  EXPECT_TRUE(comm.try_send(1, 0, b));
  b = {7};
  EXPECT_FALSE(comm.try_send(1, 0, b));  // full
  EXPECT_EQ(b, bytes({7}));  // left intact for the retry
  EXPECT_EQ(comm.blocked_sends(), 1u);
  ASSERT_TRUE(world.comm(1).try_recv().has_value());
  EXPECT_TRUE(comm.try_send(1, 0, b));  // space again
}

TEST(MiniMpi, BlockingSendWaitsForSpace) {
  World world(2, /*mailbox_capacity=*/1);
  std::atomic<bool> second_send_done{false};
  std::thread sender([&] {
    Comm& c = world.comm(0);
    std::uint8_t b = 1;
    c.send(1, 0, &b, 1);
    b = 2;
    c.send(1, 0, &b, 1);  // must block until the receiver drains
    second_send_done = true;
  });
  // Give the sender time to block on the second send.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_send_done.load());
  auto m1 = recv(world.comm(1));
  EXPECT_EQ(m1.payload[0], 1);
  auto m2 = recv(world.comm(1));
  EXPECT_EQ(m2.payload[0], 2);
  sender.join();
  EXPECT_TRUE(second_send_done.load());
}

TEST(MiniMpi, SendToInvalidRankThrows) {
  World world(2);
  std::uint8_t b = 0;
  EXPECT_THROW(world.comm(0).send(5, 0, &b, 1), Error);
  std::vector<std::uint8_t> payload{0};
  EXPECT_THROW(world.comm(0).try_send(-1, 0, payload), Error);
}

TEST(MiniMpi, BarrierSynchronizesRanks) {
  const int kRanks = 4;
  World world(kRanks);
  std::atomic<int> before{0}, after{0};
  world.run([&](Comm& comm) {
    ++before;
    comm.barrier();
    // After the barrier every rank must have incremented `before`.
    EXPECT_EQ(before.load(), kRanks);
    ++after;
    comm.barrier();
    EXPECT_EQ(after.load(), kRanks);
  });
}

TEST(MiniMpi, RepeatedBarriers) {
  World world(3);
  world.run([&](Comm& comm) {
    for (int i = 0; i < 100; ++i) comm.barrier();
  });
}

TEST(MiniMpi, AllreduceMax) {
  World world(3);
  world.run([&](Comm& comm) {
    double mx = comm.allreduce_max(static_cast<double>(comm.rank()));
    EXPECT_DOUBLE_EQ(mx, 2.0);
    // The maximum may sit on any rank, including a negative one.
    mx = comm.allreduce_max(comm.rank() == 1 ? -0.5 : -4.0);
    EXPECT_DOUBLE_EQ(mx, -0.5);
  });
}

TEST(MiniMpi, ConsecutiveAllreducesKeepResultsSeparate) {
  World world(2);
  world.run([&](Comm& comm) {
    for (int i = 0; i < 50; ++i) {
      const double mine = comm.rank() == i % 2 ? i : -i;
      EXPECT_DOUBLE_EQ(comm.allreduce_max(mine), i);
    }
  });
}

TEST(MiniMpi, StatsCountMessagesAndBytes) {
  World world(2);
  Comm& c = world.comm(0);
  std::vector<std::uint8_t> payload(10, 0);
  c.send(1, 0, payload.data(), payload.size());
  c.send(1, 0, payload.data(), 4);
  EXPECT_EQ(c.messages_sent(), 2u);
  EXPECT_EQ(c.bytes_sent(), 14u);
}

TEST(MiniMpi, PerPeerStatsSumToTotals) {
  World world(3);
  Comm& c = world.comm(0);
  std::vector<std::uint8_t> payload(10, 0);
  c.send(1, 0, payload.data(), payload.size());
  c.send(1, 0, payload.data(), 4);
  c.send(2, 0, payload.data(), 7);
  EXPECT_EQ(c.messages_sent_to(1), 2u);
  EXPECT_EQ(c.bytes_sent_to(1), 14u);
  EXPECT_EQ(c.messages_sent_to(2), 1u);
  EXPECT_EQ(c.bytes_sent_to(2), 7u);
  EXPECT_EQ(c.messages_sent_to(0), 0u);
  // Row sums reproduce the per-comm totals.
  std::uint64_t messages = 0, bytes = 0;
  for (int r = 0; r < 3; ++r) {
    messages += c.messages_sent_to(r);
    bytes += c.bytes_sent_to(r);
  }
  EXPECT_EQ(messages, c.messages_sent());
  EXPECT_EQ(bytes, c.bytes_sent());
}

TEST(MiniMpi, CommMatricesMatchPerPeerCounters) {
  World world(3);
  std::vector<std::uint8_t> payload(8, 0);
  world.comm(0).send(1, 0, payload.data(), 8);
  world.comm(0).send(2, 0, payload.data(), 3);
  world.comm(1).send(2, 0, payload.data(), 5);
  world.comm(2).send(0, 0, payload.data(), 1);
  // Drain so the world can be torn down cleanly.
  for (int r = 0; r < 3; ++r)
    while (world.comm(r).try_recv()) {}

  auto bytes = world.bytes_matrix();
  auto messages = world.messages_matrix();
  ASSERT_EQ(bytes.size(), 3u);
  ASSERT_EQ(messages.size(), 3u);
  EXPECT_EQ(bytes[0][1], 8u);
  EXPECT_EQ(bytes[0][2], 3u);
  EXPECT_EQ(bytes[1][2], 5u);
  EXPECT_EQ(bytes[2][0], 1u);
  EXPECT_EQ(messages[0][1], 1u);
  EXPECT_EQ(messages[1][0], 0u);
  for (int src = 0; src < 3; ++src) {
    std::uint64_t row_bytes = 0, row_messages = 0;
    for (int dst = 0; dst < 3; ++dst) {
      row_bytes += bytes[static_cast<std::size_t>(src)]
                        [static_cast<std::size_t>(dst)];
      row_messages += messages[static_cast<std::size_t>(src)]
                              [static_cast<std::size_t>(dst)];
    }
    EXPECT_EQ(row_bytes, world.comm(src).bytes_sent()) << "rank " << src;
    EXPECT_EQ(row_messages, world.comm(src).messages_sent())
        << "rank " << src;
  }
}

TEST(MiniMpi, CollectivesCountInPerPeerStats) {
  // Gather routes through send(), so the comm matrix accounts for its
  // traffic too and row sums keep matching messages_sent().
  World world(3);
  world.run([&](Comm& comm) {
    std::uint8_t b = static_cast<std::uint8_t>(comm.rank());
    std::vector<std::uint8_t> all;
    comm.gather(0, &b, 1, comm.rank() == 0 ? &all : nullptr);
    comm.gather(2, &b, 1, comm.rank() == 2 ? &all : nullptr);
  });
  auto messages = world.messages_matrix();
  // Both non-roots sent to each root.
  EXPECT_EQ(messages[0][2], 1u);
  EXPECT_EQ(messages[1][0], 1u);
  EXPECT_EQ(messages[1][2], 1u);
  EXPECT_EQ(messages[2][0], 1u);
  EXPECT_EQ(world.comm(1).message_bytes().count(), 2);
  EXPECT_EQ(world.comm(1).message_bytes().sum(), 2);
  for (int src = 0; src < 3; ++src) {
    std::uint64_t row = 0;
    for (int dst = 0; dst < 3; ++dst)
      row += messages[static_cast<std::size_t>(src)]
                     [static_cast<std::size_t>(dst)];
    EXPECT_EQ(row, world.comm(src).messages_sent()) << "rank " << src;
  }
}

TEST(MiniMpi, RunPropagatesExceptions) {
  World world(2);
  EXPECT_THROW(world.run([&](Comm& comm) {
    comm.barrier();
    if (comm.rank() == 1) raise("boom on rank 1");
  }),
               Error);
}

TEST(MiniMpi, ManyToOneStress) {
  const int kRanks = 5, kPerRank = 200;
  World world(kRanks);
  std::atomic<long long> sum{0};
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < (kRanks - 1) * kPerRank; ++i) {
        Message m = recv(comm);
        sum += m.payload[0];
      }
    } else {
      for (int i = 0; i < kPerRank; ++i) {
        std::uint8_t b = static_cast<std::uint8_t>(comm.rank());
        comm.send(0, i, &b, 1);
      }
    }
  });
  EXPECT_EQ(sum.load(), kPerRank * (1 + 2 + 3 + 4));
}

TEST(MiniMpi, WorldNeedsAtLeastOneRank) {
  EXPECT_THROW(World(0), Error);
}

TEST(MiniMpiCollectives, GatherConcatenatesInRankOrder) {
  World world(3);
  world.run([&](Comm& comm) {
    std::uint8_t mine[2] = {static_cast<std::uint8_t>(comm.rank()),
                            static_cast<std::uint8_t>(comm.rank() * 10)};
    std::vector<std::uint8_t> all;
    comm.gather(1, mine, sizeof mine, comm.rank() == 1 ? &all : nullptr);
    if (comm.rank() == 1) {
      ASSERT_EQ(all.size(), 6u);
      EXPECT_EQ(all, (std::vector<std::uint8_t>{0, 0, 1, 10, 2, 20}));
    }
  });
}

TEST(MiniMpiCollectives, InvalidRootRejected) {
  World world(2);
  long long v = 0;
  EXPECT_THROW(world.comm(0).gather(5, &v, sizeof v, nullptr), Error);
  EXPECT_THROW(world.comm(0).gather(-1, &v, sizeof v, nullptr), Error);
}

TEST(MiniMpi, MultipleWorkerThreadsShareOneComm) {
  // The runtime's usage pattern: several worker threads of one rank send
  // and poll concurrently through the same Comm.
  static constexpr int kWorkers = 4, kPerWorker = 100;
  World world(2);
  std::atomic<int> received{0};
  world.run([&](Comm& comm) {
    std::vector<std::thread> workers;
    if (comm.rank() == 0) {
      for (int w = 0; w < kWorkers; ++w) {
        workers.emplace_back([&comm, w] {
          for (int i = 0; i < kPerWorker; ++i) {
            std::uint8_t b = static_cast<std::uint8_t>(w);
            comm.send(1, w * 1000 + i, &b, 1);
          }
        });
      }
    } else {
      for (int w = 0; w < kWorkers; ++w) {
        workers.emplace_back([&comm, &received] {
          while (received.load() < kWorkers * kPerWorker) {
            if (comm.try_recv())
              ++received;
            else
              std::this_thread::yield();
          }
        });
      }
    }
    for (auto& t : workers) t.join();
    comm.barrier();
  });
  EXPECT_EQ(received.load(), kWorkers * kPerWorker);
  EXPECT_EQ(world.comm(0).messages_sent(),
            static_cast<std::uint64_t>(kWorkers * kPerWorker));
}

TEST(MiniMpi, BoundedMailboxUnderConcurrentLoad) {
  // Bounded buffers with concurrent senders and a draining receiver:
  // everything must arrive, and blocked sends must be recorded.
  World world(2, /*mailbox_capacity=*/2);
  std::atomic<long long> sum{0};
  const int kMessages = 300;
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<std::thread> senders;
      for (int w = 0; w < 3; ++w) {
        senders.emplace_back([&comm] {
          for (int i = 0; i < kMessages / 3; ++i) {
            std::uint8_t b = 1;
            comm.send(1, 0, &b, 1);
          }
        });
      }
      for (auto& t : senders) t.join();
    } else {
      for (int i = 0; i < kMessages; ++i) sum += recv(comm).payload[0];
    }
  });
  EXPECT_EQ(sum.load(), kMessages);
}

}  // namespace
}  // namespace dpgen::minimpi
