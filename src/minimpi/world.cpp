#include "minimpi/world.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace dpgen::minimpi {

World::World(int nranks, std::size_t mailbox_capacity,
             std::shared_ptr<Transport> transport)
    : transport_(std::move(transport)) {
  DPGEN_CHECK(nranks >= 1, "world needs at least one rank");
  if (!transport_)
    transport_ =
        std::make_shared<InProcessTransport>(nranks, mailbox_capacity);
  DPGEN_CHECK(transport_->nranks() == nranks,
              cat("world of ", nranks, " ranks over a transport of ",
                  transport_->nranks()));
  // When the transport is poisoned, ranks parked in a collective must wake
  // up and throw too — the wait predicates re-check transport_->failed().
  transport_->add_failure_listener([this] {
    std::lock_guard<std::mutex> lock(barrier_mu_);
    barrier_cv_.notify_all();
  });
  for (int r = 0; r < nranks; ++r) {
    comms_.push_back(std::unique_ptr<Comm>(new Comm()));
    comms_.back()->world_ = this;
    comms_.back()->rank_ = r;
    comms_.back()->peers_ =
        std::vector<Comm::PeerStats>(static_cast<std::size_t>(nranks));
  }
}

template <typename F>
std::vector<std::vector<std::uint64_t>> World::link_matrix(F per_link) const {
  std::vector<std::vector<std::uint64_t>> m(comms_.size());
  for (std::size_t src = 0; src < comms_.size(); ++src)
    for (std::size_t dst = 0; dst < comms_.size(); ++dst)
      m[src].push_back(per_link(*comms_[src], dst));
  return m;
}

std::vector<std::vector<std::uint64_t>> World::bytes_matrix() const {
  return link_matrix([](const Comm& c, std::size_t dst) {
    return c.peers_[dst].bytes.load(std::memory_order_relaxed);
  });
}

std::vector<std::vector<std::uint64_t>> World::messages_matrix() const {
  return link_matrix([](const Comm& c, std::size_t dst) {
    return c.peers_[dst].messages.load(std::memory_order_relaxed);
  });
}

std::vector<std::vector<std::uint64_t>> World::sent_matrix() const {
  return link_matrix([](const Comm& c, std::size_t dst) {
    return c.peers_[dst].data_seq.load(std::memory_order_relaxed);
  });
}

int Comm::size() const { return world_->size(); }

Transport& Comm::transport() { return *world_->transport_; }

std::uint64_t Comm::messages_sent() const {
  std::uint64_t n = 0;
  for (const PeerStats& p : peers_)
    n += p.messages.load(std::memory_order_relaxed);
  return n;
}

std::uint64_t Comm::bytes_sent() const {
  std::uint64_t n = 0;
  for (const PeerStats& p : peers_) n += p.bytes.load(std::memory_order_relaxed);
  return n;
}

void Comm::count_send(int dst, std::size_t bytes) {
  auto& peer = peers_[static_cast<std::size_t>(dst)];
  peer.messages.fetch_add(1, std::memory_order_relaxed);
  peer.bytes.fetch_add(bytes, std::memory_order_relaxed);
  message_bytes_.observe(static_cast<std::int64_t>(bytes));
}

void Comm::send(int dst, int tag, const void* data, std::size_t bytes) {
  DPGEN_CHECK(dst >= 0 && dst < size(), cat("send to invalid rank ", dst));
  Message m;
  m.source = rank_;
  m.tag = tag;
  const auto* p = static_cast<const std::uint8_t*>(data);
  m.payload.assign(p, p + bytes);
  Transport& t = transport();
  if (t.try_post(rank_, dst, m) == PostResult::kFull) {
    blocked_sends_.fetch_add(1, std::memory_order_relaxed);
    obs::ScopedSpan span(obs::Phase::kBlockedSend);
    do {
      t.wait_capacity(rank_, dst);
    } while (t.try_post(rank_, dst, m) == PostResult::kFull);
  }
  count_send(dst, bytes);
}

bool Comm::try_send(int dst, int tag, std::vector<std::uint8_t>& payload,
                    const MsgEnvelope* env) {
  DPGEN_CHECK(dst >= 0 && dst < size(), cat("send to invalid rank ", dst));
  Transport& t = transport();
  const std::size_t bytes = payload.size();
  Message m;
  m.source = rank_;
  m.tag = tag;
  if (env) m.env = *env;
  m.payload = std::move(payload);
  if (t.try_post(rank_, dst, m) == PostResult::kFull) {
    payload = std::move(m.payload);  // untouched for the caller's retry
    blocked_sends_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  count_send(dst, bytes);
  return true;
}

std::optional<Message> Comm::try_recv() { return transport().collect(rank_); }

std::size_t Comm::mailbox_depth() { return transport().depth(rank_); }

void Comm::declare_failure(const std::string& reason) {
  transport().fail(cat("rank ", rank_, ": ", reason));
}

void Comm::barrier() {
  obs::ScopedSpan span(obs::Phase::kBarrier);
  Transport& t = transport();
  t.check_alive();
  std::unique_lock<std::mutex> lock(world_->barrier_mu_);
  std::uint64_t gen = world_->barrier_generation_;
  if (++world_->barrier_arrived_ == size()) {
    world_->barrier_arrived_ = 0;
    ++world_->barrier_generation_;
    world_->barrier_cv_.notify_all();
    return;
  }
  world_->barrier_cv_.wait(lock, [&] {
    return world_->barrier_generation_ != gen || t.failed();
  });
  if (world_->barrier_generation_ == gen) {
    --world_->barrier_arrived_;  // barrier abandoned; keep state consistent
    t.check_alive();
  }
}

double Comm::allreduce_max(double value) {
  World& w = *world_;
  Transport& t = transport();
  t.check_alive();
  std::unique_lock<std::mutex> lock(w.barrier_mu_);
  const std::uint64_t gen = w.reduce_generation_;
  if (w.reduce_arrived_ == 0 || w.reduce_accum_ < value)
    w.reduce_accum_ = value;
  if (++w.reduce_arrived_ == size()) {
    w.reduce_arrived_ = 0;
    w.reduce_result_ = w.reduce_accum_;
    ++w.reduce_generation_;
    w.barrier_cv_.notify_all();
    return w.reduce_result_;
  }
  // Failure-aware: a poisoned transport wakes the waiters (via the
  // listener registered in the constructor) and they throw instead of
  // waiting forever for ranks that will never arrive.
  w.barrier_cv_.wait(lock, [&] {
    return w.reduce_generation_ != gen || t.failed();
  });
  if (w.reduce_generation_ == gen) {
    --w.reduce_arrived_;  // round abandoned; leave state consistent
    t.check_alive();
  }
  return w.reduce_result_;
}

namespace {
/// Tag reserved for gather; user tags are nonnegative ints so it cannot
/// collide.
constexpr int kGatherTag = -102;
}  // namespace

void Comm::gather(int root, const void* send_buf, std::size_t bytes,
                  std::vector<std::uint8_t>* out) {
  DPGEN_CHECK(root >= 0 && root < size(), "gather: invalid root");
  if (rank_ == root) {
    DPGEN_CHECK(out != nullptr, "gather: root needs an output buffer");
    out->assign(static_cast<std::size_t>(size()) * bytes, 0);
    const auto* self = static_cast<const std::uint8_t*>(send_buf);
    std::copy(self, self + bytes,
              out->begin() +
                  static_cast<std::ptrdiff_t>(
                      static_cast<std::size_t>(rank_) * bytes));
    for (int received = 0; received < size() - 1;) {
      if (auto m = transport().collect_match(rank_, -1, kGatherTag)) {
        DPGEN_CHECK(m->payload.size() == bytes,
                    "gather: payload size mismatch");
        std::copy(m->payload.begin(), m->payload.end(),
                  out->begin() + static_cast<std::ptrdiff_t>(
                                     static_cast<std::size_t>(m->source) *
                                     bytes));
        ++received;
      } else {
        std::this_thread::yield();
      }
    }
  } else {
    send(root, kGatherTag, send_buf, bytes);
  }
  barrier();
}

void World::run(const std::function<void(Comm&)>& fn) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(comms_.size());
  for (std::size_t r = 0; r < comms_.size(); ++r) {
    threads.emplace_back([&, r] {
      try {
        fn(*comms_[r]);
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  // When one rank hits a genuine error it poisons the transport, so its
  // peers all unwind with secondary TransportFailures.  Rethrow the root
  // cause, not whichever secondary happens to sit at a lower rank —
  // otherwise a fault-tolerant caller would "recover" from a plain bug.
  std::exception_ptr transport_error;
  for (auto& e : errors) {
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const TransportFailure&) {
      if (!transport_error) transport_error = e;
    } catch (...) {
      std::rethrow_exception(e);
    }
  }
  if (transport_error) std::rethrow_exception(transport_error);
}

}  // namespace dpgen::minimpi
