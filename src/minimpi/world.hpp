#pragma once
// minimpi: an in-process message-passing substrate with MPI-like semantics.
//
// The paper's generated programs are hybrid OpenMP + MPI; this container
// has no MPI installation, so minimpi supplies the message-passing layer
// (see DESIGN.md, substitutions): ranks run as std::threads inside one
// process, each with a tagged mailbox.  It offers exactly the calls the
// runtime makes, each with its MPI analogue:
//
//   Comm::try_send     MPI_Isend + MPI_Test on a bounded buffer budget (a
//                      full destination mailbox returns false, so the
//                      worker loop services its own mailbox meanwhile)
//   Comm::send         MPI_Send (blocking; used by gather)
//   Comm::try_recv     MPI_Iprobe + MPI_Recv (receive by polling)
//   Comm::barrier      MPI_Barrier
//   Comm::allreduce_max  MPI_Allreduce(MPI_MAX)
//   Comm::gather       MPI_Gather
//
// The byte-moving substrate itself lives behind the Transport interface
// (transport.hpp): World/Comm implement the MPI-shaped semantics on top
// of whatever Transport they are constructed with — the in-process
// mailboxes by default, or a fault-injecting decorator (faults.hpp) for
// chaos testing.  When the transport fails, every blocked collective and
// send wakes up and throws TransportFailure.
//
// Comm keeps one set of counters (per-peer messages/bytes, blocked sends
// and a message-size histogram); the runtime publishes them to the
// metrics registry once per run (runtime::run_facts).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "minimpi/transport.hpp"
#include "obs/metrics.hpp"

namespace dpgen::minimpi {

class World;

/// A rank's endpoint: everything a node runtime needs to communicate.
/// Thread-safe: multiple worker threads of one rank may use it concurrently
/// (the generated programs poll under a lock; minimpi locks internally).
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Copies `bytes` of `data` into rank `dst`'s mailbox.  Blocks while the
  /// destination mailbox is at capacity (capacity 0 = unbounded).
  void send(int dst, int tag, const void* data, std::size_t bytes);

  /// Non-blocking send: returns false (without sending) when the
  /// destination mailbox is at capacity.  Callers that hold work to do —
  /// like the tile worker loop — use this and service their own mailbox
  /// while waiting, which avoids cyclic send deadlocks under small buffer
  /// budgets.  On success the payload is moved into the mailbox (and left
  /// empty); on failure it is untouched, so a retry loop keeps using the
  /// same buffer.  When `env` is non-null the message carries that
  /// lifecycle envelope (causal message tracing); retries of the same
  /// message must reuse the same envelope so the sequence number is
  /// assigned exactly once.
  bool try_send(int dst, int tag, std::vector<std::uint8_t>& payload,
                const MsgEnvelope* env = nullptr);

  /// Assigns the next data-plane sequence number for the `rank() -> dst`
  /// link.  Call once per traced message, before the send retry loop.
  std::int64_t next_seq(int dst) {
    return static_cast<std::int64_t>(
        peers_[static_cast<std::size_t>(dst)].data_seq.fetch_add(
            1, std::memory_order_relaxed));
  }

  /// Current depth of this rank's own mailbox (backpressure gauge).
  std::size_t mailbox_depth();

  /// Pops the oldest waiting message, if any.
  std::optional<Message> try_recv();

  /// Blocks until every rank has entered the barrier — or the transport
  /// fails, in which case TransportFailure is thrown.
  void barrier();

  /// Max-reduction over all ranks; every rank receives the maximum.
  double allreduce_max(double value);

  /// Gather: root receives size() payloads concatenated in rank order
  /// (each rank contributes `bytes` bytes); non-root out stays untouched.
  void gather(int root, const void* send, std::size_t bytes,
              std::vector<std::uint8_t>* out);

  /// Poisons the transport stack: every rank's next transport operation
  /// (including this rank's) throws TransportFailure.  The driver's
  /// recovery path uses this when a rank concludes messages were lost —
  /// stalled with dependencies that will never arrive — so the engine can
  /// unwind all ranks and restart from the checkpoint.
  void declare_failure(const std::string& reason);

  // ---- statistics (atomic: several worker threads share one Comm) ---------
  /// Per-peer send totals (the communication-matrix source: row = this
  /// rank, column = dst).  Gather traffic counts too.
  std::uint64_t messages_sent_to(int dst) const {
    return peers_[static_cast<std::size_t>(dst)].messages.load(
        std::memory_order_relaxed);
  }
  std::uint64_t bytes_sent_to(int dst) const {
    return peers_[static_cast<std::size_t>(dst)].bytes.load(
        std::memory_order_relaxed);
  }
  /// Row sums of the per-peer counters.
  std::uint64_t messages_sent() const;
  std::uint64_t bytes_sent() const;
  /// Number of sends that found the destination mailbox full.
  std::uint64_t blocked_sends() const {
    return blocked_sends_.load(std::memory_order_relaxed);
  }
  /// Payload size of every message this rank sent.
  const obs::Histogram& message_bytes() const { return message_bytes_; }

 private:
  friend class World;

  struct PeerStats {
    std::atomic<std::uint64_t> messages{0};
    std::atomic<std::uint64_t> bytes{0};
    /// Traced data-plane sequence counter (next_seq); counts only
    /// messages that were assigned an envelope, so it matches the
    /// msgtrace document's per-link `sent` exactly.
    std::atomic<std::uint64_t> data_seq{0};
  };

  /// Send accounting shared by both send paths (atomics only).
  void count_send(int dst, std::size_t bytes);

  Transport& transport();

  World* world_ = nullptr;
  int rank_ = -1;
  std::atomic<std::uint64_t> blocked_sends_{0};
  obs::Histogram message_bytes_;
  std::vector<PeerStats> peers_;  // sized by the World constructor
};

/// A communicator world of `nranks` ranks within this process.
class World {
 public:
  /// mailbox_capacity bounds the per-rank receive queue (0 = unbounded),
  /// modelling the paper's configurable send/receive buffer counts.
  /// When `transport` is null an InProcessTransport is created; passing
  /// one explicitly (e.g. a FaultInjector stack) must agree on nranks.
  explicit World(int nranks, std::size_t mailbox_capacity = 0,
                 std::shared_ptr<Transport> transport = nullptr);

  int size() const { return static_cast<int>(comms_.size()); }
  Comm& comm(int rank) { return *comms_[static_cast<std::size_t>(rank)]; }
  const Comm& comm(int rank) const {
    return *comms_[static_cast<std::size_t>(rank)];
  }

  /// The wire this world runs on.
  Transport& transport() { return *transport_; }

  /// rank x rank send totals, [source][destination] — the communication
  /// matrix the performance report renders (obs/analysis.hpp).
  std::vector<std::vector<std::uint64_t>> bytes_matrix() const;
  std::vector<std::vector<std::uint64_t>> messages_matrix() const;
  /// Traced data-plane sends per link (sequence numbers assigned via
  /// Comm::next_seq) — the msgtrace conservation baseline.
  std::vector<std::vector<std::uint64_t>> sent_matrix() const;

  /// Runs fn(comm) on every rank, each on its own thread, and joins them.
  /// The first exception thrown by any rank is rethrown here.
  void run(const std::function<void(Comm&)>& fn);

 private:
  friend class Comm;

  /// [source][destination] matrix of per_link(comm(source), destination).
  template <typename F>
  std::vector<std::vector<std::uint64_t>> link_matrix(F per_link) const;

  std::shared_ptr<Transport> transport_;
  std::vector<std::unique_ptr<Comm>> comms_;  // Comm holds atomics: pinned

  // Barrier state.
  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_arrived_ = 0;
  std::uint64_t barrier_generation_ = 0;

  // Allreduce state (guarded by barrier_mu_ as well).  All ranks must call
  // matching collectives in the same order, like MPI.
  int reduce_arrived_ = 0;
  std::uint64_t reduce_generation_ = 0;
  double reduce_accum_ = 0.0, reduce_result_ = 0.0;
};

}  // namespace dpgen::minimpi
