#pragma once
// The node driver's instrumentation seam.
//
// run_node's worker loop (driver.hpp) is the paper's Fig. 5 loop and names
// no tracer, profiler, monitor or metrics registry: message lifecycle
// stamps, profiler frames and tile counter windows, monitor heartbeats,
// the runtime.* metrics, the stall watchdog and the spans of the phases
// they time all sit behind the two probes here.  The loop opens plain
// ScopedSpans only for its unpack and pack scopes.
//
//   * RunProbe (one per rank) reads each instrument's on/off state once at
//     run start and owns the cold paths in probe.cpp: monitor snapshots,
//     stall diagnostics and the end-of-run publish.
//   * WorkerProbe (one per worker thread) holds the inline per-tile hooks
//     and the worker's RunCounters.  A rank sums them at the join into
//     RunStats and the runtime.* metrics: one counter set, not two.
//
// No virtual dispatch on the tile path; an instrument that is off costs
// one cached bool (or a span's relaxed load), and -DDPGEN_TRACE=0 compiles
// every span and message hook out.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "minimpi/world.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/msgtrace.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "runtime/tile_table.hpp"

namespace dpgen::runtime {

struct RunOptions;
struct RunStats;

/// One worker's counters for a run; a rank's are the sum over its workers.
struct RunCounters {
  long long tiles_executed = 0;
  long long local_edges = 0;
  long long remote_edges = 0;
  long long polls = 0;
  long long edge_allocs = 0;  ///< buffer-pool misses
  long long pool_hits = 0;
  long long stall_warnings = 0;
  long long idle_ns = 0;
  long long blocked_send_ns = 0;
  std::vector<long long> edge_sent;  ///< remote sends per edge id
  obs::Histogram tile_ns;            ///< runtime.tile_latency_ns
  obs::Histogram payload_scalars;    ///< runtime.edge_payload_scalars

  RunCounters& operator+=(const RunCounters& o);
};

/// The rank-wide atomics workers write per tile, in one cache-line-aligned
/// block: they never share a line with read-mostly state (the worker
/// closure, the owned-tile count, the rank's mutexes), so a run's cost
/// does not move with the driver's stack layout.
struct alignas(64) RankProgress {
  std::atomic<long long> done{0};  ///< owned tiles executed or credited
  /// Bumped by every tile start and every fruitful idle poll.
  std::atomic<long long> progress_marker{0};
  std::atomic<long long> done_cells{0};  ///< cells of started tiles
  /// The marker the last stall_warning was for: one warning per
  /// no-progress stretch.
  std::atomic<long long> stall_warned_marker{-1};
  /// Workers inside a popped tile: "busy in a long kernel" rather than
  /// "dependency-starved" to the straggler detector.
  std::atomic<int> busy_workers{0};
  std::atomic<int> blocked_senders{0};  ///< workers retrying a full mailbox
  std::atomic<bool> worker_failed{false};  ///< stops every worker's loop
};

namespace detail {

/// The last tile each worker completed, read only by the stall-abort
/// message: one seqlock slot per worker (its single writer), so the tile
/// path takes no lock.  Slots are whole cache lines, so workers never
/// share one.  Release/acquire element accesses stand in for fences,
/// which ThreadSanitizer cannot model.  Allocated once per run.
class LastTileSlots {
 public:
  LastTileSlots(int workers, int dim)
      : dim_(static_cast<std::size_t>(dim)),
        lines_per_slot_((dim_ + 2 + kPerLine - 1) / kPerLine),
        lines_(static_cast<std::size_t>(workers) * lines_per_slot_) {}

  /// Records `worker`'s latest completion, stamped `at_ns` (> 0) to order
  /// it among all workers' completions.
  void record(int worker, const IntVec& tile, std::int64_t at_ns) {
    std::atomic<Int>& seq = cell(worker, 0);
    const Int s = seq.load(std::memory_order_relaxed);
    seq.store(s + 1, std::memory_order_relaxed);
    cell(worker, 1).store(at_ns, std::memory_order_release);
    for (std::size_t k = 0; k < dim_; ++k)
      cell(worker, 2 + k).store(tile[k], std::memory_order_release);
    seq.store(s + 2, std::memory_order_release);
  }

  /// "(c0,c1,...)" of the latest completion; "(none)" before the first.
  std::string latest();

 private:
  static constexpr std::size_t kPerLine = 8;
  struct alignas(64) Line {
    std::atomic<Int> v[kPerLine];
  };
  /// Element `e` of a worker's slot: [seq, at_ns, coords...].
  std::atomic<Int>& cell(int worker, std::size_t e) {
    return lines_[static_cast<std::size_t>(worker) * lines_per_slot_ +
                  e / kPerLine]
        .v[e % kPerLine];
  }
  std::size_t dim_;
  std::size_t lines_per_slot_;
  std::vector<Line> lines_;
};

}  // namespace detail

/// One rank's instruments for one run.
class RunProbe {
 public:
  /// `recoverable`: the run has a checkpoint store, so a long stall
  /// declares message loss instead of waiting for the abort.
  /// `table_snapshot` reads the scheduler state (cold paths only).
  RunProbe(const RunOptions& opt, minimpi::Comm& comm, RankProgress& progress,
           int dim, int num_edges, Int owned, bool recoverable,
           std::function<TableSnapshot()> table_snapshot);

  /// After the join: the forced final heartbeat, then the summed counters
  /// (plus the rank's wire pool) go out once as the runtime.* metrics and
  /// into `stats`.
  void finish(long long wire_hits, long long wire_misses, RunStats* stats);

  /// Merges every rank's spans and message records to rank 0
  /// (obs/gather.hpp).  Collective; the enable flags are process-wide.
  void gather();

 private:
  friend class WorkerProbe;

  obs::RankSnapshot snapshot() const;
  /// "ready=R pending=P buffered_edges=B executed=D/O" for diagnostics.
  std::string scheduler_state() const;

  minimpi::Comm& comm_;
  RankProgress& progress_;
  const int rank_;
  const int threads_;
  const Int owned_;
  obs::Monitor* const monitor_;
  const bool tracing_;
  const bool msgtrace_;
  const bool profiling_;
  const double stall_timeout_s_;
  const double recover_stall_s_;  ///< 0 = never declare message loss
  detail::LastTileSlots last_tiles_;
  std::function<TableSnapshot()> table_snapshot_;
  std::mutex mu_;  ///< guards total_ at the join
  RunCounters total_;
};

/// One worker thread's hooks and counters.
class WorkerProbe {
  using Clock = std::chrono::steady_clock;

 public:
  /// Tags the thread's spans and registers it with an active profiler.
  WorkerProbe(RunProbe& run, int worker);

  // ---- idle path ----

  /// Opens an idle stretch unless one is open.  Its span is recorded when
  /// it closes, so its profiler frame is kept by hand.
  void idle_begin() {
    if (idling_) return;
    idling_ = true;
    idle_since_ = Clock::now();
    idle_frame_ =
        obs::kTraceCompiled && obs::profile_frame_push(obs::Phase::kIdle);
  }

  /// Closes an open idle stretch (time, span, frame); false if none was.
  bool idle_end() {
    if (!idling_) return false;
    close_idle();
    return true;
  }

  /// A monitor heartbeat, when the sampler asked this rank for one.
  void publish() {
    if (monitor_ && monitor_->claim(run_.rank_))
      monitor_->publish(run_.rank_, run_.snapshot());
  }

  /// The stall watchdog, once per idle iteration.  With no progress on
  /// the rank it declares message loss after recover_stall_seconds
  /// (recoverable runs), warns once at half the stall timeout and aborts
  /// with a scheduler snapshot at the full timeout.
  void watch_stall();

  // ---- one tile ----

  /// A popped tile starts.  Its cells (`cells()`, asked only when the
  /// monitor or the profiler is on) are credited now, not at completion:
  /// cell counts are heavy-tailed, and a worker grinding through one
  /// expensive tile must not read as stalled between heartbeats.
  template <typename CellsFn>
  void tile_begin(CellsFn&& cells) {
    progress_.busy_workers.fetch_add(1, std::memory_order_relaxed);
    progress_.progress_marker.fetch_add(1, std::memory_order_relaxed);
    cells_ = monitor_ || profiling_ ? cells() : 0;
    if (monitor_)
      progress_.done_cells.fetch_add(cells_, std::memory_order_relaxed);
    unpack_ns_ = 0;
  }

  /// A stored edge was unpacked.  The tile's edges unpack back to back,
  /// so one stamp, taken at the first traced edge, marks the batch.
  void edge_unpacked(obs::MsgRecord& msg) {
    if (!obs::kTraceCompiled || msg.seq < 0) return;
    if (unpack_ns_ == 0) unpack_ns_ = obs::MsgTracer::now_ns();
    msg.unpack_ns = unpack_ns_;
  }

  /// The tile is about to execute, so each remote edge's record is
  /// complete: it goes into the ring with one shared dispatch stamp.
  /// Purely local tiles read no clock.
  template <typename S>
  void dispatch(ReadyTile<S>& ready) {
    if (!msgtrace_) return;
    std::int64_t dispatch_ns = 0;
    const auto nc = static_cast<std::uint8_t>(
        std::min<std::size_t>(ready.tile.size(), obs::kMaxSpanDims));
    for (auto& e : ready.edges) {
      if (e.msg.seq < 0) continue;
      if (dispatch_ns == 0) dispatch_ns = obs::MsgTracer::now_ns();
      e.msg.dispatch_ns = dispatch_ns;
      e.msg.dst_thread = static_cast<std::int16_t>(worker_);
      e.msg.ncoord = nc;
      for (std::uint8_t k = 0; k < nc; ++k)
        e.msg.consumer[k] = static_cast<std::int32_t>(ready.tile[k]);
      obs::MsgTracer::instance().record(e.msg);
    }
  }

  /// Runs the tile's loop nest (`run()`) in its span, timed for the
  /// latency histogram and the profiler's counter window.
  template <typename Fn>
  void execute(const IntVec& tile, Fn&& run) {
    Clock::time_point end;
    {
      obs::ScopedSpan span(obs::Phase::kTileExecute, &tile);
      const bool window = profiling_ && obs::Profiler::tile_begin();
      const auto start = Clock::now();
      run();
      end = Clock::now();
      const std::int64_t ns = nanos(end - start);
      if (profiling_) obs::Profiler::tile_end(window, cells_, ns);
      c_.tile_ns.observe(ns);
    }
    ++c_.tiles_executed;
    run_.last_tiles_.record(worker_, tile, nanos(end.time_since_epoch()));
  }

  /// One packed outgoing edge of `count` scalars, routed to the local
  /// table or through the comm layer.
  void edge_routed(int edge, Int count, bool remote) {
    c_.payload_scalars.observe(count);
    if (!remote) {
      ++c_.local_edges;
      return;
    }
    ++c_.remote_edges;
    ++c_.edge_sent[static_cast<std::size_t>(edge)];
  }

  /// The tile's completion is published (`done`): a heartbeat if one is
  /// due, while this worker still counts as active, then it goes idle.
  void tile_end() {
    publish();
    progress_.busy_workers.fetch_sub(1, std::memory_order_relaxed);
  }

  // ---- messages ----

  /// One drain of the mailbox: its span, and a fresh deliver stamp.
  obs::ScopedSpan poll() {
    ++c_.polls;
    deliver_ns_ = 0;
    return obs::ScopedSpan(obs::Phase::kPoll);
  }

  /// Completes the sender/transport half of a traced message's record in
  /// `rec`; unpack and dispatch are stamped when the consumer tile runs.
  /// A `replayed` edge is screened out rather than delivered, so its
  /// record is kept now: conservation counts the delivery.
  void deliver(const minimpi::Message& msg, int edge, bool replayed,
               obs::MsgRecord* rec) {
    if (!obs::kTraceCompiled || msg.env.seq < 0) return;
    rec->seq = msg.env.seq;
    rec->pack_ns = msg.env.pack_ns;
    rec->send_ns = msg.env.send_ns;
    rec->admit_ns = msg.env.admit_ns;
    // Messages drained together share one deliver stamp; one admitted
    // after it (a sender raced the drain) takes a fresh one, keeping
    // admit <= deliver.
    if (deliver_ns_ < msg.env.admit_ns) deliver_ns_ = obs::MsgTracer::now_ns();
    rec->deliver_ns = deliver_ns_;
    rec->bytes = static_cast<std::int64_t>(msg.payload.size());
    rec->src = static_cast<std::int16_t>(msg.source);
    rec->dst = static_cast<std::int16_t>(run_.rank_);
    rec->src_thread = msg.env.src_thread;
    rec->edge = static_cast<std::int16_t>(edge);
    if (!replayed) return;
    rec->unpack_ns = rec->deliver_ns;
    rec->dispatch_ns = rec->deliver_ns;
    rec->dst_thread = static_cast<std::int16_t>(worker_);
    obs::MsgTracer::instance().record(*rec);
  }

  /// One remote edge: the envelope's pack stamp, and its send span.
  obs::ScopedSpan send(const IntVec& consumer) {
    if (msgtrace_) env_.pack_ns = obs::MsgTracer::now_ns();
    return obs::ScopedSpan(obs::Phase::kSend, &consumer);
  }

  /// The packed edge's envelope for the transport (null when untraced):
  /// one sequence number per message, which retries of a blocked send
  /// reuse.
  const minimpi::MsgEnvelope* envelope(int dst) {
    if (!msgtrace_) return nullptr;
    env_.seq = run_.comm_.next_seq(dst);
    env_.send_ns = obs::MsgTracer::now_ns();
    env_.src_thread = static_cast<std::int16_t>(worker_);
    return &env_;
  }

  /// Runs `retry()`, the loop against a full destination mailbox, in its
  /// span, counted as a blocked sender and timed.
  template <typename Fn>
  void blocked_send(const IntVec& consumer, Fn&& retry) {
    obs::ScopedSpan span(obs::Phase::kBlockedSend, &consumer);
    const auto start = Clock::now();
    progress_.blocked_senders.fetch_add(1, std::memory_order_relaxed);
    retry();
    progress_.blocked_senders.fetch_sub(1, std::memory_order_relaxed);
    c_.blocked_send_ns += nanos(Clock::now() - start);
  }

  /// The worker leaves the loop: closes a tail idle stretch and adds its
  /// counters (plus its payload pool's) to the rank's.
  void finish(long long pool_hits, long long pool_misses);

 private:
  static std::int64_t nanos(Clock::duration d) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  }
  void close_idle();

  RunProbe& run_;
  RankProgress& progress_;
  const int worker_;
  // Instrument state, copied so the tile path reads worker-local memory.
  obs::Monitor* const monitor_;
  const bool msgtrace_;
  const bool profiling_;
  obs::ProfileThreadScope profile_scope_;
  RunCounters c_;
  Int cells_ = 0;                ///< cells of the tile in flight
  std::int64_t unpack_ns_ = 0;   ///< the tile's batch unpack stamp
  std::int64_t deliver_ns_ = 0;  ///< the drain's deliver stamp
  minimpi::MsgEnvelope env_;     ///< the remote edge in flight
  bool idling_ = false;
  bool idle_frame_ = false;  ///< the idle stretch pushed a profiler frame
  Clock::time_point idle_since_;
  long long seen_marker_;  ///< stall watchdog: last progress marker seen
  Clock::time_point seen_time_;
};

}  // namespace dpgen::runtime
