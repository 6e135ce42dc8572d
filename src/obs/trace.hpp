#pragma once
// Runtime tracing: per-thread span buffers with Perfetto-compatible export.
//
// Every phase of a hybrid run — tile execution, edge unpacking/packing,
// sends, blocked sends, polling, idle backoff, barriers, load balancing —
// is recorded as a Span (steady-clock nanoseconds, rank, thread, tile
// coordinates) into a per-thread record ring (obs/record_ring.hpp): the
// owning thread appends without taking a lock; collection happens after
// the writer quiesced (workers joined, barrier passed).  The spans
// of all ranks are merged through minimpi::Comm::gather at the end of
// run_node (see obs/gather.hpp) and exported as Chrome trace-event JSON
// (obs/export.hpp) with one track per rank x thread, loadable in Perfetto
// or chrome://tracing.
//
// Cost model (the instrumentation sits on the runtime's hottest paths):
//   * compile time: building with -DDPGEN_TRACE=0 compiles every record
//     call and ScopedSpan to nothing — the macro path check.sh verifies;
//   * runtime: tracing is off by default; a disabled tracer costs one
//     relaxed atomic load per span site and no clock reads.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/record_ring.hpp"
#include "support/vec.hpp"

namespace dpgen::obs {

/// The span taxonomy (docs/observability.md).  Every phase of the node
/// driver's while-loop, the comm layer and the setup path has one entry.
enum class Phase : std::uint8_t {
  kTileExecute = 0,  ///< the tile's loop nest (one span per executed tile)
  kUnpack,           ///< stored edges -> fresh tile buffer ghost cells
  kPack,             ///< boundary slab -> packed edge payload
  kSend,             ///< routing one remote edge (encode + try_send loop)
  kBlockedSend,      ///< waiting for a full destination mailbox
  kPoll,             ///< draining this rank's mailbox
  kIdle,             ///< no ready tile: poll/backoff stretch
  kBarrier,          ///< minimpi barrier wait
  kLoadBalance,      ///< ownership computation before the run
  kInitScan,         ///< initial-tile face scan
  kGather,           ///< end-of-run trace/metrics gather
  kPhaseCount
};

/// Stable lower-case name for exporters ("tile_execute", "idle", ...).
const char* phase_name(Phase p);

/// Inverse of phase_name (the analyzer re-ingests exported traces).
/// Returns false when `name` matches no phase.
bool phase_from_name(const std::string& name, Phase* out);

/// Tile coordinates beyond this many dimensions are dropped from spans
/// (the span stays; only the trailing coordinates are lost).
inline constexpr int kMaxSpanDims = 6;

namespace profdetail {

/// Sampling-profiler frame hooks (defined in profile.cpp; declared here so
/// ScopedSpan can maintain the per-thread phase stack without trace.hpp
/// depending on the profiler).  While a Profiler run is active every
/// ScopedSpan pushes its phase onto a thread-local stack encoded in one
/// atomic word; the profiler's signal handler reads that word to attribute
/// each sample — no unwinder, no allocation, one relaxed store per span.
extern std::atomic<bool> g_frames_on;
void push_frame(Phase p);
void pop_frame();

inline bool frames_on() {
  return g_frames_on.load(std::memory_order_relaxed);
}

}  // namespace profdetail

/// One recorded interval.  Trivially copyable by design: rank buffers are
/// serialized with memcpy and shipped through minimpi::Comm::gather.
struct Span {
  std::int64_t start_ns = 0;  ///< steady-clock ns since Tracer::epoch
  std::int64_t end_ns = 0;
  std::array<std::int32_t, kMaxSpanDims> coord{};  ///< tile coordinates
  std::int16_t rank = -1;    ///< -1: outside any rank (setup phases)
  std::int16_t thread = 0;   ///< worker id within the rank
  Phase phase = Phase::kTileExecute;
  std::uint8_t ncoord = 0;   ///< how many of `coord` are meaningful
};

static_assert(std::is_trivially_copyable_v<Span>, "Span is wire format");

/// Ring key and sort key of a span (obs/record_ring.hpp).
inline int ring_rank(const Span& s) { return s.rank; }
inline std::int64_t ring_time(const Span& s) { return s.start_ns; }

/// Process-wide tracer.  Ranks in this reproduction are threads of one
/// process, so a single registry holds every rank's rings; the per-rank
/// collect + gather path still mirrors what real MPI ranks would do.
/// collect_rank(-1) returns the spans recorded outside any rank (setup
/// phases).
class Tracer : public RecordRings<Span, 1u << 16> {
 public:
  static Tracer& instance();

  /// Tags the calling thread's future spans.  Called by the node driver
  /// when a rank / worker thread starts.
  static void set_identity(int rank, int thread);

  /// Steady-clock nanoseconds since the tracer's epoch (monotone).
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Records a span for the calling thread (identity + clock applied).
  void record(Phase phase, std::int64_t start_ns, std::int64_t end_ns,
              const IntVec* tile = nullptr);

 private:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span: records [construction, destruction) when tracing is on.
/// With DPGEN_TRACE=0 the whole class compiles to an empty object.
class ScopedSpan {
 public:
#if DPGEN_TRACE
  explicit ScopedSpan(Phase phase, const IntVec* tile = nullptr)
      : phase_(phase), tile_(tile) {
    Tracer& t = Tracer::instance();
    if (t.enabled()) start_ns_ = t.now_ns();
    if (profdetail::frames_on()) {
      profdetail::push_frame(phase);
      pushed_ = true;
    }
  }
  ~ScopedSpan() {
    close();
    // The frame outlives close(): samples taken between an early close()
    // and destruction still belong to this phase.
    if (pushed_) profdetail::pop_frame();
  }

  /// Ends the span early (idempotent).
  void close() {
    if (start_ns_ < 0) return;
    Tracer& t = Tracer::instance();
    t.record(phase_, start_ns_, t.now_ns(), tile_);
    start_ns_ = -1;
  }

 private:
  Phase phase_;
  const IntVec* tile_;
  std::int64_t start_ns_ = -1;
  bool pushed_ = false;
#else
  explicit ScopedSpan(Phase, const IntVec* = nullptr) {}
  void close() {}
#endif

 public:
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
};

}  // namespace dpgen::obs
