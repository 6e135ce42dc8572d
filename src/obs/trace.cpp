#include "obs/trace.hpp"

#include <algorithm>

namespace dpgen::obs {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kTileExecute: return "tile_execute";
    case Phase::kUnpack: return "unpack";
    case Phase::kPack: return "pack";
    case Phase::kSend: return "send";
    case Phase::kBlockedSend: return "blocked_send";
    case Phase::kPoll: return "poll";
    case Phase::kIdle: return "idle";
    case Phase::kBarrier: return "barrier";
    case Phase::kLoadBalance: return "load_balance";
    case Phase::kInitScan: return "init_scan";
    case Phase::kGather: return "gather";
    case Phase::kPhaseCount: break;
  }
  return "unknown";
}

bool phase_from_name(const std::string& name, Phase* out) {
  for (int p = 0; p < static_cast<int>(Phase::kPhaseCount); ++p) {
    if (name == phase_name(static_cast<Phase>(p))) {
      *out = static_cast<Phase>(p);
      return true;
    }
  }
  return false;
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

namespace {
/// The calling thread's span identity (set_identity); spans recorded
/// before any set_identity belong to no rank.
thread_local std::int16_t tl_rank = -1;
thread_local std::int16_t tl_thread = 0;
}  // namespace

void Tracer::set_identity(int rank, int thread) {
  tl_rank = static_cast<std::int16_t>(rank);
  tl_thread = static_cast<std::int16_t>(thread);
}

void Tracer::record(Phase phase, std::int64_t start_ns, std::int64_t end_ns,
                    const IntVec* tile) {
  if (!enabled()) return;
  Span s;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.phase = phase;
  s.rank = tl_rank;
  s.thread = tl_thread;
  if (tile) {
    s.ncoord = static_cast<std::uint8_t>(
        std::min<std::size_t>(tile->size(), kMaxSpanDims));
    for (std::size_t k = 0; k < s.ncoord; ++k)
      s.coord[k] = static_cast<std::int32_t>((*tile)[k]);
  }
  append(s);
}

}  // namespace dpgen::obs
