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

Tracer::ThreadBuffer& Tracer::local_buffer() {
  thread_local ThreadBuffer* tl_buffer = nullptr;
  if (tl_buffer) return *tl_buffer;
  auto buf = std::make_unique<ThreadBuffer>();
  buf->ring.resize(kRingCapacity);
  ThreadBuffer* raw = buf.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(buf));  // addresses stay pinned
  }
  tl_buffer = raw;
  return *raw;
}

void Tracer::set_identity(int rank, int thread) {
  ThreadBuffer& buf = instance().local_buffer();
  buf.rank.store(rank, std::memory_order_relaxed);
  buf.thread.store(thread, std::memory_order_relaxed);
}

void Tracer::record(Phase phase, std::int64_t start_ns, std::int64_t end_ns,
                    const IntVec* tile) {
  if (!enabled()) return;
  ThreadBuffer& buf = local_buffer();
  Span s;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.phase = phase;
  s.rank = static_cast<std::int16_t>(buf.rank.load(std::memory_order_relaxed));
  s.thread =
      static_cast<std::int16_t>(buf.thread.load(std::memory_order_relaxed));
  if (tile) {
    s.ncoord = static_cast<std::uint8_t>(
        std::min<std::size_t>(tile->size(), kMaxSpanDims));
    for (std::size_t k = 0; k < s.ncoord; ++k)
      s.coord[k] = static_cast<std::int32_t>((*tile)[k]);
  }
  const std::uint64_t head = buf.head.load(std::memory_order_relaxed);
  buf.ring[head % kRingCapacity] = s;
  if (head >= kRingCapacity)
    buf.dropped.fetch_add(1, std::memory_order_relaxed);
  // Publish after the slot write so collectors never read a torn span.
  buf.head.store(head + 1, std::memory_order_release);
}

void Tracer::collect_into(const ThreadBuffer& buf, bool filter, int want_rank,
                          std::vector<Span>* out) const {
  const std::uint64_t head = buf.head.load(std::memory_order_acquire);
  const std::uint64_t n = std::min<std::uint64_t>(head, kRingCapacity);
  const std::uint64_t first = head - n;
  for (std::uint64_t i = first; i < head; ++i) {
    const Span& s = buf.ring[i % kRingCapacity];
    if (!filter || s.rank == want_rank) out->push_back(s);
  }
}

namespace {
bool span_starts_earlier(const Span& a, const Span& b) {
  return a.start_ns < b.start_ns;
}
}  // namespace

std::vector<Span> Tracer::collect_rank(int rank) const {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_)
    collect_into(*buf, /*filter=*/true, rank, &out);
  std::sort(out.begin(), out.end(), span_starts_earlier);
  return out;
}

std::vector<Span> Tracer::collect_all() const {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_)
    collect_into(*buf, /*filter=*/false, 0, &out);
  std::sort(out.begin(), out.end(), span_starts_earlier);
  return out;
}

std::vector<Span> Tracer::merged() const {
  std::lock_guard<std::mutex> lock(mu_);
  return merged_;
}

void Tracer::add_merged(std::vector<Span> spans) {
  std::lock_guard<std::mutex> lock(mu_);
  merged_.insert(merged_.end(), spans.begin(), spans.end());
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t total = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_)
    total += buf->dropped.load(std::memory_order_relaxed);
  return total;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buf : buffers_) {
    buf->head.store(0, std::memory_order_release);
    buf->dropped.store(0, std::memory_order_relaxed);
  }
  merged_.clear();
}

}  // namespace dpgen::obs
