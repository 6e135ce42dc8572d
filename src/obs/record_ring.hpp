#pragma once
// Per-thread record rings: the storage behind the span Tracer (Span) and
// the MsgTracer (MsgRecord).
//
// Every recording thread owns one fixed-capacity ring and appends to it
// without a lock; when the ring wraps, the oldest records are overwritten
// and counted as dropped.  Collection happens after the writers quiesced
// (workers joined, barrier passed).  The merged set holds what the
// end-of-run gather (obs/gather.hpp) brought to the root rank.
//
// A record type T supplies two free functions, found by argument-dependent
// lookup: ring_rank(const T&), the rank collect_rank() filters on, and
// ring_time(const T&), the key collections are sorted by.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#ifndef DPGEN_TRACE
#define DPGEN_TRACE 1
#endif

namespace dpgen::obs {

/// True when span and message recording is compiled in (-DDPGEN_TRACE).
inline constexpr bool kTraceCompiled = DPGEN_TRACE != 0;

/// One process-wide instance per record type (a tracer singleton derives
/// from it): the calling thread's ring is cached in a thread_local of the
/// instantiation, not of the object.
template <typename T, std::size_t Capacity>
class RecordRings {
 public:
  /// Records one thread can hold before the oldest are overwritten.
  static constexpr std::size_t kRingCapacity = Capacity;

  /// Runtime switch (cheap: one relaxed load on the disabled path).
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on && kTraceCompiled, std::memory_order_relaxed);
  }

  /// Appends a record for the calling thread when recording is enabled.
  void record(const T& r) {
    if (enabled()) append(r);
  }

  /// Every record whose ring_rank is `rank`, sorted by ring_time.
  /// Writers for that rank must have quiesced (joined / past a barrier).
  std::vector<T> collect_rank(int rank) const { return collect(true, rank); }

  /// Every recorded record regardless of rank, sorted by ring_time.
  std::vector<T> collect_all() const { return collect(false, 0); }

  /// Records merged from all ranks (filled on the gather root).
  std::vector<T> merged() const {
    std::lock_guard<std::mutex> lock(mu_);
    return merged_;
  }
  void add_merged(std::vector<T> records) {
    std::lock_guard<std::mutex> lock(mu_);
    merged_.insert(merged_.end(), records.begin(), records.end());
  }

  /// Records dropped because a thread's ring wrapped.
  std::uint64_t dropped() const {
    std::uint64_t total = 0;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& ring : rings_)
      total += ring->dropped.load(std::memory_order_relaxed);
    return total;
  }

  /// Forgets every recorded and merged record (rings stay registered so
  /// long-lived threads keep a valid slot).  Call between runs.
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& ring : rings_) {
      ring->head.store(0, std::memory_order_release);
      ring->dropped.store(0, std::memory_order_relaxed);
    }
    merged_.clear();
  }

 protected:
  /// Unconditional append to the calling thread's ring.
  void append(const T& r) {
    Ring& ring = local();
    const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
    ring.slots[head % Capacity] = r;
    if (head >= Capacity) ring.dropped.fetch_add(1, std::memory_order_relaxed);
    // Publish after the slot write so collectors never read a torn record.
    ring.head.store(head + 1, std::memory_order_release);
  }

 private:
  struct Ring {
    std::vector<T> slots = std::vector<T>(Capacity);
    std::atomic<std::uint64_t> head{0};  ///< total records ever written
    std::atomic<std::uint64_t> dropped{0};
  };

  Ring& local() {
    thread_local Ring* tl_ring = nullptr;
    if (tl_ring) return *tl_ring;
    auto ring = std::make_unique<Ring>();
    std::lock_guard<std::mutex> lock(mu_);
    rings_.push_back(std::move(ring));  // addresses stay pinned
    tl_ring = rings_.back().get();
    return *tl_ring;
  }

  std::vector<T> collect(bool filter, int rank) const {
    std::vector<T> out;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& ring : rings_) {
        const std::uint64_t head = ring->head.load(std::memory_order_acquire);
        const std::uint64_t n = std::min<std::uint64_t>(head, Capacity);
        for (std::uint64_t i = head - n; i < head; ++i) {
          const T& r = ring->slots[i % Capacity];
          if (!filter || ring_rank(r) == rank) out.push_back(r);
        }
      }
    }
    std::sort(out.begin(), out.end(), [](const T& a, const T& b) {
      return ring_time(a) < ring_time(b);
    });
    return out;
  }

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards rings_ growth and merged_
  std::vector<std::unique_ptr<Ring>> rings_;
  std::vector<T> merged_;
};

}  // namespace dpgen::obs
