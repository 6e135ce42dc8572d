#pragma once
// Pending-tile table and eligible-tile priority queue (paper section V.B).
//
// The two main data structures of a generated program:
//   * the pending table holds every tile known to this node that still has
//     unsatisfied dependencies, together with the packed edge data received
//     for it so far — only edge data, never whole tiles, which is what
//     keeps live memory O(n^(d-1)) instead of Theta(n^d);
//   * the ready queue holds tiles whose dependencies are all satisfied,
//     ordered by the TileOrder priority (Fig. 5).
//
// One table serves all of a rank's worker threads (the paper's shared
// OpenMP structures), and it is laid out so that a tile costs one lock on
// the shared heap:
//   * pending tiles live in hash stripes, each an open-addressing
//     linear-probe map under its own lock; a rank with T > 1 threads has
//     the next power of two >= 4T stripes, a one-thread rank exactly one;
//   * the delivery that completes a tile hands it to the delivering
//     worker's Worker list instead of a queue;
//   * one binary heap (std::push_heap/pop_heap with the TileOrder
//     comparator) holds the ready tiles under one lock; a worker's pop
//     pushes the tiles its own deliveries completed and pops the earliest
//     tile in a single critical section, so the rank-wide priority order
//     stays exact;
//   * spare containers are worker-local, and the rank-level counters are
//     folded in from worker-local deltas inside that same critical
//     section, so no shared counter is touched per edge;
//   * an idle worker reads the heap's size (an atomic stored under the
//     lock) instead of taking the lock, so it does not queue behind the
//     workers that have tiles to push.
// Tombstoned slots and recycled tiles keep their vectors' heap storage, so
// a busy table stops allocating once it reaches steady state.
//
// Contention on this table *is* a bottleneck on small tiles.  The earlier
// layout took one shard mutex three to four times per tile (pop, one
// deliver per outgoing edge, recycle) plus a shared atomic per ready push
// and pop.  On lcs_fine (141,376 16x16 tiles, about 3 us each at one
// thread, most of it scheduling) one rank with 4 threads then ran 0.77 s
// wall / 2.1 s CPU, against 0.41 s with 1 thread and 0.19 s as 4
// one-thread ranks (4-vCPU VM); this layout runs the 1x4 shape in about
// 0.22 s / 0.74 s CPU.  Per-worker heaps with stealing were faster still
// on a prototype, but they weaken the global priority order, and
// bandit2's peak RSS grew from 37 to 55 MB — the §V.B memory bound this
// order exists for.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_set>
#include <utility>

#include "obs/msgtrace.hpp"
#include "runtime/order.hpp"
#include "support/error.hpp"

namespace dpgen::runtime {

/// One packed tile edge: which edge (tile-dependency offset index) plus the
/// packed scalars in canonical pack order.  `msg` is the in-flight message
/// lifecycle record for a remote edge (msg.seq < 0 for local edges and
/// untraced runs); the driver completes it at dispatch time.  Checkpoint
/// serialization ignores it — losing stamps across a restart only costs
/// observability.
template <typename S>
struct EdgeData {
  int edge = -1;
  std::vector<S> payload;
  obs::MsgRecord msg{};
};

/// A tile ready for execution, with every incoming edge it accumulated.
template <typename S>
struct ReadyTile {
  IntVec tile;
  std::vector<EdgeData<S>> edges;
};

/// Scheduler state, read under the heap lock.  Feeds the driver's
/// stall-abort diagnostics: a stalled rank reports what it was waiting on
/// (tiles still missing dependencies, edges buffered for them) rather than
/// just that it waited.  Deliveries a worker has made since its last pop
/// are not in it yet.
struct TableSnapshot {
  long long pending_tiles = 0;   ///< tiles with unsatisfied dependencies
  long long ready_tiles = 0;     ///< eligible tiles not yet popped
  long long buffered_edges = 0;  ///< edges held for pending tiles
};

/// Memory-usage counters exposed for the FIG4 / PEND reproductions.  The
/// peaks are rank-level: exact at one thread, and taken at the heap's
/// critical sections with more.
struct TableStats {
  long long peak_pending_tiles = 0;
  long long peak_buffered_edges = 0;
  long long peak_buffered_scalars = 0;
  long long delivered_edges = 0;
  /// Most tiles simultaneously eligible (ready-heap size high-water).
  long long peak_ready_tiles = 0;
  /// Redeliveries of an edge index a pending tile already buffered —
  /// dropped on arrival.  Nonzero under a duplicating transport fault or a
  /// checkpoint replay that overlaps live sends; always zero on a clean run.
  long long duplicate_edges = 0;
};

/// Serialized table contents (checkpoint/restart): every pending tile with
/// its remaining-dependency count and buffered edges, plus the ready queue.
template <typename S>
struct TableState {
  struct Pending {
    IntVec tile;
    int waiting = 0;  ///< dependencies still missing
    std::vector<EdgeData<S>> edges;
  };
  std::vector<Pending> pending;
  std::vector<ReadyTile<S>> ready;
};

namespace detail {
/// Second hash round applied to IntVecHash before use: its high bits pick
/// the stripe and its low bits the probe slot, so both need mixing.
inline std::size_t scramble_hash(std::size_t h) {
  std::uint64_t x = h;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return static_cast<std::size_t>(x);
}
}  // namespace detail

template <typename S>
class TileTable {
 public:
  /// One worker thread's side of the table: the tiles its deliveries made
  /// ready (pushed to the heap by its next pop or flush), its spare
  /// containers, and its not-yet-folded counter deltas.  Owned and used by
  /// one thread only.
  class Worker {
   public:
    /// Keeps a processed tile's containers (the tile coordinates and the
    /// edges vector — payloads are expected to have been moved out
    /// already) so this worker's future pending slots reuse their heap
    /// storage.
    void recycle(ReadyTile<S>&& done) {
      if (spares_.size() >= kMaxSpares) return;
      done.edges.clear();
      spares_.push_back(std::move(done));
    }

   private:
    friend class TileTable;
    /// A counter's change since the last fold and the highest that change
    /// reached, so folding can recover the peak in between.
    struct Level {
      long long delta = 0;
      long long high = 0;
      void add(long long d) {
        delta += d;
        high = std::max(high, delta);
      }
    };
    // Bounds a worker that mostly pops and rarely opens slots.
    static constexpr std::size_t kMaxSpares = 256;

    std::vector<ReadyTile<S>> ready_;
    std::vector<ReadyTile<S>> spares_;
    Level pending_, edges_, scalars_;
  };

  /// A table for a rank of `threads` workers (which sets the stripe count).
  explicit TileTable(const TileOrder& order, int threads = 1)
      : order_(order), stripe_count_(stripes_for(threads)) {
    DPGEN_CHECK(threads >= 1, "a tile table needs at least one thread");
    stripes_ = std::make_unique<Stripe[]>(stripe_count_);
  }

  // The heap comparator points into the table; pinning it keeps that
  // reference valid.
  TileTable(const TileTable&) = delete;
  TileTable& operator=(const TileTable&) = delete;

  /// Pending-map stripes for a rank of `threads` workers: 1 at one thread
  /// (no other thread to contend with), else the next power of two >= 4
  /// per thread, which keeps two workers on one stripe rare.
  static std::size_t stripes_for(int threads) {
    std::size_t n = 1;
    if (threads > 1)
      while (n < 4 * static_cast<std::size_t>(threads)) n *= 2;
    return n;
  }

  /// Seeds a dependency-free (initial) tile straight into the ready heap.
  void seed_ready(IntVec tile) {
    std::lock_guard<std::mutex> lock(heap_mu_);
    push_locked(ReadyTile<S>{std::move(tile), {}});
  }

  /// Delivers one edge for `tile` on behalf of worker `w`.  On first sight
  /// of the tile, expected_deps is consulted for its total in-space
  /// dependency count.  When the last dependency arrives the tile goes to
  /// w's ready list, and w's next pop (or flush) publishes it.
  template <typename ExpectedFn>
  void deliver(Worker& w, const IntVec& tile, ExpectedFn&& expected_deps,
               EdgeData<S> edge) {
    const std::size_t hash = detail::scramble_hash(IntVecHash{}(tile));
    Stripe& st = stripe_for(hash);
    std::lock_guard<std::mutex> lock(st.mu);
    // A duplicate that arrives after its tile already went ready must not
    // resurrect the tile: the slot is tombstoned by then, so without this
    // check the duplicate would open a fresh pending entry — and for a
    // tile expecting a single edge, immediately re-ready (and re-execute)
    // it, double-crediting the completion count.  Tracking every satisfied
    // tile costs a set insert per tile, so it is only armed when
    // duplicates are possible at all (fault injection or replay); a clean
    // transport never re-delivers, and the clean path stays
    // allocation-free.
    if (st.replay_guard && st.satisfied.count(tile) != 0) {
      ++st.duplicates;
      return;
    }
    st.grow_if_needed();

    const std::size_t mask = st.slots.size() - 1;
    std::size_t i = hash & mask;
    Slot* slot = nullptr;
    Slot* reuse = nullptr;  // first tombstone crossed while probing
    for (;;) {
      Slot& s = st.slots[i];
      if (s.state == kEmpty) break;
      if (s.state == kTombstone) {
        if (!reuse) reuse = &s;
      } else if (s.hash == hash && s.tile == tile) {
        slot = &s;
        break;
      }
      i = (i + 1) & mask;
    }
    if (!slot) {
      const int expected = expected_deps(tile);
      DPGEN_ASSERT(expected >= 1);
      slot = reuse ? reuse : &st.slots[i];
      if (slot->state == kTombstone) --st.tombstones;
      slot->hash = hash;
      if (slot->tile.capacity() == 0 && !w.spares_.empty()) {
        // The slot's vectors were moved out when its last tile went ready;
        // refill from a recycled pair so the assign/reserve below reuse
        // heap storage instead of allocating.
        slot->tile = std::move(w.spares_.back().tile);
        slot->edges = std::move(w.spares_.back().edges);
        w.spares_.pop_back();
      }
      slot->tile.assign(tile.begin(), tile.end());
      slot->edges.clear();
      slot->edges.reserve(static_cast<std::size_t>(expected));
      slot->waiting = expected;
      slot->state = kOccupied;
      ++st.size;
      w.pending_.add(1);
    }

    // Duplicate-edge guard: a faulty (or replayed) wire can deliver the
    // same edge twice; counting it twice would fire waiting==0 early and
    // execute the tile with dependencies missing.
    for (const auto& have : slot->edges) {
      if (have.edge == edge.edge) {
        ++st.duplicates;
        return;
      }
    }

    ++st.delivered;
    w.edges_.add(1);
    w.scalars_.add(static_cast<long long>(edge.payload.size()));
    slot->edges.push_back(std::move(edge));
    if (--slot->waiting == 0) {
      if (st.replay_guard) st.satisfied.insert(tile);
      w.ready_.push_back(
          ReadyTile<S>{std::move(slot->tile), std::move(slot->edges)});
      slot->tile.clear();
      slot->edges.clear();
      slot->state = kTombstone;
      ++st.tombstones;
      --st.size;
      w.pending_.add(-1);
    }
  }

  /// Delivery outside a worker loop (restart seeding, restore, tests): the
  /// delivery is published at once.
  template <typename ExpectedFn>
  void deliver(const IntVec& tile, ExpectedFn&& expected_deps,
               EdgeData<S> edge) {
    Worker w;
    deliver(w, tile, std::forward<ExpectedFn>(expected_deps),
            std::move(edge));
    flush(w);
  }

  /// Publishes w's ready tiles and counter deltas, then pops the
  /// highest-priority ready tile — one critical section.  nullopt when
  /// none is ready.
  std::optional<ReadyTile<S>> pop(Worker& w) {
    // An idle worker with nothing to publish polls the heap's size instead
    // of its lock, so it does not queue behind the workers that have tiles.
    if (w.ready_.empty() && w.edges_.delta == 0 && w.pending_.delta == 0 &&
        heap_size_.load(std::memory_order_relaxed) == 0)
      return std::nullopt;
    std::lock_guard<std::mutex> lock(heap_mu_);
    publish_locked(w);
    if (heap_.empty()) return std::nullopt;
    std::pop_heap(heap_.begin(), heap_.end(), heap_before());
    ReadyTile<S> out = std::move(heap_.back());
    heap_.pop_back();
    heap_size_.store(heap_.size(), std::memory_order_relaxed);
    cur_edges_ -= static_cast<long long>(out.edges.size());
    for (const auto& e : out.edges)
      cur_scalars_ -= static_cast<long long>(e.payload.size());
    return out;
  }

  std::optional<ReadyTile<S>> pop() {
    Worker w;
    return pop(w);
  }

  /// Publishes w's ready tiles and counter deltas without popping: before
  /// a worker leaves its loop, or while it is held up mid-tile.
  void flush(Worker& w) {
    std::lock_guard<std::mutex> lock(heap_mu_);
    publish_locked(w);
  }

  /// True when nothing is pending or ready (diagnostic only).
  bool idle() const {
    for (std::size_t s = 0; s < stripe_count_; ++s) {
      std::lock_guard<std::mutex> lock(stripes_[s].mu);
      if (stripes_[s].size != 0) return false;
    }
    std::lock_guard<std::mutex> lock(heap_mu_);
    return heap_.empty();
  }

  TableStats stats() const {
    TableStats out;
    {
      std::lock_guard<std::mutex> lock(heap_mu_);
      out = peaks_;
    }
    for (std::size_t s = 0; s < stripe_count_; ++s) {
      std::lock_guard<std::mutex> lock(stripes_[s].mu);
      out.delivered_edges += stripes_[s].delivered;
      out.duplicate_edges += stripes_[s].duplicates;
    }
    return out;
  }

  TableSnapshot snapshot() const {
    std::lock_guard<std::mutex> lock(heap_mu_);
    return {cur_pending_, static_cast<long long>(heap_.size()), cur_edges_};
  }

  /// Deep copy of the table contents for checkpointing (pending tiles with
  /// their buffered edges, plus the ready heap in heap order).  Tiles still
  /// on a worker's ready list are not in it: call with the workers flushed.
  TableState<S> export_state() const {
    TableState<S> out;
    for (std::size_t s = 0; s < stripe_count_; ++s) {
      std::lock_guard<std::mutex> lock(stripes_[s].mu);
      for (const Slot& slot : stripes_[s].slots) {
        if (slot.state != kOccupied) continue;
        out.pending.push_back(typename TableState<S>::Pending{
            slot.tile, slot.waiting, slot.edges});
      }
    }
    std::lock_guard<std::mutex> lock(heap_mu_);
    out.ready = heap_;
    return out;
  }

  /// Arms the post-ready duplicate guard (the satisfied-tile sets
  /// consulted in deliver()).  Call before any tile goes ready, on tables
  /// that may see re-delivered edges: fault-injected runs, checkpoint
  /// replay.  Off by default — the guard costs a set insert per completed
  /// tile, which would break the clean path's zero-per-edge-allocation
  /// invariant.
  void enable_replay_guard() {
    for (std::size_t s = 0; s < stripe_count_; ++s) {
      std::lock_guard<std::mutex> lock(stripes_[s].mu);
      stripes_[s].replay_guard = true;
    }
  }

  /// Reloads exported contents into this (expected empty) table, whatever
  /// its stripe count.  Pending tiles are replayed through the delivery
  /// path — same accounting, same ready transition if the state says no
  /// dependencies remain.  A restore implies replayed edges may still
  /// arrive, so the guard is armed.
  void restore_state(const TableState<S>& state) {
    enable_replay_guard();
    for (const auto& p : state.pending) {
      const int expected =
          p.waiting + static_cast<int>(p.edges.size());
      for (const auto& e : p.edges)
        deliver(p.tile, [&](const IntVec&) { return expected; }, e);
    }
    // Ready tiles go back on the heap with the buffered-edge accounting
    // that pop() will unwind; any further delivery for one is a duplicate.
    Worker w;
    for (const auto& r : state.ready) {
      Stripe& st = stripe_for(detail::scramble_hash(IntVecHash{}(r.tile)));
      {
        std::lock_guard<std::mutex> lock(st.mu);
        st.satisfied.insert(r.tile);
      }
      w.edges_.add(static_cast<long long>(r.edges.size()));
      for (const auto& e : r.edges)
        w.scalars_.add(static_cast<long long>(e.payload.size()));
      w.ready_.push_back(r);
    }
    flush(w);
  }

 private:
  static constexpr std::size_t kInitialSlots = 64;  // power of two
  static constexpr int kEmpty = 0;
  static constexpr int kTombstone = 1;
  static constexpr int kOccupied = 2;

  struct Slot {
    std::size_t hash = 0;
    int state = kEmpty;
    int waiting = 0;
    IntVec tile;
    std::vector<EdgeData<S>> edges;
  };

  /// One lock's share of the pending map, cache-line aligned so two
  /// stripes' locks never share a line.
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    std::vector<Slot> slots = std::vector<Slot>(kInitialSlots);
    long long size = 0;  // occupied slots
    std::size_t tombstones = 0;
    long long delivered = 0;
    long long duplicates = 0;
    bool replay_guard = false;
    /// Tiles whose dependency set has been fully delivered.  Late
    /// duplicates of their edges are dropped on sight — the tombstone left
    /// in slots forgets the tile's identity, so this set is what makes the
    /// duplicate guard hold across the ready transition.  Populated only
    /// when replay_guard is armed (see enable_replay_guard).
    std::unordered_set<IntVec, IntVecHash> satisfied;

    /// Called under mu.  Keeps the live+tombstone load factor under 3/4
    /// so probe chains stay short; rehashing drops tombstones.
    void grow_if_needed() {
      if ((size + static_cast<long long>(tombstones) + 1) * 4 <=
          static_cast<long long>(slots.size()) * 3)
        return;
      std::size_t cap = slots.size();
      while (static_cast<std::size_t>(size + 1) * 4 > cap * 2) cap *= 2;
      std::vector<Slot> old;
      old.swap(slots);
      slots.resize(cap);
      tombstones = 0;
      const std::size_t mask = cap - 1;
      for (Slot& s : old) {
        if (s.state != kOccupied) continue;
        std::size_t i = s.hash & mask;
        while (slots[i].state != kEmpty) i = (i + 1) & mask;
        slots[i] = std::move(s);
      }
    }
  };

  /// The high bits of a scrambled hash pick the stripe; the low bits are
  /// the probe start inside it.
  Stripe& stripe_for(std::size_t hash) {
    return stripes_[(hash >> 32) & (stripe_count_ - 1)];
  }

  /// Max-heap comparator: the heap's top is the tile the TileOrder says
  /// runs first, so `before(a, b)` holds when a is *later* than b.
  auto heap_before() const {
    return [this](const ReadyTile<S>& a, const ReadyTile<S>& b) {
      return order_.earlier(b.tile, a.tile);
    };
  }

  /// Called under heap_mu_.
  void push_locked(ReadyTile<S>&& tile) {
    heap_.push_back(std::move(tile));
    std::push_heap(heap_.begin(), heap_.end(), heap_before());
    heap_size_.store(heap_.size(), std::memory_order_relaxed);
    peaks_.peak_ready_tiles = std::max(
        peaks_.peak_ready_tiles, static_cast<long long>(heap_.size()));
  }

  /// Called under heap_mu_: folds w's counter deltas into the rank-level
  /// counters and peaks, and pushes its ready tiles.
  void publish_locked(Worker& w) {
    auto fold = [](typename Worker::Level& l, long long& cur,
                   long long& peak) {
      peak = std::max(peak, cur + l.high);
      cur += l.delta;
      l = {};
    };
    fold(w.pending_, cur_pending_, peaks_.peak_pending_tiles);
    fold(w.edges_, cur_edges_, peaks_.peak_buffered_edges);
    fold(w.scalars_, cur_scalars_, peaks_.peak_buffered_scalars);
    for (auto& r : w.ready_) push_locked(std::move(r));
    w.ready_.clear();
  }

  const TileOrder order_;
  const std::size_t stripe_count_;
  std::unique_ptr<Stripe[]> stripes_;

  // The ready heap and the rank-level counters, all under heap_mu_.
  alignas(64) mutable std::mutex heap_mu_;
  std::vector<ReadyTile<S>> heap_;  // binary heap ordered by heap_before()
  std::atomic<std::size_t> heap_size_{0};  // heap_.size(), read unlocked
  long long cur_pending_ = 0;
  long long cur_edges_ = 0;
  long long cur_scalars_ = 0;
  TableStats peaks_;  // the peak_* fields only
};

}  // namespace dpgen::runtime
