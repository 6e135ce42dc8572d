// Unit tests for the runtime scheduling structures: tile priority order
// (Fig. 5), the pending-tile table / ready queue (section V.B), the edge
// message wire format, the load-balance partition (IV.J) and the one
// OpenMP-or-not run_node body per build.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <thread>

#include "runtime/driver.hpp"
#include "runtime/order.hpp"
#include "runtime/partition.hpp"
#include "runtime/tile_table.hpp"

// This file is compiled without DPGEN_RUNTIME_USE_OPENMP on purpose: its
// run_node<double> calls must still reach the library's one body.
#ifdef DPGEN_RUNTIME_USE_OPENMP
#error "test_runtime must be compiled without DPGEN_RUNTIME_USE_OPENMP"
#endif
#if DPGEN_TEST_OPENMP
#include <omp.h>
#endif

namespace dpgen::runtime {
namespace {

TEST(TileOrderCmp, ColumnMajorPrefersMostAdvanced) {
  // 2D, both dims positive deps: execution runs from high indices to low,
  // so the tile furthest along (smaller t0, the balanced dim) runs first —
  // it is the one that feeds the neighbouring rank.
  TileOrder o({0, 1}, {1, 1}, PriorityPolicy::kColumnMajor);
  EXPECT_TRUE(o.earlier({2, 9}, {3, 0}));
  EXPECT_TRUE(o.earlier({2, 4}, {2, 5}));
  EXPECT_FALSE(o.earlier({2, 5}, {2, 4}));
  EXPECT_FALSE(o.earlier({1, 1}, {1, 1}));  // irreflexive
}

TEST(TileOrderCmp, DimPriorityReordersSignificance) {
  // dim 1 most significant: smaller t1 wins regardless of t0.
  TileOrder o({1, 0}, {1, 1}, PriorityPolicy::kColumnMajor);
  EXPECT_TRUE(o.earlier({9, 2}, {0, 3}));
}

TEST(TileOrderCmp, NegativeSignFlipsDirection) {
  // dim 0 has negative deps: execution low -> high, so larger t0 is
  // further along and runs first.
  TileOrder o({0}, {-1}, PriorityPolicy::kColumnMajor);
  EXPECT_TRUE(o.earlier({2}, {1}));
  EXPECT_FALSE(o.earlier({1}, {2}));
}

TEST(TileOrderCmp, LevelSetComparesDiagonals) {
  TileOrder o({0, 1}, {1, 1}, PriorityPolicy::kLevelSet);
  // Wavefront order: the less-progressed level set (larger coordinate sum
  // under positive deps) runs first.
  EXPECT_TRUE(o.earlier({2, 2}, {3, 0}));
  EXPECT_TRUE(o.earlier({1, 3}, {2, 1}));
  // Same level: ties broken by the column-major rule (most advanced in
  // the priority dim first).
  EXPECT_TRUE(o.earlier({2, 2}, {3, 1}));
}

TEST(TileOrderCmp, StrictWeakOrderingOnGrid) {
  for (auto policy : {PriorityPolicy::kColumnMajor, PriorityPolicy::kLevelSet}) {
    TileOrder o({0, 1}, {1, -1}, policy);
    std::vector<IntVec> tiles;
    for (Int a = 0; a < 4; ++a)
      for (Int b = 0; b < 4; ++b) tiles.push_back({a, b});
    for (const auto& x : tiles)
      for (const auto& y : tiles) {
        EXPECT_FALSE(o.earlier(x, y) && o.earlier(y, x));
        if (x != y) EXPECT_TRUE(o.earlier(x, y) || o.earlier(y, x));
      }
  }
}

TileOrder default_order() {
  return TileOrder({0, 1}, {1, 1}, PriorityPolicy::kColumnMajor);
}

TEST(TileTableOps, SeededTileIsImmediatelyReady) {
  TileTable<double> table(default_order());
  table.seed_ready({2, 2});
  auto t = table.pop();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->tile, (IntVec{2, 2}));
  EXPECT_TRUE(t->edges.empty());
  EXPECT_FALSE(table.pop().has_value());
}

TEST(TileTableOps, TileReadyOnlyWhenAllDepsDelivered) {
  TileTable<double> table(default_order());
  auto two_deps = [](const IntVec&) { return 2; };
  table.deliver({1, 1}, two_deps, {0, {1.0}});
  EXPECT_FALSE(table.pop().has_value());
  table.deliver({1, 1}, two_deps, {1, {2.0, 3.0}});
  auto t = table.pop();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->tile, (IntVec{1, 1}));
  ASSERT_EQ(t->edges.size(), 2u);
  EXPECT_EQ(t->edges[0].edge, 0);
  EXPECT_EQ(t->edges[1].payload, (std::vector<double>{2.0, 3.0}));
}

TEST(TileTableOps, PopRespectsPriority) {
  TileTable<double> table(default_order());
  table.seed_ready({0, 5});
  table.seed_ready({3, 1});
  table.seed_ready({3, 4});
  EXPECT_EQ(table.pop()->tile, (IntVec{0, 5}));
  EXPECT_EQ(table.pop()->tile, (IntVec{3, 1}));
  EXPECT_EQ(table.pop()->tile, (IntVec{3, 4}));
}

TEST(TileTableOps, StatsTrackPeaks) {
  TileTable<double> table(default_order());
  auto one_dep = [](const IntVec&) { return 1; };
  auto two_deps = [](const IntVec&) { return 2; };
  table.deliver({0, 0}, two_deps, {0, {1.0, 2.0}});
  table.deliver({0, 1}, one_dep, {1, {3.0}});  // becomes ready
  auto s = table.stats();
  EXPECT_EQ(s.delivered_edges, 2);
  EXPECT_EQ(s.peak_pending_tiles, 2);  // both seen pending at some point
  EXPECT_EQ(s.peak_buffered_edges, 2);
  EXPECT_EQ(s.peak_buffered_scalars, 3);
  (void)table.pop();  // pops {0,1}; its edge memory released
  table.deliver({0, 0}, two_deps, {1, {4.0}});
  (void)table.pop();
  EXPECT_TRUE(table.idle());
}

TEST(TileTableOps, IdleReflectsState) {
  TileTable<float> table(default_order());
  EXPECT_TRUE(table.idle());
  table.deliver({0, 0}, [](const IntVec&) { return 2; }, {0, {}});
  EXPECT_FALSE(table.idle());
}

// The pending map is sharded into hash stripes (one per lock); these cover
// the stripes against the one rank-level ready heap.

TEST(ShardedTable, SingleShardBehavesLikePlainTable) {
  TileTable<double> table(default_order(), 1);
  TileTable<double>::Worker w;
  table.seed_ready({0, 5});
  table.seed_ready({3, 1});
  EXPECT_EQ(table.pop(w)->tile, (IntVec{0, 5}));
  EXPECT_EQ(table.pop(w)->tile, (IntVec{3, 1}));
  EXPECT_FALSE(table.pop(w).has_value());
}

TEST(ShardedTable, StealingFindsWorkInOtherShards) {
  // A tile one worker's delivery completed is handed to that worker; once
  // its next pop publishes the rest, any worker finds them, whatever
  // stripe their edges went through.
  TileTable<double> table(default_order(), 4);
  TileTable<double>::Worker a, b;
  auto one = [](const IntVec&) { return 1; };
  for (Int i = 0; i < 4; ++i) table.deliver(a, {i, 0}, one, {0, {1.0}});
  EXPECT_FALSE(table.pop(b).has_value());  // still on a's list
  auto first = table.pop(a);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->tile, (IntVec{0, 0}));  // the earliest of the four
  for (Int i = 1; i < 4; ++i) {
    auto t = table.pop(b);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->tile, (IntVec{i, 0}));
  }
  EXPECT_FALSE(table.pop(b).has_value());
}

TEST(ShardedTable, DeliverRoutesConsistently) {
  TileTable<double> table(default_order(), 3);
  auto two = [](const IntVec&) { return 2; };
  table.deliver({2, 2}, two, {0, {1.0}});
  EXPECT_FALSE(table.pop().has_value());  // still pending
  table.deliver({2, 2}, two, {1, {2.0}});  // same stripe via same hash
  auto t = table.pop();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->edges.size(), 2u);
  EXPECT_TRUE(table.idle());
}

TEST(ShardedTable, StatsAggregateAcrossShards) {
  TileTable<float> table(default_order(), 2);
  auto one = [](const IntVec&) { return 1; };
  table.deliver({0, 0}, one, {0, {1.0f, 2.0f}});
  table.deliver({5, 5}, one, {0, {3.0f}});
  auto s = table.stats();
  EXPECT_EQ(s.delivered_edges, 2);
  EXPECT_EQ(s.peak_buffered_scalars, 3);
  EXPECT_EQ(s.peak_ready_tiles, 2);
  EXPECT_THROW(TileTable<float>(default_order(), 0), Error);
}

TEST(ShardedTable, ReadyPeakIsSimultaneousNotSummed) {
  // Tiles become ready one at a time and are popped immediately, spread
  // over the stripes.  The rank-level peak must be 1 — summing per-stripe
  // peaks would report more.
  TileTable<float> table(default_order(), 2);
  auto one = [](const IntVec&) { return 1; };
  for (Int i = 0; i < 8; ++i) {
    table.deliver({i, i + 1}, one, {0, {1.0f}});
    ASSERT_TRUE(table.pop().has_value());
  }
  const TableStats s = table.stats();
  EXPECT_EQ(s.peak_ready_tiles, 1);
  EXPECT_EQ(s.peak_buffered_edges, 1);
  EXPECT_EQ(s.peak_pending_tiles, 1);  // one slot open at a time
}

TEST(ShardedTable, ReadyPeakTracksSimultaneousDepth) {
  TileTable<float> table(default_order(), 2);
  for (Int i = 0; i < 5; ++i) table.seed_ready({i, i});
  EXPECT_EQ(table.stats().peak_ready_tiles, 5);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(table.pop().has_value());
  EXPECT_FALSE(table.pop().has_value());
  EXPECT_EQ(table.stats().peak_ready_tiles, 5);  // peak, not current depth
}

TEST(ShardedTable, WorkerPeaksAreExactAtOneThread) {
  // The driver's pattern at one thread: a pop, then the deliveries it
  // makes, folded into the rank-level counters at the next pop.  The
  // peaks must be those of the eager count: the pending peak is reached
  // in the middle of a tile's deliveries, not at its end.
  TileTable<double> table(default_order(), 1);
  TileTable<double>::Worker w;
  auto two = [](const IntVec&) { return 2; };
  table.seed_ready({9, 9});
  ASSERT_TRUE(table.pop(w).has_value());
  table.deliver(w, {1, 1}, two, {0, {1.0}});       // pending 1
  table.deliver(w, {2, 2}, two, {0, {1.0, 2.0}});  // pending 2 (peak)
  table.deliver(w, {1, 1}, two, {1, {3.0}});       // {1,1} ready
  table.deliver(w, {2, 2}, two, {1, {4.0}});       // {2,2} ready
  EXPECT_EQ(table.snapshot().pending_tiles, 0);  // not folded yet
  ASSERT_TRUE(table.pop(w).has_value());
  const TableStats s = table.stats();
  EXPECT_EQ(s.peak_pending_tiles, 2);
  EXPECT_EQ(s.peak_buffered_edges, 4);
  EXPECT_EQ(s.peak_buffered_scalars, 5);
  EXPECT_EQ(s.peak_ready_tiles, 2);
  const TableSnapshot snap = table.snapshot();
  EXPECT_EQ(snap.pending_tiles, 0);
  EXPECT_EQ(snap.ready_tiles, 1);
  EXPECT_EQ(snap.buffered_edges, 2);
}

TEST(ShardedTable, StripeCountFollowsThreads) {
  EXPECT_EQ(TileTable<double>::stripes_for(1), 1u);
  EXPECT_EQ(TileTable<double>::stripes_for(2), 8u);
  EXPECT_EQ(TileTable<double>::stripes_for(3), 16u);
  EXPECT_EQ(TileTable<double>::stripes_for(4), 16u);
  EXPECT_EQ(TileTable<double>::stripes_for(5), 32u);
}

TEST(EdgeWire, EncodeDecodeRoundTrip) {
  std::vector<double> payload{1.5, -2.25, 0.0};
  auto buf = detail::encode_edge<double>(3, {4, -1, 7}, payload);
  int edge = -1;
  IntVec consumer;
  std::vector<double> out;
  detail::decode_edge<double>(buf, 3, 8, &edge, &consumer, &out);
  EXPECT_EQ(edge, 3);
  EXPECT_EQ(consumer, (IntVec{4, -1, 7}));
  EXPECT_EQ(out, payload);
}

TEST(EdgeWire, EmptyPayloadRoundTrip) {
  auto buf = detail::encode_edge<float>(0, {9}, {});
  int edge = -1;
  IntVec consumer;
  std::vector<float> out;
  detail::decode_edge<float>(buf, 1, 8, &edge, &consumer, &out);
  EXPECT_EQ(edge, 0);
  EXPECT_EQ(consumer, (IntVec{9}));
  EXPECT_TRUE(out.empty());
}

TEST(EdgeWire, TruncatedMessageRejected) {
  auto buf = detail::encode_edge<double>(1, {2, 3}, {1.0});
  buf.pop_back();
  int edge;
  IntVec consumer;
  std::vector<double> out;
  EXPECT_THROW(detail::decode_edge<double>(buf, 2, 8, &edge, &consumer, &out),
               Error);
}

TEST(EdgeWire, MalformedHeadersRejected) {
  // A valid message we then corrupt field by field; header layout is
  // [edge, count, consumer...] as Int (8 bytes each).
  auto valid = detail::encode_edge<double>(1, {2, 3}, {1.0, 2.0});
  int edge;
  IntVec consumer;
  std::vector<double> out;

  auto corrupt = [&](std::size_t field, Int value) {
    auto buf = valid;
    std::memcpy(buf.data() + field * sizeof(Int), &value, sizeof(Int));
    return buf;
  };

  // Edge index out of range: negative or >= num_edges.
  EXPECT_THROW(detail::decode_edge<double>(corrupt(0, -1), 2, 8, &edge,
                                           &consumer, &out),
               Error);
  EXPECT_THROW(detail::decode_edge<double>(corrupt(0, 8), 2, 8, &edge,
                                           &consumer, &out),
               Error);
  // Negative payload count.
  EXPECT_THROW(detail::decode_edge<double>(corrupt(1, -1), 2, 8, &edge,
                                           &consumer, &out),
               Error);
  // Payload count overflowing the buffer (count * sizeof(S) would wrap).
  EXPECT_THROW(detail::decode_edge<double>(
                   corrupt(1, std::numeric_limits<Int>::max()), 2, 8, &edge,
                   &consumer, &out),
               Error);
  // Count claims more scalars than the buffer holds.
  EXPECT_THROW(detail::decode_edge<double>(corrupt(1, 3), 2, 8, &edge,
                                           &consumer, &out),
               Error);
  // Buffer shorter than the fixed header.
  std::vector<std::uint8_t> tiny(detail::edge_wire_header(2) - 1, 0);
  EXPECT_THROW(
      detail::decode_edge<double>(tiny, 2, 8, &edge, &consumer, &out), Error);
  // The uncorrupted message still decodes.
  detail::decode_edge<double>(valid, 2, 8, &edge, &consumer, &out);
  EXPECT_EQ(edge, 1);
  EXPECT_EQ(consumer, (IntVec{2, 3}));
  EXPECT_EQ(out, (std::vector<double>{1.0, 2.0}));
}

TEST(EdgeWire, FloatScalarsSupported) {
  std::vector<float> payload{1.0f, 2.0f};
  auto buf = detail::encode_edge<float>(2, {0, 0}, payload);
  int edge;
  IntVec consumer;
  std::vector<float> out;
  detail::decode_edge<float>(buf, 2, 8, &edge, &consumer, &out);
  EXPECT_EQ(out, payload);
}

// ---- the table under concurrent workers -------------------------------

/// An n^d grid wavefront: tile t depends on t - e_k for every k with
/// t[k] > 0, and edge k carries the producer's linear index, so a popped
/// tile can check that it holds exactly the edges of its predecessors.
struct Wavefront {
  int d;
  Int n;
  Int total() const {
    Int t = 1;
    for (int k = 0; k < d; ++k) t *= n;
    return t;
  }
  Int index(const IntVec& t) const {
    Int i = 0;
    for (Int x : t) i = i * n + x;
    return i;
  }
  int deps(const IntVec& t) const {
    int c = 0;
    for (Int x : t) c += x > 0 ? 1 : 0;
    return c;
  }
};

/// Runs `threads` workers in the driver's pattern (pop, check, deliver
/// each successor edge `copies` times, recycle) until `done` reaches
/// `stop_at`, then flushes them.  pops[i] counts the pops of tile i.  A
/// table that loses a tile would leave the workers waiting forever, so
/// they give up after a deadline and the caller's counts fail.
void run_wavefront(TileTable<double>& table, const Wavefront& wf, int threads,
                   int copies, Int stop_at, std::atomic<Int>& done,
                   std::vector<std::atomic<int>>& pops) {
  auto deps = [&](const IntVec& t) { return wf.deps(t); };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::vector<std::thread> workers;
  for (int w = 0; w < threads; ++w)
    workers.emplace_back([&] {
      TileTable<double>::Worker local;
      while (done.load(std::memory_order_acquire) < stop_at) {
        auto r = table.pop(local);
        if (!r) {
          if (std::chrono::steady_clock::now() > deadline) break;
          std::this_thread::yield();
          continue;
        }
        const IntVec& t = r->tile;
        pops[static_cast<std::size_t>(wf.index(t))].fetch_add(1);
        EXPECT_EQ(static_cast<int>(r->edges.size()), wf.deps(t));
        for (const auto& e : r->edges) {
          IntVec producer = t;
          producer[static_cast<std::size_t>(e.edge)] -= 1;
          ASSERT_EQ(e.payload.size(), 1u);
          EXPECT_EQ(e.payload[0], static_cast<double>(wf.index(producer)));
        }
        for (int k = 0; k < wf.d; ++k) {
          IntVec c = t;
          if (++c[static_cast<std::size_t>(k)] >= wf.n) continue;
          for (int copy = 0; copy < copies; ++copy)
            table.deliver(local, c, deps,
                          {k, {static_cast<double>(wf.index(t))}});
        }
        local.recycle(std::move(*r));
        done.fetch_add(1, std::memory_order_release);
      }
      table.flush(local);
    });
  for (auto& t : workers) t.join();
}

/// Drives a whole wavefront through 4 workers; with `export_midway` the
/// run stops near half way, the table is exported and restored into a
/// fresh (2-thread) table, and the run finishes there.  Every tile must
/// pop exactly once with all its edges.
void check_wavefront(int d, Int n, int copies, bool export_midway) {
  const Wavefront wf{d, n};
  const TileOrder order(std::vector<int>{}, std::vector<int>(d, 1),
                        PriorityPolicy::kColumnMajor);
  TileTable<double> table(order, 4);
  if (copies > 1) table.enable_replay_guard();
  table.seed_ready(IntVec(static_cast<std::size_t>(d), 0));
  std::vector<std::atomic<int>> pops(static_cast<std::size_t>(wf.total()));
  std::atomic<Int> done{0};
  TableStats stats;
  if (export_midway) {
    run_wavefront(table, wf, 4, copies, wf.total() / 2, done, pops);
    ASSERT_GE(done.load(), wf.total() / 2);
    EXPECT_LT(done.load(), wf.total());
    TileTable<double> resumed(order, 2);
    resumed.restore_state(table.export_state());
    run_wavefront(resumed, wf, 4, copies, wf.total(), done, pops);
    EXPECT_TRUE(resumed.idle());
    stats = resumed.stats();
  } else {
    run_wavefront(table, wf, 4, copies, wf.total(), done, pops);
    EXPECT_TRUE(table.idle());
    stats = table.stats();
    // Every edge but the duplicates went in exactly once.
    Int edges = 0;
    for (Int i = 0; i < wf.total(); ++i) {
      IntVec t(static_cast<std::size_t>(d));
      for (int k = d - 1, x = static_cast<int>(i); k >= 0; --k, x /= n)
        t[static_cast<std::size_t>(k)] = x % n;
      edges += wf.deps(t);
    }
    EXPECT_EQ(stats.delivered_edges, edges);
    EXPECT_EQ(stats.duplicate_edges, edges * (copies - 1));
  }
  EXPECT_EQ(done.load(), wf.total());
  for (Int i = 0; i < wf.total(); ++i)
    ASSERT_EQ(pops[static_cast<std::size_t>(i)].load(), 1) << "tile " << i;
  EXPECT_GE(stats.peak_ready_tiles, 1);
}

TEST(TileTableStress, Wavefront2dEveryTilePopsOnceWithAllEdges) {
  check_wavefront(2, 48, 1, false);
}

TEST(TileTableStress, Wavefront3dEveryTilePopsOnceWithAllEdges) {
  check_wavefront(3, 12, 1, false);
}

TEST(TileTableStress, DuplicateEdgesDroppedUnderReplayGuard) {
  check_wavefront(2, 40, 2, false);
  check_wavefront(3, 10, 2, false);
}

TEST(TileTableStress, ExportRestoreRoundTripsMidRun) {
  check_wavefront(2, 40, 1, true);
  check_wavefront(3, 10, 2, true);
}

TEST(RuntimeSnapshot, TracksPendingReadyBuffered) {
  TileTable<double> table(default_order(), 2);
  auto two = [](const IntVec&) { return 2; };
  table.deliver({1, 1}, two, {0, {1.0}});
  TableSnapshot s = table.snapshot();
  EXPECT_EQ(s.pending_tiles, 1);
  EXPECT_EQ(s.ready_tiles, 0);
  EXPECT_EQ(s.buffered_edges, 1);
  table.deliver({1, 1}, two, {1, {2.0}});
  s = table.snapshot();
  EXPECT_EQ(s.pending_tiles, 0);
  EXPECT_EQ(s.ready_tiles, 1);
  EXPECT_EQ(s.buffered_edges, 2);  // ready tiles still hold their edges
  ASSERT_TRUE(table.pop().has_value());
  s = table.snapshot();
  EXPECT_EQ(s.pending_tiles, 0);
  EXPECT_EQ(s.ready_tiles, 0);
  EXPECT_EQ(s.buffered_edges, 0);
}

TEST(RuntimeSnapshot, ConcurrentWithDeliverAndPop) {
  // The monitor samples snapshot() from outside the worker threads while
  // edges stream in and tiles are popped.  Every tile needs exactly two
  // edges, so any consistent observation satisfies
  //   buffered_edges == pending_tiles + 2 * ready_tiles
  // — the snapshot reads the rank-level counters, which a delivery
  // outside a worker loop folds in together with the tile it made ready.
  constexpr Int kTiles = 2000;
  TileTable<double> table(default_order(), 4);
  auto two = [](const IntVec&) { return 2; };
  std::atomic<bool> done{false};

  std::thread producer([&] {
    for (Int i = 0; i < kTiles; ++i) {
      table.deliver({i, i + 1}, two, {0, {1.0}});
      table.deliver({i, i + 1}, two, {1, {2.0, 3.0}});
    }
  });
  std::thread consumer([&] {
    Int popped = 0;
    while (popped < kTiles) {
      auto t = table.pop();
      if (t) {
        EXPECT_EQ(t->edges.size(), 2u);
        ++popped;
      }
    }
    done.store(true, std::memory_order_release);
  });

  long long observations = 0;
  while (!done.load(std::memory_order_acquire)) {
    TableSnapshot s = table.snapshot();
    EXPECT_GE(s.pending_tiles, 0);
    EXPECT_GE(s.ready_tiles, 0);
    EXPECT_GE(s.buffered_edges, 0);
    EXPECT_LE(s.pending_tiles, kTiles);
    EXPECT_EQ(s.buffered_edges, s.pending_tiles + 2 * s.ready_tiles);
    ++observations;
  }
  producer.join();
  consumer.join();
  EXPECT_GT(observations, 0);

  TableSnapshot end = table.snapshot();
  EXPECT_EQ(end.pending_tiles, 0);
  EXPECT_EQ(end.ready_tiles, 0);
  EXPECT_EQ(end.buffered_edges, 0);
  EXPECT_TRUE(table.idle());
}

// --- checkpoint/restart state round-trips (tests/test_faults.cpp holds the
// engine-level restart suite; these cover the table layer in isolation) ---

TEST(TableStateRoundTrip, PendingAndReadySurviveExportRestore) {
  TileTable<double> src(default_order());
  auto two_deps = [](const IntVec&) { return 2; };
  auto three_deps = [](const IntVec&) { return 3; };
  src.seed_ready({4, 4});
  src.deliver({1, 1}, two_deps, {0, {1.0}});              // pending, 1/2
  src.deliver({2, 2}, three_deps, {1, {2.0, 3.0}});       // pending, 1/3
  src.deliver({2, 2}, three_deps, {2, {4.0}});            // pending, 2/3
  src.deliver({3, 3}, two_deps, {0, {5.0}});              // goes ready below
  src.deliver({3, 3}, two_deps, {1, {6.0}});

  const TableState<double> state = src.export_state();
  EXPECT_EQ(state.pending.size(), 2u);
  EXPECT_EQ(state.ready.size(), 2u);

  TileTable<double> dst(default_order());
  dst.restore_state(state);
  TableSnapshot before = src.snapshot(), after = dst.snapshot();
  EXPECT_EQ(after.pending_tiles, before.pending_tiles);
  EXPECT_EQ(after.ready_tiles, before.ready_tiles);
  EXPECT_EQ(after.buffered_edges, before.buffered_edges);

  // The restored table completes exactly like the original would: the
  // missing dependencies arrive and every tile pops in priority order
  // with its full edge set.
  dst.deliver({1, 1}, two_deps, {1, {7.0}});
  dst.deliver({2, 2}, three_deps, {0, {8.0}});
  std::vector<IntVec> order;
  while (auto t = dst.pop()) {
    if (t->tile == (IntVec{1, 1}) || t->tile == (IntVec{2, 2})) {
      EXPECT_EQ(t->edges.size(), t->tile == (IntVec{2, 2}) ? 3u : 2u);
    }
    order.push_back(t->tile);
  }
  ASSERT_EQ(order.size(), 4u);
  EXPECT_TRUE(dst.idle());
}

TEST(TableStateRoundTrip, RestoredReadyTileKeepsDuplicateGuard) {
  // A tile that went ready before the export must reject re-delivered
  // edges after the restore — otherwise a restart under a duplicating
  // fault would re-execute it (the double-execution bug the chaos suite's
  // smith_waterman case caught on the live path).
  TileTable<double> src(default_order());
  auto one_dep = [](const IntVec&) { return 1; };
  src.deliver({0, 1}, one_dep, {0, {1.5}});  // immediately ready
  TileTable<double> dst(default_order());
  dst.restore_state(src.export_state());
  dst.deliver({0, 1}, one_dep, {0, {1.5}});  // duplicate of the same edge
  EXPECT_EQ(dst.stats().duplicate_edges, 1);
  auto t = dst.pop();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->tile, (IntVec{0, 1}));
  EXPECT_FALSE(dst.pop().has_value());  // not resurrected
  EXPECT_TRUE(dst.idle());
}

TEST(TableStateRoundTrip, TombstonedSlotsAreNotExported) {
  // Tiles that went ready (tombstoned slots) and recycled containers must
  // not leak into the export: only genuinely pending tiles and the
  // not-yet-popped ready queue travel.
  TileTable<double> table(default_order());
  auto one_dep = [](const IntVec&) { return 1; };
  auto two_deps = [](const IntVec&) { return 2; };
  for (Int i = 0; i < 8; ++i)
    table.deliver({i, i}, one_dep, {0, {static_cast<double>(i)}});
  TileTable<double>::Worker w;
  for (int i = 0; i < 8; ++i) {
    auto t = table.pop(w);
    ASSERT_TRUE(t.has_value());
    w.recycle(std::move(*t));
  }
  // The slot w opens next takes a recycled container.
  table.deliver(w, {9, 0}, two_deps, {0, {42.0}});
  table.flush(w);
  const TableState<double> state = table.export_state();
  ASSERT_EQ(state.pending.size(), 1u);
  EXPECT_EQ(state.pending[0].tile, (IntVec{9, 0}));
  EXPECT_EQ(state.pending[0].waiting, 1);
  ASSERT_EQ(state.pending[0].edges.size(), 1u);
  EXPECT_EQ(state.pending[0].edges[0].payload, (std::vector<double>{42.0}));
  EXPECT_TRUE(state.ready.empty());
}

TEST(TableStateRoundTrip, ShardedExportRestoresAcrossShardCounts) {
  // The exported state is stripe-agnostic: a 4-thread table's state (16
  // stripes) restores into a 2-thread table (8 stripes), as when a
  // restart runs on fewer threads.
  TileOrder order = default_order();
  TileTable<double> src(order, 4);
  auto two_deps = [](const IntVec&) { return 2; };
  for (Int i = 0; i < 12; ++i) {
    src.deliver({i, i + 1}, two_deps, {0, {static_cast<double>(i)}});
    if (i % 2 == 0)
      src.deliver({i, i + 1}, two_deps, {1, {static_cast<double>(-i)}});
  }
  TileTable<double> dst(order, 2);
  dst.restore_state(src.export_state());
  TableSnapshot before = src.snapshot(), after = dst.snapshot();
  EXPECT_EQ(after.pending_tiles, before.pending_tiles);
  EXPECT_EQ(after.ready_tiles, before.ready_tiles);
  EXPECT_EQ(after.buffered_edges, before.buffered_edges);
  // Finish the odd tiles and drain everything.
  for (Int i = 1; i < 12; i += 2)
    dst.deliver({i, i + 1}, two_deps, {1, {static_cast<double>(-i)}});
  int popped = 0;
  while (dst.pop()) ++popped;
  EXPECT_EQ(popped, 12);
  EXPECT_TRUE(dst.idle());
}

TEST(TableStateRoundTrip, DuplicateEdgeStatSurvivesConcurrentDelivery) {
  // The duplicate guard must hold under concurrent duplicate delivery:
  // exactly one copy of each edge lands no matter the interleaving.
  TileOrder order = default_order();
  TileTable<double> table(order, 2);
  table.enable_replay_guard();  // duplicates only occur on guarded runs
  auto four_deps = [](const IntVec&) { return 4; };
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w)
    workers.emplace_back([&, w] {
      // Every thread delivers every edge of every tile: kThreads copies
      // of each, all but one of which must be dropped.
      (void)w;
      for (Int t = 0; t < 6; ++t)
        for (int e = 0; e < 4; ++e)
          table.deliver({t, t}, four_deps,
                        {e, {static_cast<double>(t * 4 + e)}});
    });
  for (auto& t : workers) t.join();
  int popped = 0;
  while (auto t = table.pop()) {
    EXPECT_EQ(t->edges.size(), 4u);
    ++popped;
  }
  EXPECT_EQ(popped, 6);
  const TableStats s = table.stats();
  EXPECT_EQ(s.delivered_edges, 6 * 4);
  EXPECT_EQ(s.duplicate_edges, 6 * 4 * (kThreads - 1));
  EXPECT_TRUE(table.idle());
}

// ---- load-balance partition (paper IV.J) ----------------------------------

TEST(Partition, PrefixCutSplitsCumulativeWork) {
  // Work 4, 4, 4, 4 over two ranks: the cut falls after the second cell.
  const std::vector<LbCell> cells{
      {{0}, 4, 1}, {{1}, 4, 2}, {{2}, 4, 3}, {{3}, 4, 4}};
  Partition part({0}, cells, 2);
  EXPECT_EQ(part.total_work(), 16);
  EXPECT_EQ(part.num_cells(), 4);
  EXPECT_EQ(part.owner({0, 9}), 0);
  EXPECT_EQ(part.owner({1, 9}), 0);
  EXPECT_EQ(part.owner({2, 9}), 1);
  EXPECT_EQ(part.owner({3, 9}), 1);
  EXPECT_EQ(part.owned_work(0), 8);
  EXPECT_EQ(part.owned_tiles(0), 3);
  EXPECT_EQ(part.owned_tiles(1), 7);
  EXPECT_DOUBLE_EQ(part.imbalance(), 1.0);
}

TEST(Partition, TileWithoutCellIsAnError) {
  // Dense owner table over [0, 3] with a hole at 2; the tile's second
  // index is not a load-balance dimension.
  const std::vector<LbCell> dense{{{0}, 1, 1}, {{1}, 1, 1}, {{3}, 1, 1}};
  Partition part({1}, dense, 2);
  EXPECT_EQ(part.owner({9, 3}), 1);
  EXPECT_THROW(part.owner({0, 2}), Error);   // the hole
  EXPECT_THROW(part.owner({0, 4}), Error);   // past the box
  EXPECT_THROW(part.owner({0, -1}), Error);  // before it
  // Cells too far apart for a dense table: the hash-map lookup.
  const std::vector<LbCell> sparse{{{0, 0}, 1, 1}, {{100000, 7}, 1, 1}};
  Partition far({0, 1}, sparse, 2);
  EXPECT_EQ(far.owner({100000, 7}), 1);
  EXPECT_THROW(far.owner({50, 0}), Error);
}

TEST(Partition, NoLoadBalanceDimsOwnsEverythingOnRankZero) {
  Partition part({}, {{{}, 10, 5}}, 3);
  EXPECT_EQ(part.owner({4, 2}), 0);
  EXPECT_EQ(part.owned_tiles(0), 5);
  EXPECT_EQ(part.owned_work(1), 0);
}

// ---- one run_node body per build ----------------------------------------

/// Eight independent one-cell tiles on one rank; execute_tile counts the
/// calls made inside an OpenMP parallel region.
class ParallelRegionHooks final : public ProblemHooks<double> {
 public:
  int dim() const override { return 1; }
  Int buffer_size() const override { return 1; }
  int num_edges() const override { return 0; }
  const IntVec& edge_offset(int) const override {
    static const IntVec none;
    return none;
  }
  Int edge_capacity(int) const override { return 0; }
  bool tile_exists(const IntVec& t) const override {
    return t[0] >= 0 && t[0] < kTiles;
  }
  int dep_count(const IntVec&) const override { return 0; }
  void initial_tiles(std::vector<IntVec>& out) const override {
    for (Int i = 0; i < kTiles; ++i) out.push_back({i});
  }
  int owner(const IntVec&) const override { return 0; }
  Int owned_tiles(int) const override { return kTiles; }
  void execute_tile(const IntVec&, double* buffer) override {
    buffer[0] = 1.0;
#if DPGEN_TEST_OPENMP
    if (omp_in_parallel()) in_parallel.fetch_add(1);
#endif
  }
  Int pack(int, const IntVec&, const double*, double*) const override {
    return 0;
  }
  void unpack(int, const IntVec&, const double*, Int, double*) const override {}

  static constexpr Int kTiles = 8;
  std::atomic<int> in_parallel{0};
};

TEST(RunNodeBuild, OpenMpBuildRunsWorkersInAParallelRegion) {
  // In an OpenMP build the library's run_node<double> runs its workers
  // inside an OpenMP parallel region, even when called from this file,
  // which is compiled without OpenMP; without the explicit instantiation
  // this file would compile its own std::thread body.
#if !DPGEN_TEST_OPENMP
  GTEST_SKIP() << "OpenMP is not available in this build";
#else
  ParallelRegionHooks hooks;
  RunOptions opt;
  opt.threads = 2;
  opt.order = TileOrder({0}, {1}, PriorityPolicy::kColumnMajor);
  minimpi::World world(1);
  RunStats stats;
  world.run([&](minimpi::Comm& comm) {
    stats = run_node<double>(hooks, comm, opt);
  });
  EXPECT_EQ(stats.tiles_executed, ParallelRegionHooks::kTiles);
  EXPECT_EQ(hooks.in_parallel.load(), ParallelRegionHooks::kTiles);
#endif
}

}  // namespace
}  // namespace dpgen::runtime
