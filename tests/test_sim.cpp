// Tests for the discrete-event cluster simulator: conservation laws,
// critical-path behaviour, scaling shapes and the Fig. 4 memory metric.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "engine/engine.hpp"
#include "sim/cluster_sim.hpp"
#include "sim/svg.hpp"
#include "sim/tune.hpp"

namespace dpgen::sim {
namespace {

spec::ProblemSpec chain_spec(Int width) {
  spec::ProblemSpec s;
  s.name("chain")
      .params({"N"})
      .vars({"x"})
      .constraint("x >= 0")
      .constraint("x <= N")
      .dep("r1", {1})
      .load_balance({"x"})
      .tile_widths({width})
      .center_code("V[loc] = 0.0;");
  return s;
}

/// An n x n tile grid: square space of side n*width, deps (1,0) and (0,1).
spec::ProblemSpec grid_spec(Int width) {
  spec::ProblemSpec s;
  s.name("grid")
      .params({"N"})
      .vars({"x", "y"})
      .constraint("x >= 0")
      .constraint("x <= N")
      .constraint("y >= 0")
      .constraint("y <= N")
      .dep("r1", {1, 0})
      .dep("r2", {0, 1})
      .load_balance({"x", "y"})
      .tile_widths({width, width})
      .center_code("V[loc] = 0.0;");
  return s;
}

spec::ProblemSpec bandit_like_spec(Int width) {
  spec::ProblemSpec s;
  s.name("simplex4")
      .params({"N"})
      .vars({"a", "b", "c", "d"});
  s.constraint("a >= 0").constraint("b >= 0");
  s.constraint("c >= 0").constraint("d >= 0");
  s.constraint("a + b + c + d <= N");
  s.dep("r1", {1, 0, 0, 0}).dep("r2", {0, 1, 0, 0});
  s.dep("r3", {0, 0, 1, 0}).dep("r4", {0, 0, 0, 1});
  s.load_balance({"a", "b"}).tile_widths({width, width, width, width});
  s.center_code("V[loc] = 0.0;");
  return s;
}

TEST(SimChain, SerialChainHasNoSpeedup) {
  tiling::TilingModel model(chain_spec(4));
  ClusterConfig cfg;
  cfg.tile_overhead_sec = 0.0;
  SimResult one = simulate(model, {63}, cfg);
  cfg.cores_per_node = 8;
  SimResult eight = simulate(model, {63}, cfg);
  // A 1-D dependency chain is inherently serial.
  EXPECT_DOUBLE_EQ(one.makespan, eight.makespan);
  EXPECT_NEAR(eight.speedup(), 1.0, 1e-9);
}

TEST(SimChain, MakespanEqualsTotalWorkOnOneCore) {
  tiling::TilingModel model(chain_spec(4));
  ClusterConfig cfg;
  SimResult r = simulate(model, {63}, cfg);
  EXPECT_NEAR(r.makespan, r.total_work_sec, 1e-12);
  EXPECT_NEAR(r.utilization, 1.0, 1e-9);
  EXPECT_EQ(r.tiles, model.total_tiles({63}));
  EXPECT_EQ(r.remote_messages, 0);
}

TEST(SimGrid, WorkConservedAcrossConfigurations) {
  tiling::TilingModel model(grid_spec(4));
  IntVec params{31};
  ClusterConfig base;
  SimResult serial = simulate(model, params, base);
  for (int nodes : {1, 2, 4}) {
    for (int cores : {1, 2, 8}) {
      ClusterConfig cfg;
      cfg.nodes = nodes;
      cfg.cores_per_node = cores;
      SimResult r = simulate(model, params, cfg);
      EXPECT_NEAR(r.total_work_sec, serial.total_work_sec, 1e-9)
          << nodes << "x" << cores;
      EXPECT_EQ(r.tiles, serial.tiles);
      // Makespan can never beat the perfect-parallel bound.
      EXPECT_GE(r.makespan * nodes * cores, r.total_work_sec - 1e-9);
    }
  }
}

TEST(SimGrid, MoreCoresNeverSlower) {
  tiling::TilingModel model(grid_spec(4));
  IntVec params{47};
  double prev = 1e100;
  for (int cores : {1, 2, 4, 8, 16}) {
    ClusterConfig cfg;
    cfg.cores_per_node = cores;
    double mk = simulate(model, params, cfg).makespan;
    EXPECT_LE(mk, prev + 1e-12) << cores << " cores";
    prev = mk;
  }
}

TEST(SimGrid, SharedMemoryScalingIsStrong) {
  // A 12x12 tile grid on up to 8 cores should scale well (wavefront
  // parallelism greatly exceeds the core count).
  tiling::TilingModel model(grid_spec(4));
  IntVec params{47};
  ClusterConfig cfg;
  cfg.cores_per_node = 8;
  cfg.tile_overhead_sec = 0.0;
  SimResult r = simulate(model, params, cfg);
  EXPECT_GT(r.speedup(), 5.0);
  EXPECT_LE(r.speedup(), 8.0 + 1e-9);
}

TEST(SimGrid, RemoteEdgesOnlyAcrossNodes) {
  tiling::TilingModel model(grid_spec(4));
  IntVec params{31};
  ClusterConfig cfg;
  cfg.nodes = 2;
  SimResult r = simulate(model, params, cfg);
  EXPECT_GT(r.remote_messages, 0);
  EXPECT_GT(r.remote_scalars, 0.0);
  cfg.nodes = 1;
  EXPECT_EQ(simulate(model, params, cfg).remote_messages, 0);
}

TEST(SimGrid, LatencyOnlyHurtsMultiNode) {
  tiling::TilingModel model(grid_spec(4));
  IntVec params{31};
  ClusterConfig fast, slow;
  fast.nodes = slow.nodes = 2;
  fast.link_latency_sec = 0.0;
  slow.link_latency_sec = 1e-3;
  EXPECT_LT(simulate(model, params, fast).makespan,
            simulate(model, params, slow).makespan);
  // Single node: latency is irrelevant.
  fast.nodes = slow.nodes = 1;
  EXPECT_DOUBLE_EQ(simulate(model, params, fast).makespan,
                   simulate(model, params, slow).makespan);
}

TEST(SimMemory, Fig4ColumnMajorVsLevelSet) {
  // Paper Fig. 4 / section V.B: on an n x n tile grid the column-major
  // priority buffers about n+1 edges; level-set order buffers about
  // 2(n-1).
  for (Int n : {5, 8, 16}) {
    tiling::TilingModel model(grid_spec(4));
    IntVec params{4 * n - 1};  // exactly n tiles per side
    ASSERT_EQ(model.total_tiles(params), n * n);
    ClusterConfig cfg;  // single core: pure priority effect
    cfg.policy = runtime::PriorityPolicy::kColumnMajor;
    long long col = simulate(model, params, cfg).peak_buffered_edges;
    cfg.policy = runtime::PriorityPolicy::kLevelSet;
    long long lvl = simulate(model, params, cfg).peak_buffered_edges;
    EXPECT_LT(col, lvl) << "n=" << n;
    EXPECT_NEAR(static_cast<double>(col), static_cast<double>(n + 1), 2.0)
        << "n=" << n;
    EXPECT_NEAR(static_cast<double>(lvl), static_cast<double>(2 * (n - 1)),
                3.0)
        << "n=" << n;
  }
}

TEST(SimDeterminism, IdenticalRunsIdenticalResults) {
  tiling::TilingModel model(bandit_like_spec(3));
  IntVec params{14};
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.cores_per_node = 4;
  SimResult a = simulate(model, params, cfg);
  SimResult b = simulate(model, params, cfg);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.peak_buffered_edges, b.peak_buffered_edges);
  EXPECT_EQ(a.remote_messages, b.remote_messages);
}

TEST(SimBandit, MultiNodeWeakShapeHoldsUp) {
  // Scaling a 4-dim simplex across nodes keeps utilization reasonably
  // high when per-node work is matched (coarse weak-scaling sanity).
  tiling::TilingModel model(bandit_like_spec(3));
  ClusterConfig cfg;
  cfg.cores_per_node = 4;
  cfg.nodes = 1;
  SimResult one = simulate(model, {16}, cfg);
  cfg.nodes = 4;
  SimResult four = simulate(model, {24}, cfg);  // ~4x the locations
  EXPECT_GT(one.utilization, 0.5);
  EXPECT_GT(four.utilization, 0.35);
  EXPECT_GT(four.speedup(), one.speedup());
}

TEST(SimTimeline, SpansCoverAllTilesAndRespectCores) {
  tiling::TilingModel model(grid_spec(4));
  IntVec params{31};
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.cores_per_node = 3;
  cfg.record_timeline = true;
  SimResult r = simulate(model, params, cfg);
  EXPECT_EQ(static_cast<Int>(r.timeline.size()), r.tiles);
  // Per (node, core), spans must not overlap.
  std::map<std::pair<int, int>, std::vector<std::pair<double, double>>> lanes;
  double busy = 0.0;
  for (const auto& s : r.timeline) {
    EXPECT_LT(s.start, s.end);
    EXPECT_LE(s.end, r.makespan + 1e-12);
    lanes[{s.node, s.core}].emplace_back(s.start, s.end);
    busy += s.end - s.start;
  }
  EXPECT_NEAR(busy, r.total_work_sec, 1e-9);
  for (auto& [lane, spans] : lanes) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i)
      EXPECT_GE(spans[i].first, spans[i - 1].second - 1e-12);
  }
}

TEST(SimTimeline, UtilizationProfileShowsFillAndDrain) {
  tiling::TilingModel model(grid_spec(4));
  ClusterConfig cfg;
  cfg.cores_per_node = 8;
  cfg.record_timeline = true;
  SimResult r = simulate(model, {63}, cfg);
  auto profile = utilization_profile(r, 8, 10);
  ASSERT_EQ(profile.size(), 10u);
  for (double u : profile) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-9);
  }
  // The middle of the run is busier than the wavefront fill at the start.
  EXPECT_GT(profile[5], profile[0]);
  // Average of the profile equals the overall utilization.
  double avg = 0.0;
  for (double u : profile) avg += u;
  EXPECT_NEAR(avg / 10.0, r.utilization, 0.02);
}

TEST(SimFidelity, SingleCoreOrderMatchesEngineExactly) {
  // The simulator's core claim: it replays the real schedule.  With one
  // core and one thread both systems are deterministic, so the simulated
  // execution order must equal the engine's actual order tile for tile.
  for (auto policy : {runtime::PriorityPolicy::kColumnMajor,
                      runtime::PriorityPolicy::kLevelSet}) {
    spec::ProblemSpec s1 = grid_spec(4);
    tiling::TilingModel model(std::move(s1));
    IntVec params{19};

    ClusterConfig cfg;
    cfg.policy = policy;
    cfg.record_timeline = true;
    SimResult sim_result = simulate(model, params, cfg);
    std::vector<IntVec> sim_order;
    for (const auto& span : sim_result.timeline)
      sim_order.push_back(span.tile);

    std::vector<IntVec> engine_order;
    engine::EngineOptions opt;
    opt.policy = policy;
    opt.on_tile_executed = [&](const IntVec& t) {
      engine_order.push_back(t);
    };
    engine::run(model, params,
                [](const engine::Cell& c) { c.V[c.loc] = 0.0; }, opt);

    ASSERT_EQ(sim_order.size(), engine_order.size());
    EXPECT_EQ(sim_order, engine_order)
        << (policy == runtime::PriorityPolicy::kColumnMajor ? "column"
                                                            : "levelset");
  }
}

TEST(SimTimeline, SvgRenderingContainsEveryTile) {
  tiling::TilingModel model(grid_spec(4));
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.cores_per_node = 2;
  cfg.record_timeline = true;
  SimResult r = simulate(model, {23}, cfg);
  std::string svg = timeline_svg(r);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  // One <rect> per tile plus the background.
  std::size_t rects = 0;
  for (std::size_t pos = svg.find("<rect"); pos != std::string::npos;
       pos = svg.find("<rect", pos + 1))
    ++rects;
  EXPECT_EQ(static_cast<Int>(rects), r.tiles + 1);

  std::string path = testing::TempDir() + "/dpgen_timeline.svg";
  write_timeline_svg(r, path);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
}

TEST(SimTimeline, SeriesSvgRendersPolylinesWithGaps) {
  std::vector<Series> series;
  series.push_back({"alpha", {1.0, 2.0, 3.0, 2.5}});
  series.push_back(
      {"beta", {0.5, std::numeric_limits<double>::quiet_NaN(), 1.5, 2.0}});
  std::string svg = series_svg(series, "bench medians");
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("bench medians"), std::string::npos);
  EXPECT_NE(svg.find("alpha"), std::string::npos);
  EXPECT_NE(svg.find("beta"), std::string::npos);
  // The NaN splits beta's polyline, so there are at least 3 polylines
  // (alpha's plus beta's two segments... beta's first segment is a single
  // point, drawn as a circle), and one circle per finite point.
  std::size_t circles = 0;
  for (std::size_t pos = svg.find("<circle"); pos != std::string::npos;
       pos = svg.find("<circle", pos + 1))
    ++circles;
  EXPECT_EQ(circles, 7u);  // 4 alpha + 3 finite beta points
  EXPECT_EQ(svg.find("nan"), std::string::npos);
}

TEST(SimTimeline, SvgNeedsRecordedTimeline) {
  tiling::TilingModel model(chain_spec(4));
  SimResult r = simulate(model, {15}, ClusterConfig{});
  EXPECT_THROW(timeline_svg(r), Error);
}

TEST(SimTimeline, DisabledByDefault) {
  tiling::TilingModel model(chain_spec(4));
  SimResult r = simulate(model, {15}, ClusterConfig{});
  EXPECT_TRUE(r.timeline.empty());
  EXPECT_THROW(utilization_profile(r, 0, 5), Error);
}

TEST(SimTune, SweepCoversWidthsAndFindsMinimum) {
  auto factory = [](Int w) { return grid_spec(w); };
  ClusterConfig cfg;
  cfg.cores_per_node = 4;
  cfg.tile_overhead_sec = 1e-4;  // strong per-tile cost: big tiles win
  auto sweep = sweep_widths(factory, {1, 2, 4, 8}, {31}, cfg);
  ASSERT_EQ(sweep.size(), 4u);
  for (std::size_t i = 0; i < sweep.size(); ++i)
    EXPECT_GT(sweep[i].result.makespan, 0.0);
  // With a dominant per-tile overhead the largest width must win.
  EXPECT_EQ(best_width(sweep), 8);
  // With zero overhead and many nodes, smaller tiles pipeline better.
  cfg.tile_overhead_sec = 0.0;
  cfg.nodes = 8;
  auto sweep2 = sweep_widths(factory, {2, 16}, {31}, cfg);
  EXPECT_EQ(best_width(sweep2), 2);
}

TEST(SimTune, EmptyInputsRejected) {
  auto factory = [](Int w) { return grid_spec(w); };
  EXPECT_THROW(sweep_widths(factory, {}, {31}, ClusterConfig{}), Error);
  EXPECT_THROW(best_width({}), Error);
}

TEST(SimConfig, InvalidConfigsRejected) {
  tiling::TilingModel model(chain_spec(4));
  ClusterConfig cfg;
  cfg.nodes = 0;
  EXPECT_THROW(simulate(model, {10}, cfg), Error);
  cfg.nodes = 1;
  cfg.sec_per_cell = 0.0;
  EXPECT_THROW(simulate(model, {10}, cfg), Error);
}

TEST(SimBalance, HyperplaneMethodRunsOnWedge) {
  // Paper VII.B / Fig. 8 present hyperplane cuts as future work for wedge
  // shapes.  Both methods must schedule the wedge correctly and stay in
  // the same performance regime; which one wins depends on the pipeline
  // behaviour (see bench_loadbalance for the measured comparison).
  spec::ProblemSpec s;
  s.name("wedge").params({"N"}).vars({"x", "y"});
  s.constraint("x >= 0").constraint("y >= 0").constraint("x + y <= N");
  s.dep("r1", {1, 0}).dep("r2", {0, 1});
  s.load_balance({"x", "y"}).tile_widths({2, 2});
  s.center_code("V[loc] = 0.0;");
  tiling::TilingModel model(std::move(s));
  IntVec params{63};
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.cores_per_node = 2;
  cfg.balance = tiling::BalanceMethod::kPerDimension;
  SimResult perdim = simulate(model, params, cfg);
  cfg.balance = tiling::BalanceMethod::kHyperplane;
  SimResult hyper = simulate(model, params, cfg);
  EXPECT_EQ(hyper.tiles, perdim.tiles);
  EXPECT_GT(hyper.utilization, 0.4);
  EXPECT_LE(hyper.makespan, perdim.makespan * 2.0);
}

TEST(SimMonitor, BalancedRunFlagsNoStraggler) {
  tiling::TilingModel model(grid_spec(4));
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.cores_per_node = 2;
  cfg.obs.monitor = "-";  // monitor without an event log
  SimResult r = simulate(model, {63}, cfg);
  EXPECT_TRUE(r.stragglers.empty());
}

TEST(SimMonitor, SlowedNodeIsFlaggedByName) {
  tiling::TilingModel model(grid_spec(4));
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.cores_per_node = 2;
  cfg.obs.monitor = "-";
  cfg.node_slowdown = {1.0, 4.0};
  SimResult r = simulate(model, {63}, cfg);
  ASSERT_FALSE(r.stragglers.empty());
  for (const auto& f : r.stragglers) {
    EXPECT_EQ(f.rank, 1);
    EXPECT_LT(f.pace, f.median_pace);
  }
  // The skew is real: the same problem without the slowdown is faster.
  cfg.node_slowdown.clear();
  SimResult balanced = simulate(model, {63}, cfg);
  EXPECT_LT(balanced.makespan, r.makespan);
}

TEST(SimMonitor, EventLogIsWrittenAndDeterministic) {
  tiling::TilingModel model(grid_spec(4));
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.cores_per_node = 2;
  cfg.obs.monitor = testing::TempDir() + "/dpgen_sim_events.jsonl";
  SimResult a = simulate(model, {63}, cfg);
  std::ifstream in(cfg.obs.monitor);
  ASSERT_TRUE(in.good());
  std::string first;
  ASSERT_TRUE(std::getline(in, first));
  EXPECT_NE(first.find("run_start"), std::string::npos);
  EXPECT_NE(first.find("\"sim\""), std::string::npos);
  long long lines = 1;
  std::string line, last;
  while (std::getline(in, line)) {
    ++lines;
    last = line;
  }
  EXPECT_NE(last.find("run_end"), std::string::npos);
  EXPECT_GE(lines, 4);  // run_start + >=1 heartbeat per node + run_end
  // DES time drives the monitor, so a rerun reproduces the log exactly.
  std::remove(cfg.obs.monitor.c_str());
  SimResult b = simulate(model, {63}, cfg);
  EXPECT_EQ(a.makespan, b.makespan);
  std::ifstream in2(cfg.obs.monitor);
  long long lines2 = 0;
  while (std::getline(in2, line)) ++lines2;
  EXPECT_EQ(lines, lines2);
  std::remove(cfg.obs.monitor.c_str());
}

TEST(SimDocuments, DashCollectsWithoutWriting) {
  // "-" means collect-only for every document, as in the engine and the
  // generated program: the results land in SimResult and no file named
  // "-" appears in the working directory.
  tiling::TilingModel model(grid_spec(4));
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.cores_per_node = 2;
  cfg.obs.report = "-";
  cfg.obs.msgtrace = "-";
  cfg.obs.monitor = "-";
  cfg.obs.profile = "-";
  cfg.obs.trace = "-";
  std::remove("-");
  SimResult r = simulate(model, {63}, cfg);
  EXPECT_FALSE(std::ifstream("-").good()) << "simulate wrote a file named -";
  ASSERT_TRUE(r.report.has_value());
  EXPECT_EQ(r.report->source, "sim");
  ASSERT_TRUE(r.profile.has_value());
  EXPECT_EQ(r.profile->sampler, "synthetic");
  EXPECT_GT(r.profile->samples_total, 0);
  EXPECT_EQ(static_cast<long long>(r.msg_records.size()), r.remote_messages);
}

TEST(SimMonitor, SeriesSvgDrawsTicksAndLegend) {
  std::vector<Series> series;
  series.push_back({"node 0", {0.0, 0.4, 0.8, 1.0}});
  series.push_back({"node 1", {0.0, 0.2, 0.6, 1.0}});
  SeriesSvgOptions opt;
  opt.x_labels = {"0ms", "1ms", "2ms", "3ms"};
  opt.y_ticks = 4;
  opt.legend = true;
  std::string svg = series_svg(series, "completed fraction", opt);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  for (const auto& lbl : opt.x_labels)
    EXPECT_NE(svg.find(lbl), std::string::npos) << lbl;
  EXPECT_NE(svg.find("node 0"), std::string::npos);
  EXPECT_NE(svg.find("node 1"), std::string::npos);
  // y gridlines carry value labels; 1.0 is the series maximum.
  EXPECT_NE(svg.find("1"), std::string::npos);
  // Defaults stay byte-compatible with the pre-tick renderer: no axis
  // tick text and the inline label row instead of the legend block.
  std::string plain = series_svg(series, "completed fraction");
  EXPECT_EQ(plain.find("0ms"), std::string::npos);
}

}  // namespace
}  // namespace dpgen::sim
