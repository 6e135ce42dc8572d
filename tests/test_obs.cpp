// Tests for the observability subsystem: metrics instruments, the span
// tracer, Chrome trace-event export, and the end-to-end multi-rank path —
// a real engine run whose exported timeline is validated structurally and
// whose counters must satisfy conservation laws (every sent edge is
// delivered, every owned tile is executed exactly once).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "json_util.hpp"
#include "obs/export.hpp"
#include "obs/gather.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tiling/balance.hpp"

namespace dpgen {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Metrics, CounterGaugeHistogramBasics) {
  obs::Counter c;
  c.add(5);
  c.increment();
  EXPECT_EQ(c.value(), 6);
  c.reset();
  EXPECT_EQ(c.value(), 0);

  obs::Gauge g;
  g.set(7);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max(), 7);

  obs::Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(5);
  h.observe(1024);
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 1030);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 1024);
  EXPECT_EQ(h.bucket(0), 1);  // the zero observation
  EXPECT_EQ(h.bucket(1), 1);  // 1 lands in [1,2)
  EXPECT_EQ(h.bucket(3), 1);  // 5 lands in [4,8)
  EXPECT_EQ(h.bucket(11), 1);  // 1024 lands in [1024,2048)
}

TEST(Metrics, RegistryJsonParsesAndKeepsHandles) {
  auto& reg = obs::MetricsRegistry::instance();
  obs::Counter& c = reg.counter("test_obs.events");
  obs::Counter& c2 = reg.counter("test_obs.events");
  EXPECT_EQ(&c, &c2);  // same name, same instrument
  c.add(42);
  reg.gauge("test_obs.level").set(9);
  reg.histogram("test_obs.sizes").observe(100);

  auto doc = json::parse(reg.to_json());
  EXPECT_EQ(doc->at("counters").at("test_obs.events").as_number(), 42);
  EXPECT_EQ(doc->at("gauges").at("test_obs.level").at("value").as_number(),
            9);
  const auto& hist = doc->at("histograms").at("test_obs.sizes");
  EXPECT_EQ(hist.at("count").as_number(), 1);
  EXPECT_EQ(hist.at("sum").as_number(), 100);

  reg.reset();
  EXPECT_EQ(c.value(), 0);  // reset zeroes but the reference stays valid
}

TEST(Metrics, HistogramQuantilesInterpolateLog2Buckets) {
  obs::Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty

  // A single observation is every quantile (clamped to [min, max]).
  h.observe(100);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);

  // 50 ones + 50 at 1024: the lower quantiles interpolate inside the
  // [1, 2) bucket, the upper ones clamp to the recorded max.
  obs::Histogram h2;
  for (int i = 0; i < 50; ++i) h2.observe(1);
  for (int i = 0; i < 50; ++i) h2.observe(1024);
  EXPECT_DOUBLE_EQ(h2.quantile(0.25), 1.49);  // rank 25 of 50 in [1, 2)
  EXPECT_DOUBLE_EQ(h2.quantile(0.75), 1024.0);
  EXPECT_LE(h2.quantile(0.5), h2.quantile(0.95));
  EXPECT_LE(h2.quantile(0.95), h2.quantile(0.99));

  // All-zero observations sit in the dedicated zero bucket.
  obs::Histogram h3;
  h3.observe(0);
  h3.observe(0);
  EXPECT_DOUBLE_EQ(h3.quantile(0.99), 0.0);
}

TEST(Metrics, QuantilesAppearInTextAndJson) {
  auto& reg = obs::MetricsRegistry::instance();
  obs::Histogram& h = reg.histogram("test_obs.quantiles");
  h.reset();
  for (int i = 1; i <= 100; ++i) h.observe(i);

  auto doc = json::parse(reg.to_json());
  const auto& hist = doc->at("histograms").at("test_obs.quantiles");
  ASSERT_TRUE(hist.has("p50"));
  ASSERT_TRUE(hist.has("p95"));
  ASSERT_TRUE(hist.has("p99"));
  EXPECT_LE(hist.at("p50").as_number(), hist.at("p95").as_number());
  EXPECT_LE(hist.at("p95").as_number(), hist.at("p99").as_number());
  EXPECT_GE(hist.at("p50").as_number(), hist.at("min").as_number());
  EXPECT_LE(hist.at("p99").as_number(), hist.at("max").as_number());

  std::string text = reg.to_text();
  EXPECT_NE(text.find("test_obs.quantiles.p50"), std::string::npos);
  EXPECT_NE(text.find("test_obs.quantiles.p99"), std::string::npos);
}

// Regression: Gauge::reset() (and MetricsRegistry::reset(), which calls
// it) must clear the high-water mark too, not just the level — otherwise
// a peak from a previous run leaks into the next run's report.
TEST(Metrics, ResetClearsGaugeHighWaterMark) {
  obs::Gauge g;
  g.set(7);
  g.set(3);
  ASSERT_EQ(g.max(), 7);
  g.reset();
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max(), 0);
  g.set(2);
  EXPECT_EQ(g.max(), 2) << "stale high-water mark survived reset()";

  auto& reg = obs::MetricsRegistry::instance();
  obs::Gauge& rg = reg.gauge("test_obs.reset_gauge");
  rg.set(99);
  rg.set(1);
  reg.reset();
  EXPECT_EQ(rg.max(), 0);
}

TEST(Export, ChromeTraceCarriesDroppedSpanCount) {
  std::vector<obs::Span> spans(1);
  spans[0].start_ns = 0;
  spans[0].end_ns = 10;
  spans[0].phase = obs::Phase::kTileExecute;

  auto doc = json::parse(obs::chrome_trace_json(spans, /*dropped=*/5));
  EXPECT_EQ(doc->at("metadata").at("spans_dropped").as_number(), 5);
  auto clean = json::parse(obs::chrome_trace_json(spans));
  EXPECT_EQ(clean->at("metadata").at("spans_dropped").as_number(), 0);
}

TEST(Tracer, RecordsPerThreadAndCollectsByRank) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "built with DPGEN_TRACE=0";
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);

  constexpr int kThreads = 4;
  constexpr int kSpansEach = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &tracer] {
      obs::Tracer::set_identity(/*rank=*/7, /*thread=*/t);
      for (int i = 0; i < kSpansEach; ++i) {
        IntVec tile{t, i};
        std::int64_t now = tracer.now_ns();
        tracer.record(obs::Phase::kTileExecute, now, now + 10, &tile);
      }
    });
  }
  for (auto& th : threads) th.join();
  tracer.set_enabled(false);

  auto spans = tracer.collect_rank(7);
  ASSERT_EQ(spans.size(), kThreads * kSpansEach);
  std::set<int> seen_threads;
  for (const auto& s : spans) {
    EXPECT_EQ(s.rank, 7);
    EXPECT_EQ(s.ncoord, 2);
    EXPECT_GE(s.end_ns, s.start_ns);
    seen_threads.insert(s.thread);
  }
  EXPECT_EQ(seen_threads.size(), kThreads);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_TRUE(tracer.collect_rank(12345).empty());
  tracer.clear();
  EXPECT_TRUE(tracer.collect_rank(7).empty());
}

TEST(Tracer, DisabledRecordingIsANoOp) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(false);
  tracer.record(obs::Phase::kIdle, 0, 1);
  EXPECT_TRUE(tracer.collect_all().empty());
}

TEST(Tracer, SpanSerializationRoundTrips) {
  std::vector<obs::Span> spans(3);
  spans[0].start_ns = 10;
  spans[0].end_ns = 20;
  spans[0].rank = 1;
  spans[0].thread = 2;
  spans[0].phase = obs::Phase::kPack;
  spans[0].ncoord = 2;
  spans[0].coord[0] = 5;
  spans[0].coord[1] = -3;
  spans[2].phase = obs::Phase::kBarrier;

  auto bytes = obs::serialize_records(spans);
  bytes.resize(bytes.size() + 37);  // gather pads buffers; must tolerate
  auto back =
      obs::deserialize_records<obs::Span>(bytes.data(), bytes.size());
  ASSERT_EQ(back.size(), spans.size());
  EXPECT_EQ(back[0].start_ns, 10);
  EXPECT_EQ(back[0].coord[1], -3);
  EXPECT_EQ(back[0].phase, obs::Phase::kPack);
  EXPECT_EQ(back[2].phase, obs::Phase::kBarrier);
}

TEST(Export, ChromeTraceShape) {
  std::vector<obs::Span> spans(2);
  spans[0].start_ns = 1000;
  spans[0].end_ns = 2500;
  spans[0].rank = 0;
  spans[0].thread = 1;
  spans[0].phase = obs::Phase::kTileExecute;
  spans[0].ncoord = 2;
  spans[0].coord[0] = 3;
  spans[0].coord[1] = 4;
  spans[1].start_ns = 0;
  spans[1].end_ns = 50;
  spans[1].rank = -1;  // setup span
  spans[1].phase = obs::Phase::kLoadBalance;

  auto doc = json::parse(obs::chrome_trace_json(spans));
  const auto& events = doc->at("traceEvents").as_array();
  int x_events = 0, m_events = 0;
  for (const auto& ev : events) {
    const std::string& ph = ev->at("ph").as_string();
    if (ph == "X") {
      ++x_events;
      EXPECT_GE(ev->at("dur").as_number(), 0.0);
      EXPECT_TRUE(ev->has("pid"));
      EXPECT_TRUE(ev->has("tid"));
    } else {
      EXPECT_EQ(ph, "M");
      ++m_events;
    }
  }
  EXPECT_EQ(x_events, 2);
  EXPECT_GE(m_events, 2);  // at least one track-name pair
  // The tile-execute event carries its coordinates in the name.
  bool found = false;
  for (const auto& ev : events)
    if (ev->at("ph").as_string() == "X" &&
        ev->at("name").as_string().find("(3, 4)") != std::string::npos)
      found = true;
  EXPECT_TRUE(found);
}

// End-to-end: a 2-rank x 2-thread engine run with tracing on.  Checks the
// exported timeline structurally and the counters against conservation
// laws the scheduler must satisfy.
TEST(ObsEndToEnd, MultiRankTraceAndConservation) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "built with DPGEN_TRACE=0";

  // Lattice-path counting on [0,N]^2 (same recurrence as test_engine).
  spec::ProblemSpec s;
  s.name("paths")
      .params({"N"})
      .vars({"x", "y"})
      .constraint("x >= 0")
      .constraint("x <= N")
      .constraint("y >= 0")
      .constraint("y <= N")
      .dep("r1", {1, 0})
      .dep("r2", {0, 1})
      .load_balance({"x", "y"})
      .tile_widths({4, 4})
      .center_code("V[loc] = 0.0;");
  tiling::TilingModel model(s);
  const IntVec params{15};

  engine::EngineOptions opt;
  opt.ranks = 2;
  opt.threads = 2;
  std::string trace_path = testing::TempDir() + "/dpgen_obs_trace.json";
  std::string metrics_path = testing::TempDir() + "/dpgen_obs_metrics.json";
  opt.obs.trace = trace_path;
  opt.obs.metrics = metrics_path;

  auto center = [](const engine::Cell& c) {
    double v = 0.0;
    int any = 0;
    if (c.valid[0]) { v += c.V[c.loc_dep[0]]; any = 1; }
    if (c.valid[1]) { v += c.V[c.loc_dep[1]]; any = 1; }
    c.V[c.loc] = any ? v : 1.0;
  };
  auto result = engine::run(model, params, center, opt);

  // Conservation: each rank executes exactly the tiles it owns...
  tiling::LoadBalancer balancer(model, params, opt.ranks, opt.balance);
  ASSERT_EQ(result.rank_stats.size(), 2u);
  long long total_tiles = 0;
  for (int r = 0; r < opt.ranks; ++r) {
    EXPECT_EQ(result.rank_stats[static_cast<std::size_t>(r)].tiles_executed,
              balancer.owned_tiles(r))
        << "rank " << r;
    total_tiles +=
        result.rank_stats[static_cast<std::size_t>(r)].tiles_executed;
  }
  EXPECT_EQ(total_tiles, model.total_tiles(params));

  // ...and every produced edge (local or remote) is delivered exactly once.
  long long sent = 0, delivered = 0;
  for (const auto& st : result.rank_stats) {
    sent += st.local_edges + st.remote_edges;
    delivered += st.table.delivered_edges;
    EXPECT_GE(st.idle_seconds, 0.0);
    EXPECT_GE(st.blocked_send_seconds, 0.0);
  }
  EXPECT_EQ(sent, delivered);

  // The exported trace parses, and has one tile-execute X event per
  // executed tile with sane timestamps and rank/thread track ids.
  auto doc = json::parse(read_file(trace_path));
  long long tile_events = 0;
  std::set<std::pair<int, int>> tracks;
  for (const auto& ev : doc->at("traceEvents").as_array()) {
    if (ev->at("ph").as_string() != "X") continue;
    EXPECT_GE(ev->at("ts").as_number(), 0.0);
    EXPECT_GE(ev->at("dur").as_number(), 0.0);
    int pid = static_cast<int>(ev->at("pid").as_number());
    int tid = static_cast<int>(ev->at("tid").as_number());
    if (ev->at("cat").as_string() == "tile_execute") {
      ++tile_events;
      EXPECT_TRUE(pid == 0 || pid == 1) << "unexpected rank track " << pid;
      tracks.insert({pid, tid});
    }
  }
  EXPECT_EQ(tile_events, model.total_tiles(params));
  EXPECT_GT(tracks.size(), 1u) << "expected multiple rank x thread tracks";

  // The metrics dump parses and covers the runtime counters.
  auto metrics = json::parse(read_file(metrics_path));
  EXPECT_GE(metrics->at("counters").at("runtime.tiles_executed").as_number(),
            static_cast<double>(model.total_tiles(params)));
  EXPECT_TRUE(metrics->at("histograms").has("runtime.tile_latency_ns"));

  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());

  // Tracing must be switched back off after the traced run.
  EXPECT_FALSE(obs::Tracer::instance().enabled());
}

// A second run without tracing must not grow the merged span set.
TEST(ObsEndToEnd, UntracedRunRecordsNothing) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();

  spec::ProblemSpec s;
  s.name("countdown")
      .params({"N"})
      .vars({"x"})
      .constraint("x >= 0")
      .constraint("x <= N")
      .dep("r1", {1})
      .load_balance({"x"})
      .tile_widths({4})
      .center_code("V[loc] = 0.0;");
  tiling::TilingModel model(s);
  auto center = [](const engine::Cell& c) {
    c.V[c.loc] = c.valid[0] ? c.V[c.loc_dep[0]] + 1.0 : 1.0;
  };
  engine::EngineOptions opt;
  opt.ranks = 2;
  auto result = engine::run(model, {31}, center, opt);
  EXPECT_EQ(result.total(&runtime::RunStats::tiles_executed),
            model.total_tiles({31}));
  EXPECT_TRUE(tracer.collect_all().empty());
  EXPECT_TRUE(tracer.merged().empty());
}

// The runtime.* metrics and the per-rank RunStats are one counter set: a
// 2-rank x 2-thread run with remote edges moves every counter by exactly
// the sum of the matching field over rank_stats.
TEST(ObsEndToEnd, RuntimeMetricsEqualSummedRankStats) {
  spec::ProblemSpec s;
  s.name("paths")
      .params({"N"})
      .vars({"x", "y"})
      .constraint("x >= 0")
      .constraint("x <= N")
      .constraint("y >= 0")
      .constraint("y <= N")
      .dep("r1", {1, 0})
      .dep("r2", {0, 1})
      .load_balance({"x", "y"})
      .tile_widths({4, 4})
      .center_code("V[loc] = 0.0;");
  tiling::TilingModel model(s);
  auto center = [](const engine::Cell& c) {
    double v = 0.0;
    int any = 0;
    if (c.valid[0]) { v += c.V[c.loc_dep[0]]; any = 1; }
    if (c.valid[1]) { v += c.V[c.loc_dep[1]]; any = 1; }
    c.V[c.loc] = any ? v : 1.0;
  };
  engine::EngineOptions opt;
  opt.ranks = 2;
  opt.threads = 2;

  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  const char* names[] = {"runtime.tiles_executed", "runtime.local_edges",
                         "runtime.remote_edges",   "runtime.polls",
                         "runtime.edge_alloc",     "runtime.pool_hit",
                         "runtime.idle_ns",        "runtime.blocked_send_ns"};
  std::map<std::string, std::int64_t> before;
  for (const char* n : names) before[n] = reg.counter(n).value();
  const std::int64_t latency0 =
      reg.histogram("runtime.tile_latency_ns").count();

  auto result = engine::run(model, {23}, center, opt);
  auto delta = [&](const char* n) { return reg.counter(n).value() - before[n]; };

  ASSERT_EQ(result.rank_stats.size(), 2u);
  long long tiles = 0, local = 0, remote = 0, polls = 0, allocs = 0,
            hits = 0;
  double idle_s = 0.0, blocked_s = 0.0;
  for (const auto& st : result.rank_stats) {
    tiles += st.tiles_executed;
    local += st.local_edges;
    remote += st.remote_edges;
    polls += st.polls;
    allocs += st.edge_allocs;
    hits += st.pool_hits;
    idle_s += st.idle_seconds;
    blocked_s += st.blocked_send_seconds;
  }
  EXPECT_GT(remote, 0) << "the run must exercise the remote-edge path";
  EXPECT_EQ(delta("runtime.tiles_executed"), tiles);
  EXPECT_EQ(delta("runtime.local_edges"), local);
  EXPECT_EQ(delta("runtime.remote_edges"), remote);
  EXPECT_EQ(delta("runtime.polls"), polls);
  EXPECT_EQ(delta("runtime.edge_alloc"), allocs);
  EXPECT_EQ(delta("runtime.pool_hit"), hits);
  // Nanosecond counters against second fields: equal up to the rounding
  // of each recorded stretch to whole nanoseconds.
  EXPECT_NEAR(static_cast<double>(delta("runtime.idle_ns")), idle_s * 1e9,
              1e4);
  EXPECT_NEAR(static_cast<double>(delta("runtime.blocked_send_ns")),
              blocked_s * 1e9, 1e4);
  EXPECT_EQ(reg.histogram("runtime.tile_latency_ns").count() - latency0,
            tiles);
}

/// Lattice-path counting on [0,N]^2 in 4x4 tiles, for the metric checks.
tiling::TilingModel paths_model() {
  spec::ProblemSpec s;
  s.name("paths")
      .params({"N"})
      .vars({"x", "y"})
      .constraint("x >= 0")
      .constraint("x <= N")
      .constraint("y >= 0")
      .constraint("y <= N")
      .dep("r1", {1, 0})
      .dep("r2", {0, 1})
      .load_balance({"x", "y"})
      .tile_widths({4, 4})
      .center_code("V[loc] = 0.0;");
  return tiling::TilingModel(s);
}

void paths_center(const engine::Cell& c) {
  double v = 0.0;
  int any = 0;
  if (c.valid[0]) { v += c.V[c.loc_dep[0]]; any = 1; }
  if (c.valid[1]) { v += c.V[c.loc_dep[1]]; any = 1; }
  c.V[c.loc] = any ? v : 1.0;
}

// The published comm.* and runtime.ready_queue_depth instruments describe
// exactly the run's own counters: message and byte totals, blocked sends,
// and the deepest ready queue of any rank.
TEST(ObsEndToEnd, CommMetricsEqualRankCounters) {
  tiling::TilingModel model = paths_model();
  engine::EngineOptions opt;
  opt.ranks = 2;
  opt.threads = 2;

  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  const char* names[] = {"comm.messages_sent", "comm.bytes_sent",
                         "comm.blocked_sends", "comm.messages_sent.to0",
                         "comm.messages_sent.to1", "comm.bytes_sent.to0",
                         "comm.bytes_sent.to1"};
  std::map<std::string, std::int64_t> before;
  for (const char* n : names) before[n] = reg.counter(n).value();
  obs::Histogram& sizes = reg.histogram("comm.message_bytes");
  const std::int64_t count0 = sizes.count(), sum0 = sizes.sum();
  obs::Gauge& depth = reg.gauge("runtime.ready_queue_depth");
  depth.reset();

  auto result = engine::run(model, {23}, paths_center, opt);
  auto delta = [&](const char* n) { return reg.counter(n).value() - before[n]; };

  // Untraced: no gather traffic, so the rank counters are the matrices'
  // row sums.
  std::int64_t messages = 0, bytes = 0, blocked = 0;
  long long peak = 0;
  for (const auto& st : result.rank_stats) {
    messages += static_cast<std::int64_t>(st.messages_sent);
    bytes += static_cast<std::int64_t>(st.bytes_sent);
    blocked += static_cast<std::int64_t>(st.blocked_sends);
    peak = std::max(peak, st.table.peak_ready_tiles);
  }
  EXPECT_GT(messages, 0) << "the run must exercise the remote-edge path";
  EXPECT_EQ(sizes.count() - count0, messages);
  EXPECT_EQ(sizes.sum() - sum0, bytes);
  EXPECT_EQ(delta("comm.messages_sent"), messages);
  EXPECT_EQ(delta("comm.bytes_sent"), bytes);
  EXPECT_EQ(delta("comm.messages_sent.to0") + delta("comm.messages_sent.to1"),
            messages);
  EXPECT_EQ(delta("comm.bytes_sent.to0") + delta("comm.bytes_sent.to1"),
            bytes);
  EXPECT_EQ(delta("comm.blocked_sends"), blocked);
  EXPECT_GT(peak, 0);
  EXPECT_EQ(depth.value(), 0);
  EXPECT_EQ(depth.max(), peak);
}

// After a checkpoint restart the comm.* counters cover the attempt that
// finished, like the report's comm matrix: the killed attempt's sends
// (rank 0 feeds rank 1 before rank 1's 12th data-plane event) are not
// counted, and the surviving single rank sends nothing.
TEST(ObsEndToEnd, CommMetricsCoverTheFinishedAttempt) {
  tiling::TilingModel model = paths_model();
  engine::EngineOptions opt;
  opt.ranks = 2;
  opt.threads = 2;
  opt.fault_plan = minimpi::FaultPlan::parse("kill:1@12");
  opt.obs.report = "-";

  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  const std::int64_t messages0 = reg.counter("comm.messages_sent").value();
  const std::int64_t bytes0 = reg.counter("comm.bytes_sent").value();

  auto result = engine::run(model, {63}, paths_center, opt);
  EXPECT_EQ(result.restarts, 1);
  ASSERT_TRUE(result.report.has_value());
  EXPECT_EQ(result.report->nranks, 1);
  EXPECT_EQ(reg.counter("comm.messages_sent").value() - messages0,
            static_cast<std::int64_t>(result.report->total_messages));
  EXPECT_EQ(reg.counter("comm.bytes_sent").value() - bytes0,
            static_cast<std::int64_t>(result.report->total_bytes));
}

// ---- session options ------------------------------------------------------

TEST(SessionOptions, ParseFlagAcceptsAllNineFlags) {
  obs::SessionOptions o;
  for (const char* flag :
       {"--trace=t.json", "--metrics=m.json", "--report=-",
        "--msgtrace=mt.json", "--monitor=ev.jsonl", "--monitor-interval=0.25",
        "--profile=p.json", "--profile-hz=1997", "--profile-cputime"})
    EXPECT_TRUE(o.parse_flag(flag)) << flag;
  EXPECT_EQ(o.trace, "t.json");
  EXPECT_EQ(o.metrics, "m.json");
  EXPECT_EQ(o.report, "-");
  EXPECT_EQ(o.msgtrace, "mt.json");
  EXPECT_EQ(o.monitor, "ev.jsonl");
  EXPECT_DOUBLE_EQ(o.monitor_interval, 0.25);
  EXPECT_EQ(o.profile, "p.json");
  EXPECT_DOUBLE_EQ(o.profile_hz, 1997.0);
  EXPECT_TRUE(o.profile_cputime);
  EXPECT_TRUE(o.tracing());
}

TEST(SessionOptions, ParseFlagRejectsBadValuesAndIgnoresOthers) {
  obs::SessionOptions o;
  for (const char* bad :
       {"--trace=", "--report=", "--monitor=", "--profile=",
        "--monitor-interval=0", "--monitor-interval=-1",
        "--monitor-interval=abc", "--monitor-interval=0.1s",
        "--monitor-interval=", "--profile-hz=0", "--profile-hz=abc",
        "--profile-hz=nan", "--profile-hz=inf"})
    EXPECT_THROW(o.parse_flag(bad), Error) << bad;
  // A rejected value leaves the setting at its default.
  EXPECT_DOUBLE_EQ(o.monitor_interval, 0.05);
  EXPECT_DOUBLE_EQ(o.profile_hz, 97.0);
  for (const char* other :
       {"--ranks=2", "--tracer=x", "--profile-cputime=1", "--monitoring",
        "trace=x", "-"})
    EXPECT_FALSE(o.parse_flag(other)) << other;
  EXPECT_FALSE(o.tracing());
}

TEST(SessionOptions, DashCollectsWithoutWriting) {
  // Every document path "-" runs its instrument without creating a file.
  spec::ProblemSpec s;
  s.name("countdown")
      .params({"N"})
      .vars({"x"})
      .constraint("x >= 0")
      .constraint("x <= N")
      .dep("r1", {1})
      .load_balance({"x"})
      .tile_widths({4})
      .center_code("V[loc] = 0.0;");
  tiling::TilingModel model(s);
  auto center = [](const engine::Cell& c) {
    c.V[c.loc] = c.valid[0] ? c.V[c.loc_dep[0]] + 1.0 : 1.0;
  };
  engine::EngineOptions opt;
  opt.ranks = 2;
  for (std::string* path : {&opt.obs.trace, &opt.obs.metrics,
                            &opt.obs.report, &opt.obs.msgtrace,
                            &opt.obs.monitor, &opt.obs.profile})
    *path = "-";
  std::remove("-");
  auto result = engine::run(model, {31}, center, opt);
  EXPECT_FALSE(std::ifstream("-").good()) << "engine wrote a file named -";
  EXPECT_TRUE(result.report.has_value());
  EXPECT_TRUE(result.profile.has_value());
}

}  // namespace
}  // namespace dpgen
