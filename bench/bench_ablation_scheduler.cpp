// ABL — ablations of the runtime design choices on real (engine) runs:
//   * priority policy (paper Fig. 4/5): column-major vs level-set edge
//     memory on the actual scheduler, not the simulator;
//   * worker threads sharing one rank's tile table (paper VII.C asks
//     whether the shared structures contend);
//   * bounded send/receive buffers (paper V: "the number of send and
//     receive buffers ... adjustable"): how small budgets trade blocked
//     sends for memory.

#include "bench_util.hpp"

#include "engine/engine.hpp"

namespace {

using namespace dpgen;
using namespace dpgen::benchutil;

/// One engine run for the registered ablation points; returns the rank-0
/// wall seconds plus scheduler counters.
obs::BenchSample ablation_sample(const engine::EngineOptions& base) {
  problems::Problem p = problems::bandit2(4);
  tiling::TilingModel model(p.spec);
  engine::EngineOptions opt = base;
  opt.probes = {p.objective};
  auto result = engine::run(model, {28}, p.kernel, opt);
  obs::BenchSample s;
  long long blocked = 0;
  for (const auto& rs : result.rank_stats) {
    s.seconds = std::max(s.seconds, rs.total_seconds);
    blocked += static_cast<long long>(rs.blocked_sends);
  }
  s.metrics = {
      {"tiles",
       static_cast<double>(result.total(&runtime::RunStats::tiles_executed))},
      {"blocked_sends", static_cast<double>(blocked)}};
  return s;
}

[[maybe_unused]] const bool registered = [] {
  register_bench("ablation/threads2", [] {
    engine::EngineOptions opt;
    opt.threads = 2;
    return ablation_sample(opt);
  });
  register_bench("ablation/mailbox_cap1_r2", [] {
    engine::EngineOptions opt;
    opt.ranks = 2;
    opt.mailbox_capacity = 1;
    return ablation_sample(opt);
  });
  return true;
}();

#ifdef DPGEN_BENCH_STANDALONE

void policy_table() {
  header("ABL-POLICY",
         "engine runs: peak buffered edges under each priority policy");
  std::printf("%-10s %-8s %-12s %-14s %-12s\n", "problem", "N", "policy",
              "peak_edges", "seconds");
  problems::Problem p = problems::bandit2(4);
  tiling::TilingModel model(p.spec);
  for (auto policy : {runtime::PriorityPolicy::kColumnMajor,
                      runtime::PriorityPolicy::kLevelSet}) {
    engine::EngineOptions opt;
    opt.policy = policy;
    opt.probes = {p.objective};
    auto result = engine::run(model, {32}, p.kernel, opt);
    const auto& s = result.rank_stats[0];
    std::printf("%-10s %-8d %-12s %-14lld %-12.4f\n", "bandit2", 32,
                policy == runtime::PriorityPolicy::kColumnMajor ? "column"
                                                                : "levelset",
                s.table.peak_buffered_edges, s.total_seconds);
  }
  std::printf("\n");
}

void threads_table() {
  header("ABL-THREADS",
         "worker threads on one rank's shared tile table vs wall time");
  std::printf("%-10s %-8s %-8s %-10s %-12s %-12s\n", "problem", "threads",
              "stripes", "seconds", "tiles", "peak_edges");
  problems::Problem p = problems::bandit2(4);
  tiling::TilingModel model(p.spec);
  for (int threads : {1, 2, 4}) {
    engine::EngineOptions opt;
    opt.threads = threads;
    opt.probes = {p.objective};
    auto result = engine::run(model, {28}, p.kernel, opt);
    std::printf("%-10s %-8d %-8zu %-10.4f %-12lld %-12lld\n", "bandit2",
                threads, runtime::TileTable<double>::stripes_for(threads),
                result.rank_stats[0].total_seconds,
                result.total(&runtime::RunStats::tiles_executed),
                result.rank_stats[0].table.peak_buffered_edges);
  }
  std::printf("\n");
}

void capacity_table() {
  header("ABL-BUFFERS",
         "bounded message buffers: blocked sends vs mailbox capacity");
  std::printf("%-10s %-10s %-14s %-14s\n", "problem", "capacity",
              "blocked_sends", "remote_edges");
  problems::Problem p = problems::bandit2(3);
  tiling::TilingModel model(p.spec);
  for (std::size_t cap : {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
    engine::EngineOptions opt;
    opt.ranks = 4;
    opt.threads = 2;
    opt.mailbox_capacity = cap;
    opt.probes = {p.objective};
    auto result = engine::run(model, {24}, p.kernel, opt);
    long long blocked = 0, remote = 0;
    for (const auto& s : result.rank_stats) {
      blocked += static_cast<long long>(s.blocked_sends);
      remote += s.remote_edges;
    }
    std::printf("%-10s %-10zu %-14lld %-14lld\n", "bandit2", cap, blocked,
                remote);
  }
  std::printf("\n");
}

void BM_EnginePolicy(benchmark::State& state) {
  problems::Problem p = problems::bandit2(4);
  tiling::TilingModel model(p.spec);
  engine::EngineOptions opt;
  opt.policy = state.range(0) ? runtime::PriorityPolicy::kLevelSet
                              : runtime::PriorityPolicy::kColumnMajor;
  opt.probes = {p.objective};
  for (auto _ : state) {
    auto r = engine::run(model, {20}, p.kernel, opt);
    benchmark::DoNotOptimize(r.values.size());
  }
}
BENCHMARK(BM_EnginePolicy)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

#endif  // DPGEN_BENCH_STANDALONE

}  // namespace

#ifdef DPGEN_BENCH_STANDALONE
int main(int argc, char** argv) {
  policy_table();
  threads_table();
  capacity_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
#endif
