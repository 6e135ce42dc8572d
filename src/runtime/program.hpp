#pragma once
// The problem-independent half of every generated program (paper IV.C).
//
// The code generator emits only what depends on the problem (its tables,
// loop nests and the user's code) into one GeneratedProblem, and its
// main() is one call to program_main(), which owns the rest: the command
// line, the observability session, the partition, the ranks and the
// RESULT / MAX / STATS lines.  program_main and run_node are compiled into
// libdpgen_runtime for double and float (docs/codegen.md); other scalar
// types compile them from this header.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "minimpi/world.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "runtime/driver.hpp"
#include "runtime/order.hpp"
#include "runtime/partition.hpp"
#include "runtime/results.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

// Integer division and extrema of the emitted loop bounds
// (codegen/emit.hpp renders bounds with these names).
inline long long dp_floordiv(long long a, long long b) {
  long long q = a / b, r = a % b;
  if (r != 0 && ((r < 0) != (b < 0))) --q;
  return q;
}
inline long long dp_ceildiv(long long a, long long b) {
  long long q = a / b, r = a % b;
  if (r != 0 && ((r < 0) == (b < 0))) ++q;
  return q;
}
inline long long dp_min(long long a, long long b) { return a < b ? a : b; }
inline long long dp_max(long long a, long long b) { return a > b ? a : b; }

namespace dpgen::runtime {

/// Everything a generated program emits, for one scalar type S.  `P`
/// below is the parameter values, `t` a tile's indices.
template <typename S>
struct GeneratedProblem {
  // ---- tables, derived at generation time
  std::string name;
  std::vector<std::string> params;
  Int buffer_size;                   ///< scalars per tile buffer, with ghosts
  std::vector<IntVec> edge_offsets;  ///< t depends on t + offset
  IntVec edge_capacity;              ///< the most scalars each edge carries
  std::vector<int> dep_signs;
  std::vector<int> lb_dims;
  IntVec widths, strides, ghost_lo;  ///< tile widths, buffer layout
  std::vector<IntVec> probes;        ///< locations whose values print
  std::vector<std::string> passes;   ///< codegen passes baked in
  // ---- loop nests
  bool (*tile_exists)(const Int* P, const Int* t);
  Int (*tile_cells)(const Int* P, const Int* t);
  Int (*total_work)(const Int* P);
  /// Appends every load-balance cell in lb1-major order.
  void (*lb_cells)(const Int* P, std::vector<LbCell>& out);
  /// Appends every tile of the initial-tile face systems (duplicates and
  /// tiles outside the space included).
  void (*initial_candidates)(const Int* P, std::vector<IntVec>& out);
  void (*execute)(const Int* P, const Int* t, S* buffer);
  Int (*pack)(const Int* P, int edge, const Int* t, const S* buffer, S* out);
  void (*unpack)(const Int* P, int edge, const Int* t, const S* data,
                 S* buffer);
  /// Scans an executed tile for its maximum and merges it into `results`
  /// (null: no MAX line).
  void (*max_scan)(const Int* P, const Int* t, const S* buffer,
                   ResultSink& results);
  /// The user's init code, run once before the ranks start (may be null).
  void (*init)(const Int* P, int argc, char** argv);
};

/// ProblemHooks over a GeneratedProblem's loop nests.
template <typename S>
class GeneratedHooks final : public ProblemHooks<S> {
 public:
  GeneratedHooks(const GeneratedProblem<S>& problem, const IntVec& params,
                 const Partition& partition, ResultSink& results)
      : p_(problem), P_(params.data()), part_(partition), results_(results) {}

  int dim() const override { return static_cast<int>(p_.widths.size()); }
  Int buffer_size() const override { return p_.buffer_size; }
  int num_edges() const override {
    return static_cast<int>(p_.edge_offsets.size());
  }
  const IntVec& edge_offset(int e) const override {
    return p_.edge_offsets[static_cast<std::size_t>(e)];
  }
  Int edge_capacity(int e) const override {
    return p_.edge_capacity[static_cast<std::size_t>(e)];
  }
  bool tile_exists(const IntVec& t) const override {
    return p_.tile_exists(P_, t.data());
  }
  int dep_count(const IntVec& t) const override {
    thread_local IntVec dep;
    dep.resize(t.size());
    int n = 0;
    for (const IntVec& off : p_.edge_offsets) {
      for (std::size_t k = 0; k < t.size(); ++k) dep[k] = t[k] + off[k];
      if (p_.tile_exists(P_, dep.data())) ++n;
    }
    return n;
  }
  /// Initial tiles (paper IV.K): the face candidates in the space all of
  /// whose dependencies fall outside it, in coordinate order.
  void initial_tiles(std::vector<IntVec>& out) const override {
    std::vector<IntVec> candidates;
    p_.initial_candidates(P_, candidates);
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (IntVec& t : candidates)
      if (tile_exists(t) && dep_count(t) == 0) out.push_back(std::move(t));
  }
  int owner(const IntVec& t) const override { return part_.owner(t); }
  Int owned_tiles(int rank) const override {
    return part_.owned_tiles(rank);
  }
  Int tile_cells(const IntVec& t) const override {
    return p_.tile_cells(P_, t.data());
  }
  void execute_tile(const IntVec& t, S* buffer) override {
    p_.execute(P_, t.data(), buffer);
  }
  void on_tile_executed(const IntVec& t, const S* buffer) override {
    if (p_.max_scan) p_.max_scan(P_, t.data(), buffer, results_);
    results_.capture(t, buffer, [&](const IntVec& local) {
      Int idx = 0;
      for (std::size_t k = 0; k < local.size(); ++k)
        idx += p_.strides[k] * (local[k] + p_.ghost_lo[k]);
      return idx;
    });
  }
  Int pack(int e, const IntVec& t, const S* buffer, S* out) const override {
    return p_.pack(P_, e, t.data(), buffer, out);
  }
  void unpack(int e, const IntVec& t, const S* data, Int,
              S* buffer) const override {
    p_.unpack(P_, e, t.data(), data, buffer);
  }

 private:
  const GeneratedProblem<S>& p_;
  const Int* P_;
  const Partition& part_;
  ResultSink& results_;
};

/// A generated program's whole main(): parses the command line (the
/// parameters, then --ranks= --threads= --capacity= --policy=
/// and the observability flags; a bad one prints the usage line and
/// returns 2), runs the user's init code, cuts the partition, runs every
/// rank and prints the RESULT / MAX / STATS lines and the instruments'
/// summary.  Returns 1 when the run fails.
template <typename S>
int program_main(const GeneratedProblem<S>& p, int argc, char** argv) {
  const int nparams = static_cast<int>(p.params.size());
  IntVec params(p.params.size());
  int ranks = 1, threads = 1;
  long long capacity = 0;
  auto policy = PriorityPolicy::kColumnMajor;
  obs::SessionOptions obs_opt;
  try {
    if (argc < 1 + nparams) raise("missing parameters");
    for (int i = 0; i < nparams; ++i) {
      long long v = 0;
      if (!parse_int(argv[1 + i], &v))
        raise(cat("bad parameter '", argv[1 + i], "' (expected an integer)"));
      params[static_cast<std::size_t>(i)] = v;
    }
    for (int i = 1 + nparams; i < argc; ++i) {
      const char* arg = argv[i];
      if (int_flag(arg, "--ranks=", 1, &ranks) ||
          int_flag(arg, "--threads=", 1, &threads) ||
          int_flag(arg, "--capacity=", 0, &capacity) ||
          obs_opt.parse_flag(arg))
        continue;
      if (std::strcmp(arg, "--policy=level") == 0)
        policy = PriorityPolicy::kLevelSet;
      else if (std::strcmp(arg, "--policy=column") == 0)
        policy = PriorityPolicy::kColumnMajor;
      else
        raise(cat("unknown option ", arg));
    }
  } catch (const Error& e) {
    std::string usage;
    for (const std::string& name : p.params) usage += " <" + name + ">";
    std::fprintf(stderr,
                 "%s\nusage: %s%s [--ranks=R] [--threads=T] [--capacity=C] "
                 "[--policy=column|level] %s\n",
                 e.what(), argv[0], usage.c_str(),
                 obs::SessionOptions::kUsage);
    return 2;
  }
  if (p.init) p.init(params.data(), argc, argv);

  try {
    obs::Session session(obs_opt, {"generated", p.name, params});
    const Partition partition = [&] {
      obs::ScopedSpan span(obs::Phase::kLoadBalance);
      std::vector<LbCell> cells;
      p.lb_cells(params.data(), cells);
      return Partition(p.lb_dims, cells, ranks);
    }();
    session.restart(ranks, partition.predicted_work());

    ResultSink results(p.probes, p.widths);
    RunOptions opt;
    opt.threads = threads;
    opt.order = TileOrder(p.lb_dims, p.dep_signs, policy);
    opt.monitor = session.monitor();
    minimpi::World world(ranks, static_cast<std::size_t>(capacity));
    std::vector<RunStats> stats(static_cast<std::size_t>(ranks));
    world.run([&](minimpi::Comm& comm) {
      GeneratedHooks<S> hooks(p, params, partition, results);
      stats[static_cast<std::size_t>(comm.rank())] =
          run_node<S>(hooks, comm, opt);
    });

    results.print(stdout);
    long long tiles = 0, remote = 0, peak_edges = 0;
    unsigned long long bytes = 0;
    double init_scan = 0.0;
    for (const RunStats& s : stats) {
      tiles += s.tiles_executed;
      remote += s.remote_edges;
      bytes += s.bytes_sent;
      peak_edges = std::max<long long>(peak_edges, s.table.peak_buffered_edges);
      init_scan = std::max(init_scan, s.init_scan_seconds);
    }
    std::printf("STATS tiles=%lld total_work=%lld remote_edges=%lld "
                "bytes=%llu peak_edges=%lld init_scan_s=%.6f\n",
                tiles, static_cast<long long>(p.total_work(params.data())),
                remote, bytes, peak_edges, init_scan);

    obs::RunFacts facts = run_facts(world, stats);
    facts.predicted_work = partition.predicted_work();
    facts.edge_offsets = p.edge_offsets;
    facts.passes = p.passes;
    obs::print_summary(session.finish(facts));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dpgen: error: %s\n", e.what());
    return 1;
  }
  return 0;
}

extern template int program_main<double>(const GeneratedProblem<double>&,
                                         int, char**);
extern template int program_main<float>(const GeneratedProblem<float>&, int,
                                        char**);

}  // namespace dpgen::runtime
