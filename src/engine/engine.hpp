#pragma once
// Direct (interpreted) execution of a ProblemSpec.
//
// The engine runs any problem end-to-end through the exact same machinery a
// generated program uses — TilingModel geometry, LoadBalancer ownership,
// the runtime tile scheduler and the minimpi message layer — but with the
// center loop supplied as a C++ callable instead of emitted source.  Tests,
// benchmarks and examples use it to execute problems without invoking a
// compiler; the code generator's output is validated against it.

#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "minimpi/faults.hpp"
#include "obs/session.hpp"
#include "runtime/driver.hpp"
#include "tiling/balance.hpp"
#include "tiling/model.hpp"

namespace dpgen::engine {

/// Everything a center-loop kernel may touch for the current location,
/// mirroring the symbols the paper gives generated center code (IV.B):
/// V[loc], V[loc_r1...], is_valid_r1..., the original loop variables and
/// the input parameters.
struct Cell {
  double* V = nullptr;        ///< tile buffer base ("state array")
  Int loc = 0;                ///< index of the current location
  const Int* loc_dep = nullptr;          ///< per-dependency indices (loc_rj)
  const unsigned char* valid = nullptr;  ///< per-dependency validity flags
  const Int* x = nullptr;      ///< original loop variable values (d of them)
  const Int* params = nullptr; ///< input parameter values
  /// Optional decision slot: write the chosen action here to feed a
  /// DecisionLog (always a valid pointer; ignored unless a log is
  /// attached).
  unsigned char* decision = nullptr;
};

/// The center-loop body: called once per location, in a valid order.
/// Must be thread-safe (multiple tiles execute concurrently).
using CenterFn = std::function<void(const Cell&)>;

/// Captures every packed edge delivered during a run, keyed by the
/// consuming tile — the storage the paper's solution-recovery scheme
/// (section VII.A) needs: "the edges of the tiles could be saved, and
/// needed tiles recalculated on the fly during the traceback".
struct EdgeStore {
  std::mutex mu;
  std::unordered_map<IntVec, std::vector<runtime::EdgeData<double>>,
                     IntVecHash>
      by_consumer;
};

struct EngineOptions {
  int ranks = 1;    ///< message-passing ranks (MPI processes in the paper)
  int threads = 1;  ///< worker threads per rank (OpenMP threads)
  runtime::PriorityPolicy policy = runtime::PriorityPolicy::kColumnMajor;
  tiling::BalanceMethod balance = tiling::BalanceMethod::kPerDimension;
  std::size_t mailbox_capacity = 0;  ///< 0 = unbounded receive buffers
  bool poison_buffers = false;
  double stall_timeout_seconds = 120.0;
  /// Record the value of every location (small problems / oracle tests).
  bool record_all = false;
  /// Specific locations to record (global coordinates).
  std::vector<IntVec> probes;
  /// When set, every delivered tile edge is also copied here (enables
  /// post-run solution recovery; see engine/recovery.hpp).
  EdgeStore* edge_store = nullptr;
  /// Called after each tile finishes executing (under no lock; must be
  /// thread-safe).  Used by tests to observe the actual schedule.
  std::function<void(const IntVec& tile)> on_tile_executed;
  /// When set, per-cell decisions written through Cell::decision are
  /// stored run-length encoded (paper VII.A's decision matrix).
  class DecisionLog* decision_log = nullptr;
  /// Track the maximum value over ALL locations (and its lexicographically
  /// smallest location) — the objective shape of local-alignment style
  /// DPs, where the answer is max over the whole space rather than f(0).
  bool track_max = false;
  /// Observability for this run — trace, metrics, report, message trace,
  /// live monitor, profile (obs/session.hpp, docs/observability.md).  "-"
  /// collects without writing: the report, profile and stragglers still
  /// land in EngineResult.  After a checkpoint restart the report and the
  /// message trace cover the attempt that finished; the event log and the
  /// profile cover every attempt.
  obs::SessionOptions obs;
  /// Deterministic fault injection: when set, the first attempt's transport
  /// is wrapped in a minimpi::FaultInjector replaying this plan (restarts
  /// run fault-free, so a killed rank cannot be killed again forever).
  /// Implies fault_tolerant.
  std::optional<minimpi::FaultPlan> fault_plan;
  /// Enable checkpoint/restart recovery: every tile completion is logged
  /// to an in-memory CheckpointStore, and a TransportFailure restarts the
  /// run over the surviving ranks — ownership re-assigned by re-running
  /// the Ehrhart LoadBalancer — instead of propagating.  Already-executed
  /// tiles are credited from the checkpoint, their outbound edges
  /// re-delivered from the edge log (see runtime/checkpoint.hpp).
  bool fault_tolerant = false;
  /// Restart attempts allowed before the failure propagates after all.
  int max_restarts = 4;
  /// Fault-tolerant runs only: a rank that makes no progress for this many
  /// seconds declares a transport failure and triggers a checkpoint
  /// restart (recovers dropped messages).  0 = never.  Keep this well
  /// under stall_timeout_seconds, which still aborts the whole run.
  double recover_stall_seconds = 0.0;
  /// When non-empty, the checkpoint store is flushed here as
  /// dpgen.checkpoint.v1 JSON (tools/checkpoint_schema.json) every
  /// checkpoint_every_tiles tile completions, at every restart, and once
  /// more after the run succeeds.
  std::string checkpoint_json_path;
  long long checkpoint_every_tiles = 64;
  /// When non-empty, seed the checkpoint store from this
  /// dpgen.checkpoint.v1 file before running — resume an earlier run of
  /// the same problem/params.
  std::string resume_checkpoint_path;
};

struct EngineResult {
  /// Recorded values keyed by global coordinate.
  std::unordered_map<IntVec, double, IntVecHash> values;
  /// Per-rank runtime statistics.
  std::vector<runtime::RunStats> rank_stats;
  /// Filled when EngineOptions::track_max is set: the maximum value over
  /// every location and its (lex-smallest) coordinates.
  double max_value = 0.0;
  IntVec max_point;
  /// Filled when EngineOptions::obs.report is set: the analyzed
  /// performance report for this run.
  std::optional<obs::AnalysisReport> report;
  /// Filled when EngineOptions::obs.monitor is set: ranks the online
  /// detector flagged as stragglers (empty on a balanced run).
  std::vector<obs::StragglerFlag> stragglers;
  /// Fault-tolerance outcome: restart attempts actually taken, the ranks
  /// that died (in failure order), and the injector's tally when a fault
  /// plan was supplied.  All zero/empty on a clean run.
  int restarts = 0;
  std::vector<int> failed_ranks;
  minimpi::FaultStats fault_stats;
  /// Filled when EngineOptions::obs.profile is set: the aggregated
  /// sampling-profile / cost-model document for this run.
  std::optional<obs::ProfileDoc> profile;

  /// Value at a recorded location; throws when it was not recorded.
  double at(const IntVec& point) const;

  /// Sums a statistic across ranks.
  long long total(long long runtime::RunStats::* field) const;
};

/// Runs the problem for the given parameter values and returns recorded
/// values plus statistics.  The model must outlive the call.
EngineResult run(const tiling::TilingModel& model, const IntVec& params,
                 const CenterFn& center, const EngineOptions& options = {});

}  // namespace dpgen::engine
