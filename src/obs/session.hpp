#pragma once
// One observability session for every front end.
//
// The engine, a generated program's main and the cluster simulator turn on
// the same instruments — span tracer, message tracer, live monitor,
// sampling profiler — from the same nine settings and write the same
// documents.  SessionOptions holds the settings and parses their flags;
// Session arms the process-wide instruments for one run, and finish()
// collects and writes every requested document.  The simulator
// synthesises its telemetry from DES time and hands it to the same
// writer.  Everywhere, a path of "-" means "collect, don't write".
//
// dpgen_obs knows nothing of minimpi or the runtime: the front end hands
// finish() the plain facts of the run (RunFacts).

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/monitor.hpp"
#include "obs/msgtrace.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "support/vec.hpp"

namespace dpgen::obs {

/// The observability settings of one run (docs/observability.md).  An
/// empty path leaves its instrument off.
struct SessionOptions {
  std::string trace;     ///< Chrome trace-event timeline
  std::string metrics;   ///< MetricsRegistry JSON dump
  std::string report;    ///< dpgen.report.v1 (implies tracing)
  std::string msgtrace;  ///< dpgen.msgtrace.v1
  std::string monitor;   ///< dpgen.events.v1 JSONL event log
  double monitor_interval = 0.05;  ///< monitor sampling period, seconds
  std::string profile;             ///< dpgen.profile.v1
  double profile_hz = 97.0;        ///< samples per second per thread
  bool profile_cputime = false;    ///< force the perf-free counters

  /// The flags parse_flag accepts, for a program's usage line.
  static constexpr const char* kUsage =
      "[--trace=FILE] [--metrics=FILE] [--report=FILE] [--msgtrace=FILE] "
      "[--monitor=FILE] [--monitor-interval=S] [--profile=FILE] "
      "[--profile-hz=N] [--profile-cputime]";

  /// Consumes one command-line argument: false when it is not one of the
  /// nine flags; dpgen::Error when it is one with a bad value (an empty
  /// path, or an interval or rate that is not a number > 0).
  bool parse_flag(const char* arg);

  bool tracing() const { return !trace.empty() || !report.empty(); }
};

/// Identity stamped into every document of the run.
struct RunIdentity {
  std::string source;  ///< "engine" | "generated" | "sim"
  std::string problem;
  IntVec params;
};

/// The plain facts of a finished run (its last attempt, after a restart).
struct RunFacts {
  int nranks = 0;
  std::vector<double> predicted_work;  ///< Ehrhart locations per rank
  std::vector<IntVec> edge_offsets;    ///< tile t depends on t + offset
  /// Per-peer traffic, [source][destination]: bytes, messages, and the
  /// data-plane sequence numbers each sender assigned.
  std::vector<std::vector<std::uint64_t>> bytes_matrix;
  std::vector<std::vector<std::uint64_t>> messages_matrix;
  std::vector<std::vector<std::uint64_t>> sent_matrix;
  long long table_duplicates = 0;  ///< edges the tile tables screened out
  long long fault_drops = 0;       ///< messages a fault plan dropped
  long long fault_dups = 0;        ///< ... and duplicated
  std::vector<std::string> passes;  ///< codegen passes live in the run
};

/// What the instruments collected: the writer's input, finish()'s result.
struct SessionResult {
  std::vector<Span> spans;  ///< consumed by the report when one is built
  std::uint64_t spans_dropped = 0;
  bool msg_traced = false;
  std::vector<MsgRecord> msg_records;
  std::uint64_t msg_records_dropped = 0;
  bool monitored = false;
  long long heartbeats = 0;
  long long stall_warnings = 0;
  std::vector<StragglerFlag> stragglers;
  std::optional<ProfileDoc> profile;
  std::optional<AnalysisReport> report;
};

/// Writes `text` to `path`; "" and "-" write nothing.  Throws dpgen::Error
/// on I/O failure.
void write_document(const std::string& path, const std::string& text);

/// Writes every document `opt` asks for, in the order profile, msgtrace,
/// trace, report, metrics, and builds out.report when a report is asked
/// for.
void write_documents(const SessionOptions& opt, const RunIdentity& id,
                     const RunFacts& facts, SessionResult& out);

/// The live monitor `opt` asks for (null when off).  The simulator drives
/// one from DES time (`sampler_thread` false: it calls tick()).
std::unique_ptr<Monitor> open_monitor(const SessionOptions& opt,
                                      const RunIdentity& id, int nranks,
                                      std::vector<double> predicted_work,
                                      bool append = false,
                                      bool sampler_thread = true);

/// A generated program's summary: straggler lines on stderr, then the
/// MONITOR / PROFILE / MSGTRACE lines of the instruments that ran.
void print_summary(const SessionResult& r);

/// Arms the instruments of one measured run.  A session destroyed without
/// finish() (the run threw) still disarms everything it armed.
class Session {
 public:
  /// Arms the tracer, message tracer and profiler `opt` asks for (from
  /// clean buffers).  nranks > 0 also begins the first attempt; the
  /// engine passes 0 and plans ownership under the armed tracer first.
  Session(const SessionOptions& opt, RunIdentity id, int nranks = 0,
          std::vector<double> predicted_work = {});
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Begins a run attempt (the first, or a checkpoint restart): opens its
  /// monitor — later attempts append to the same event log — and drops an
  /// aborted attempt's message records.  The profile spans all attempts.
  void restart(int nranks, std::vector<double> predicted_work);

  /// For runtime::RunOptions::monitor.
  Monitor* monitor() const { return monitor_.get(); }

  /// Disarms everything, collects what it recorded and writes the
  /// requested documents.
  SessionResult finish(const RunFacts& facts);

 private:
  void disarm(SessionResult* out);

  SessionOptions opt_;
  RunIdentity id_;
  bool armed_ = true;
  bool tracer_was_enabled_ = false;
  bool msg_tracer_was_enabled_ = false;
  std::unique_ptr<Monitor> monitor_;
};

}  // namespace dpgen::obs
