#include "obs/session.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace dpgen::obs {

namespace {

/// True when `path` names a file: "" leaves the document off, "-" collects.
bool writes(const std::string& path) { return !path.empty() && path != "-"; }

}  // namespace

bool SessionOptions::parse_flag(const char* arg) {
  const struct {
    const char* name;
    std::string* path;
  } paths[] = {{"--trace=", &trace},     {"--metrics=", &metrics},
               {"--report=", &report},   {"--msgtrace=", &msgtrace},
               {"--monitor=", &monitor}, {"--profile=", &profile}};
  for (const auto& p : paths) {
    const std::size_t n = std::strlen(p.name);
    if (std::strncmp(arg, p.name, n) != 0) continue;
    DPGEN_CHECK(arg[n] != '\0', cat("bad value '' for ", p.name,
                                    " (expected a file path, or - to "
                                    "collect without writing)"));
    *p.path = arg + n;
    return true;
  }
  if (std::strcmp(arg, "--profile-cputime") == 0)
    return profile_cputime = true;
  return positive_flag(arg, "--monitor-interval=", &monitor_interval) ||
         positive_flag(arg, "--profile-hz=", &profile_hz);
}

void write_document(const std::string& path, const std::string& text) {
  if (!writes(path)) return;
  std::ofstream out(path);
  DPGEN_CHECK(out.good(), cat("cannot open '", path, "' for writing"));
  out << text;
  DPGEN_CHECK(out.good(), cat("error writing '", path, "'"));
}

void write_documents(const SessionOptions& opt, const RunIdentity& id,
                     const RunFacts& facts, SessionResult& out) {
  if (out.profile)
    write_document(opt.profile, profile_json(*out.profile) + "\n");
  if (writes(opt.msgtrace)) {
    MsgTraceInput in;
    in.records = out.msg_records;
    in.nranks = facts.nranks;
    in.sent_matrix = facts.sent_matrix;
    in.records_dropped = out.msg_records_dropped;
    in.expected_drops = facts.fault_drops;
    in.expected_dups = facts.fault_dups;
    in.table_duplicates = facts.table_duplicates;
    in.source = id.source;
    in.problem = id.problem;
    in.params = id.params;
    write_document(opt.msgtrace, msgtrace_json(in) + "\n");
  }
  if (writes(opt.trace))
    write_document(opt.trace, chrome_trace_json(out.spans, out.spans_dropped,
                                                out.msg_records));
  if (!opt.report.empty()) {
    AnalysisInput in;
    in.spans = std::move(out.spans);
    in.nranks = facts.nranks;
    in.edge_offsets = facts.edge_offsets;
    in.predicted_work = facts.predicted_work;
    in.bytes_matrix = facts.bytes_matrix;
    in.messages_matrix = facts.messages_matrix;
    in.spans_dropped = out.spans_dropped;
    in.source = id.source;
    in.problem = id.problem;
    in.params = id.params;
    in.passes = facts.passes;
    in.msg_records = out.msg_records;
    in.msg_records_dropped = out.msg_records_dropped;
    out.report = analyze(in);
    write_document(opt.report, report_json(*out.report));
  }
  if (writes(opt.metrics))
    write_document(opt.metrics, MetricsRegistry::instance().to_json());
}

std::unique_ptr<Monitor> open_monitor(const SessionOptions& opt,
                                      const RunIdentity& id, int nranks,
                                      std::vector<double> predicted_work,
                                      bool append, bool sampler_thread) {
  if (opt.monitor.empty()) return nullptr;
  MonitorOptions mopt;
  mopt.nranks = nranks;
  mopt.interval_s = opt.monitor_interval;
  if (writes(opt.monitor)) mopt.events_path = opt.monitor;
  mopt.predicted_work = std::move(predicted_work);
  mopt.sampler_thread = sampler_thread;
  mopt.source = id.source;
  mopt.problem = id.problem;
  mopt.append = append;
  return std::make_unique<Monitor>(std::move(mopt));
}

void print_summary(const SessionResult& r) {
  if (r.monitored) {
    for (const StragglerFlag& f : r.stragglers)
      std::fprintf(stderr,
                   "dpgen: straggler: rank %d pace=%.4g median=%.4g "
                   "lag=%.0f%%\n",
                   f.rank, f.pace, f.median_pace, f.lag * 100.0);
    std::printf("MONITOR heartbeats=%lld stragglers=%lld "
                "stall_warnings=%lld\n",
                r.heartbeats, static_cast<long long>(r.stragglers.size()),
                r.stall_warnings);
  }
  if (r.profile)
    std::printf("PROFILE samples=%lld untraced=%lld dropped=%lld "
                "counters=%s threads=%lld\n",
                r.profile->samples_total, r.profile->samples_untraced,
                r.profile->samples_dropped, r.profile->counters.c_str(),
                static_cast<long long>(r.profile->threads.size()));
  if (r.msg_traced)
    std::printf("MSGTRACE records=%lld dropped=%llu\n",
                static_cast<long long>(r.msg_records.size()),
                static_cast<unsigned long long>(r.msg_records_dropped));
}

Session::Session(const SessionOptions& opt, RunIdentity id, int nranks,
                 std::vector<double> predicted_work)
    : opt_(opt), id_(std::move(id)) {
  // The profiler first: its start is the one that can throw (a run is
  // already active), and nothing else is armed yet.
  if (!opt_.profile.empty()) {
    ProfileOptions popt;
    popt.hz = opt_.profile_hz;
    popt.force_cputime = opt_.profile_cputime;
    popt.source = id_.source;
    popt.problem = id_.problem;
    popt.params = id_.params;
    Profiler::instance().start(popt);
  }
  tracer_was_enabled_ = Tracer::instance().enabled();
  if (opt_.tracing()) {
    Tracer::instance().clear();
    Tracer::instance().set_enabled(true);
  }
  msg_tracer_was_enabled_ = MsgTracer::instance().enabled();
  if (!opt_.msgtrace.empty()) {
    MsgTracer::instance().clear();
    MsgTracer::instance().set_enabled(true);
  }
  if (nranks > 0) restart(nranks, std::move(predicted_work));
}

Session::~Session() {
  if (armed_) disarm(nullptr);
}

void Session::restart(int nranks, std::vector<double> predicted_work) {
  const bool append = monitor_ != nullptr;
  monitor_.reset();  // the last attempt's run_end precedes the next start
  monitor_ =
      open_monitor(opt_, id_, nranks, std::move(predicted_work), append);
  // Each attempt restarts the per-link sequence numbers.
  if (!opt_.msgtrace.empty()) MsgTracer::instance().clear();
}

void Session::disarm(SessionResult* out) {
  armed_ = false;
  SessionResult ignored;
  SessionResult& r = out ? *out : ignored;
  if (monitor_) {
    monitor_->stop();
    r.monitored = true;
    r.heartbeats = monitor_->heartbeats();
    r.stall_warnings = monitor_->stall_warnings();
    r.stragglers = monitor_->stragglers();
  }
  if (!opt_.profile.empty() && Profiler::instance().active())
    r.profile = Profiler::instance().stop();
  // run_node gathered every rank's records and spans to the gather root.
  if (!opt_.msgtrace.empty()) {
    r.msg_traced = true;
    r.msg_records = MsgTracer::instance().merged();
    r.msg_records_dropped = MsgTracer::instance().dropped();
    MsgTracer::instance().set_enabled(msg_tracer_was_enabled_);
  }
  if (opt_.tracing()) {
    // The setup spans recorded before the world started ride along under
    // rank -1.
    r.spans = Tracer::instance().merged();
    for (const Span& s : Tracer::instance().collect_rank(-1))
      r.spans.push_back(s);
    r.spans_dropped = Tracer::instance().dropped();
    Tracer::instance().set_enabled(tracer_was_enabled_);
  }
}

SessionResult Session::finish(const RunFacts& facts) {
  DPGEN_CHECK(armed_, "obs::Session::finish called twice");
  SessionResult out;
  disarm(&out);
  if (out.profile) {
    out.profile->nranks = facts.nranks;
    // The cost table's predicted column: the fleet that finished the run.
    double predicted = 0.0;
    for (double w : facts.predicted_work) predicted += w;
    if (!out.profile->families.empty())
      out.profile->families[0].predicted_cells = predicted;
  }
  write_documents(opt_, id_, facts, out);
  return out;
}

}  // namespace dpgen::obs
