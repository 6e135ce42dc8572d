#include "obs/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "support/error.hpp"
#include "support/str.hpp"

namespace dpgen::obs {

namespace {

constexpr double kNsPerSec = 1e9;

/// Gap attribution resolves nested spans by priority: when two spans
/// cover the same instant on one track, the more specific cause wins —
/// pack inside send counts as pack, the poll loop inside a blocked send
/// counts as blocked_send, polls inside an idle stretch count as idle.
constexpr Phase kAttributionOrder[] = {
    Phase::kTileExecute, Phase::kPack,    Phase::kUnpack,
    Phase::kBlockedSend, Phase::kIdle,    Phase::kSend,
    Phase::kPoll,        Phase::kBarrier, Phase::kInitScan,
    Phase::kLoadBalance, Phase::kGather,
};

double* bucket_of(PhaseBreakdown& b, Phase p) {
  switch (p) {
    case Phase::kTileExecute: return &b.compute;
    case Phase::kUnpack: return &b.unpack;
    case Phase::kPack: return &b.pack;
    case Phase::kSend: return &b.send;
    case Phase::kBlockedSend: return &b.blocked_send;
    case Phase::kPoll: return &b.poll;
    case Phase::kIdle: return &b.idle;
    case Phase::kBarrier: return &b.barrier;
    default: return &b.other;
  }
}

struct Interval {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

/// Per-phase sorted, (near) non-overlapping intervals of one rank/thread
/// track.
struct Track {
  int rank = 0;
  int thread = 0;
  bool seen = false;
  std::int64_t first_start = 0;
  std::int64_t last_end = 0;
  std::vector<Interval> by_phase[static_cast<int>(Phase::kPhaseCount)];
};

/// Covers `uncovered` with `spans` (sorted by lo): moves the overlapped
/// nanoseconds into *covered_ns and returns the still-uncovered rest.
std::vector<Interval> subtract_covered(const std::vector<Interval>& spans,
                                       std::vector<Interval> uncovered,
                                       std::int64_t* covered_ns) {
  if (spans.empty() || uncovered.empty()) return uncovered;
  std::vector<Interval> rest;
  rest.reserve(uncovered.size());
  for (const Interval& u : uncovered) {
    auto it = std::lower_bound(
        spans.begin(), spans.end(), u.lo,
        [](const Interval& s, std::int64_t lo) { return s.lo < lo; });
    if (it != spans.begin() && std::prev(it)->hi > u.lo) --it;
    std::int64_t cur = u.lo;
    for (; it != spans.end() && it->lo < u.hi; ++it) {
      std::int64_t s = std::max(cur, it->lo);
      std::int64_t e = std::min(u.hi, it->hi);
      if (e <= s) continue;
      if (s > cur) rest.push_back({cur, s});
      *covered_ns += e - s;
      cur = e;
    }
    if (cur < u.hi) rest.push_back({cur, u.hi});
  }
  return rest;
}

/// Attributes the window [lo, hi) of `track` across the phase buckets;
/// whatever no span covers lands in `other`, so the buckets gain exactly
/// hi - lo seconds in total.
void attribute_window(const Track& track, std::int64_t lo, std::int64_t hi,
                      PhaseBreakdown* out) {
  if (hi <= lo) return;
  std::vector<Interval> uncovered{{lo, hi}};
  for (Phase p : kAttributionOrder) {
    std::int64_t covered = 0;
    uncovered = subtract_covered(track.by_phase[static_cast<int>(p)],
                                 std::move(uncovered), &covered);
    *bucket_of(*out, p) += static_cast<double>(covered) / kNsPerSec;
    if (uncovered.empty()) break;
  }
  for (const Interval& u : uncovered)
    out->other += static_cast<double>(u.hi - u.lo) / kNsPerSec;
}

IntVec span_tile(const Span& s) {
  IntVec t(static_cast<std::size_t>(s.ncoord));
  for (int k = 0; k < s.ncoord; ++k)
    t[static_cast<std::size_t>(k)] =
        static_cast<Int>(s.coord[static_cast<std::size_t>(k)]);
  return t;
}

/// Finite-checked double for JSON output (NaN/inf are not valid JSON).
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string json_vec(const IntVec& v) {
  std::string out = "[";
  for (std::size_t k = 0; k < v.size(); ++k)
    out += cat(k ? "," : "", v[k]);
  return out + "]";
}

std::string json_matrix(const std::vector<std::vector<std::uint64_t>>& m) {
  std::string out = "[";
  for (std::size_t r = 0; r < m.size(); ++r) {
    out += cat(r ? "," : "", "[");
    for (std::size_t c = 0; c < m[r].size(); ++c)
      out += cat(c ? "," : "", m[r][c]);
    out += "]";
  }
  return out + "]";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += cat("\\", c);
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out + "\"";
}

std::string json_breakdown(const PhaseBreakdown& b) {
  return cat("{\"compute\":", num(b.compute), ",\"unpack\":", num(b.unpack),
             ",\"pack\":", num(b.pack), ",\"send\":", num(b.send),
             ",\"blocked_send\":", num(b.blocked_send),
             ",\"poll\":", num(b.poll), ",\"idle\":", num(b.idle),
             ",\"barrier\":", num(b.barrier), ",\"other\":", num(b.other),
             "}");
}

std::string pct(double part, double whole) {
  return whole > 0 ? cat(num(100.0 * part / whole), "%") : "-";
}

}  // namespace

PhaseBreakdown& PhaseBreakdown::operator+=(const PhaseBreakdown& o) {
  compute += o.compute;
  unpack += o.unpack;
  pack += o.pack;
  send += o.send;
  blocked_send += o.blocked_send;
  poll += o.poll;
  idle += o.idle;
  barrier += o.barrier;
  other += o.other;
  return *this;
}

AnalysisReport analyze(const AnalysisInput& input) {
  AnalysisReport report;
  report.source = input.source;
  report.problem = input.problem;
  report.params = input.params;
  report.passes = input.passes;
  report.spans_dropped = input.spans_dropped;
  if (input.spans_dropped > 0)
    report.warnings.push_back(
        cat(input.spans_dropped,
            " spans were dropped (ring-buffer overflow): the timeline is "
            "incomplete and every attribution below is biased"));

  // ---- index the spans: per-track phase intervals + executed tiles ------
  std::map<std::pair<int, int>, Track> tracks;
  std::unordered_map<IntVec, std::size_t, IntVecHash> exec_by_tile;
  std::vector<const Span*> exec_spans;
  int max_rank = -1;
  bool have_window = false;
  std::int64_t run_start = 0;
  for (const Span& s : input.spans) {
    max_rank = std::max(max_rank, static_cast<int>(s.rank));
    if (s.rank < 0) continue;  // setup spans sit outside the run window
    if (!have_window || s.start_ns < run_start) run_start = s.start_ns;
    have_window = true;
    Track& track = tracks[{s.rank, s.thread}];
    if (!track.seen) {
      track.seen = true;
      track.rank = s.rank;
      track.thread = s.thread;
      track.first_start = s.start_ns;
      track.last_end = s.end_ns;
    }
    track.first_start = std::min(track.first_start, s.start_ns);
    track.last_end = std::max(track.last_end, s.end_ns);
    track.by_phase[static_cast<int>(s.phase)].push_back(
        {s.start_ns, s.end_ns});
    if (s.phase == Phase::kTileExecute) {
      exec_spans.push_back(&s);
      auto [it, inserted] =
          exec_by_tile.emplace(span_tile(s), exec_spans.size() - 1);
      // A tile executes once per run; on duplicates keep the later finish
      // (re-ingested traces may carry stale runs).
      if (!inserted && s.end_ns > exec_spans[it->second]->end_ns)
        it->second = exec_spans.size() - 1;
    }
  }
  for (auto& [key, track] : tracks)
    for (auto& phase_spans : track.by_phase)
      std::sort(phase_spans.begin(), phase_spans.end(),
                [](const Interval& a, const Interval& b) {
                  return a.lo < b.lo;
                });

  report.nranks = input.nranks > 0 ? input.nranks : max_rank + 1;
  if (report.nranks <= 0) {
    report.warnings.push_back("no in-rank spans: nothing to analyze");
    return report;
  }

  // ---- (1) critical path ------------------------------------------------
  if (!exec_spans.empty()) {
    const Span* terminal = exec_spans.front();
    for (const Span* s : exec_spans)
      if (s->end_ns > terminal->end_ns) terminal = s;
    report.makespan_s =
        static_cast<double>(terminal->end_ns - run_start) / kNsPerSec;

    // Offsets are applied in span-coordinate space; spans truncate tile
    // coordinates past kMaxSpanDims, in which case the reconstruction is
    // best-effort.
    const std::size_t span_dim = span_tile(*terminal).size();
    std::vector<IntVec> offsets;
    bool truncated = false;
    for (const IntVec& off : input.edge_offsets) {
      if (off.size() < span_dim) continue;
      offsets.emplace_back(off.begin(),
                           off.begin() + static_cast<std::ptrdiff_t>(span_dim));
      truncated = truncated || off.size() > span_dim;
    }
    if (truncated)
      report.warnings.push_back(
          "tile coordinates were truncated in the trace; the critical "
          "path is reconstructed from the leading dimensions only");
    if (offsets.empty() && !exec_spans.empty() &&
        input.edge_offsets.empty())
      report.warnings.push_back(
          "no tile-dependency offsets supplied: the critical path "
          "degenerates to the last-finishing tile");

    std::vector<const Span*> path_rev{terminal};
    std::unordered_set<IntVec, IntVecHash> visited{span_tile(*terminal)};
    IntVec cur = span_tile(*terminal);
    while (true) {
      const Span* best = nullptr;
      IntVec best_tile;
      for (const IntVec& off : offsets) {
        IntVec pred = vec_add(cur, off);
        auto it = exec_by_tile.find(pred);
        if (it == exec_by_tile.end() || visited.count(pred)) continue;
        const Span* cand = exec_spans[it->second];
        if (!best || cand->end_ns > best->end_ns) {
          best = cand;
          best_tile = pred;
        }
      }
      if (!best) break;
      path_rev.push_back(best);
      visited.insert(best_tile);
      cur = std::move(best_tile);
    }
    std::reverse(path_rev.begin(), path_rev.end());

    // Attribute [run_start, terminal end): each step contributes its
    // execute time plus the attributed gap before it, so the buckets sum
    // to the makespan exactly (negative gaps from clock anomalies clamp).
    std::int64_t prev_end = run_start;
    bool clamped = false;
    for (const Span* s : path_rev) {
      CriticalPathStep step;
      step.tile = span_tile(*s);
      step.rank = s->rank;
      step.thread = s->thread;
      step.start_s =
          static_cast<double>(s->start_ns - run_start) / kNsPerSec;
      step.end_s = static_cast<double>(s->end_ns - run_start) / kNsPerSec;
      step.gap_before_s =
          static_cast<double>(std::max<std::int64_t>(0, s->start_ns -
                                                            prev_end)) /
          kNsPerSec;
      if (s->start_ns < prev_end) clamped = true;
      auto it = tracks.find({s->rank, s->thread});
      if (it != tracks.end())
        attribute_window(it->second, prev_end, s->start_ns,
                         &report.path_attribution);
      report.path_attribution.compute +=
          static_cast<double>(s->end_ns - std::max(s->start_ns, prev_end)) /
          kNsPerSec;
      prev_end = std::max(prev_end, s->end_ns);
      report.critical_path.push_back(std::move(step));
    }
    if (clamped)
      report.warnings.push_back(
          "overlapping execute spans on the critical path (clock "
          "anomaly): gap attribution was clamped");
    report.path_coverage =
        report.makespan_s > 0
            ? report.path_attribution.total() / report.makespan_s
            : 1.0;
  } else {
    report.warnings.push_back(
        "no tile_execute spans: was the run traced?");
  }

  // ---- (2) load-balance audit -------------------------------------------
  report.ranks.resize(static_cast<std::size_t>(report.nranks));
  for (int r = 0; r < report.nranks; ++r)
    report.ranks[static_cast<std::size_t>(r)].rank = r;
  for (const auto& [key, track] : tracks) {
    if (track.rank >= report.nranks) continue;
    RankAudit& audit = report.ranks[static_cast<std::size_t>(track.rank)];
    audit.thread_seconds +=
        static_cast<double>(track.last_end - track.first_start) / kNsPerSec;
    attribute_window(track, track.first_start, track.last_end,
                     &audit.phases);
    for (const Interval& e :
         track.by_phase[static_cast<int>(Phase::kTileExecute)]) {
      audit.measured_compute_s +=
          static_cast<double>(e.hi - e.lo) / kNsPerSec;
      ++audit.tiles;
    }
  }
  // Rank wall time spans all of the rank's threads, not just the longest
  // track: first start to last end across the rank.
  std::map<int, Interval> rank_window;
  for (const auto& [key, track] : tracks) {
    auto [it, inserted] =
        rank_window.emplace(track.rank,
                            Interval{track.first_start, track.last_end});
    if (!inserted) {
      it->second.lo = std::min(it->second.lo, track.first_start);
      it->second.hi = std::max(it->second.hi, track.last_end);
    }
  }
  for (const auto& [rank, window] : rank_window)
    if (rank < report.nranks)
      report.ranks[static_cast<std::size_t>(rank)].wall_s =
          static_cast<double>(window.hi - window.lo) / kNsPerSec;

  double total_predicted = 0.0, total_measured = 0.0;
  double max_predicted = 0.0, max_measured = 0.0;
  for (int r = 0; r < report.nranks; ++r) {
    RankAudit& audit = report.ranks[static_cast<std::size_t>(r)];
    if (static_cast<std::size_t>(r) < input.predicted_work.size())
      audit.predicted_work = input.predicted_work[static_cast<std::size_t>(r)];
    total_predicted += audit.predicted_work;
    total_measured += audit.measured_compute_s;
    max_predicted = std::max(max_predicted, audit.predicted_work);
    max_measured = std::max(max_measured, audit.measured_compute_s);
  }
  for (RankAudit& audit : report.ranks) {
    if (total_predicted > 0)
      audit.predicted_share = audit.predicted_work / total_predicted;
    if (total_measured > 0)
      audit.measured_share = audit.measured_compute_s / total_measured;
    audit.share_error = audit.measured_share - audit.predicted_share;
  }
  if (total_predicted > 0)
    report.predicted_imbalance =
        max_predicted / (total_predicted / report.nranks);
  if (total_measured > 0)
    report.measured_imbalance =
        max_measured / (total_measured / report.nranks);
  if (input.predicted_work.empty())
    report.warnings.push_back(
        "no predicted per-rank work supplied: the Ehrhart audit reports "
        "measured shares only");

  // ---- (3) communication matrix -----------------------------------------
  report.bytes_matrix = input.bytes_matrix;
  report.messages_matrix = input.messages_matrix;
  for (const auto& row : report.bytes_matrix)
    for (std::uint64_t v : row) report.total_bytes += v;
  for (const auto& row : report.messages_matrix)
    for (std::uint64_t v : row) report.total_messages += v;

  // ---- (4) measured message path ------------------------------------------
  report.msg_records = input.msg_records.size();
  report.msg_records_dropped = input.msg_records_dropped;
  if (!input.msg_records.empty()) {
    report.queueing = decompose(input.msg_records);
    if (input.msg_records_dropped > 0)
      report.warnings.push_back(
          cat(input.msg_records_dropped,
              " message records were dropped (ring overflow): the measured "
              "path and conservation accounting are incomplete"));
  }
  if (!input.msg_records.empty() && !exec_spans.empty()) {
    const Span* terminal = exec_spans.front();
    for (const Span* s : exec_spans)
      if (s->end_ns > terminal->end_ns) terminal = s;
    const std::size_t span_dim = span_tile(*terminal).size();
    // Offsets indexed by edge id, in span-coordinate space (empty entry =
    // that edge is unusable for the walk).
    std::vector<IntVec> edge_off(input.edge_offsets.size());
    for (std::size_t e = 0; e < input.edge_offsets.size(); ++e)
      if (input.edge_offsets[e].size() >= span_dim)
        edge_off[e].assign(
            input.edge_offsets[e].begin(),
            input.edge_offsets[e].begin() +
                static_cast<std::ptrdiff_t>(span_dim));
    // Delivered records grouped by consumer tile; arrival() resolves one
    // (consumer, edge) dependency to its latest delivery stamp.
    std::unordered_map<IntVec, std::vector<const MsgRecord*>, IntVecHash>
        delivered;
    for (const MsgRecord& m : input.msg_records) {
      IntVec c(static_cast<std::size_t>(m.ncoord));
      for (std::uint8_t k = 0; k < m.ncoord; ++k)
        c[k] = static_cast<Int>(m.consumer[k]);
      if (c.size() == span_dim) delivered[c].push_back(&m);
    }
    auto arrival = [&](const IntVec& consumer,
                       int edge) -> const MsgRecord* {
      auto it = delivered.find(consumer);
      if (it == delivered.end()) return nullptr;
      const MsgRecord* best = nullptr;
      for (const MsgRecord* m : it->second)
        if (m->edge == edge && (!best || m->deliver_ns > best->deliver_ns))
          best = m;
      return best;
    };

    // Same walk as (1), but the binding predecessor is the dependency
    // that *arrived* last: remote edges at their measured delivery,
    // local edges at the producer's execute end.
    std::vector<const Span*> path_rev{terminal};
    std::unordered_set<IntVec, IntVecHash> visited{span_tile(*terminal)};
    IntVec cur = span_tile(*terminal);
    while (true) {
      const Span* best = nullptr;
      IntVec best_tile;
      std::int64_t best_arrival = 0;
      for (std::size_t e = 0; e < edge_off.size(); ++e) {
        if (edge_off[e].empty()) continue;
        IntVec pred = vec_add(cur, edge_off[e]);
        auto it = exec_by_tile.find(pred);
        if (it == exec_by_tile.end() || visited.count(pred)) continue;
        const Span* cand = exec_spans[it->second];
        const MsgRecord* rec = arrival(cur, static_cast<int>(e));
        const std::int64_t t = rec ? rec->deliver_ns : cand->end_ns;
        if (!best || t > best_arrival) {
          best = cand;
          best_tile = pred;
          best_arrival = t;
        }
      }
      if (!best) break;
      path_rev.push_back(best);
      visited.insert(best_tile);
      cur = std::move(best_tile);
    }
    std::reverse(path_rev.begin(), path_rev.end());

    // Identical attribution mechanics to (1), so the two paths' phase
    // shares are directly comparable.
    std::int64_t prev_end = run_start;
    for (const Span* s : path_rev) {
      CriticalPathStep step;
      step.tile = span_tile(*s);
      step.rank = s->rank;
      step.thread = s->thread;
      step.start_s =
          static_cast<double>(s->start_ns - run_start) / kNsPerSec;
      step.end_s = static_cast<double>(s->end_ns - run_start) / kNsPerSec;
      step.gap_before_s =
          static_cast<double>(std::max<std::int64_t>(0, s->start_ns -
                                                            prev_end)) /
          kNsPerSec;
      auto it = tracks.find({s->rank, s->thread});
      if (it != tracks.end())
        attribute_window(it->second, prev_end, s->start_ns,
                         &report.measured_attribution);
      report.measured_attribution.compute +=
          static_cast<double>(s->end_ns - std::max(s->start_ns, prev_end)) /
          kNsPerSec;
      prev_end = std::max(prev_end, s->end_ns);
      report.measured_path.push_back(std::move(step));
    }
    report.measured_coverage =
        report.makespan_s > 0
            ? report.measured_attribution.total() / report.makespan_s
            : 1.0;
    report.measured_path_valid = true;
  }

  return report;
}

std::string report_json(const AnalysisReport& r) {
  std::string out = cat(
      "{\"schema\":\"dpgen.report.v1\"",
      ",\"source\":", json_string(r.source),
      ",\"problem\":", json_string(r.problem),
      ",\"params\":", json_vec(r.params), ",\"passes\":[");
  for (std::size_t i = 0; i < r.passes.size(); ++i)
    out += cat(i ? "," : "", json_string(r.passes[i]));
  out += cat("],\"nranks\":", r.nranks,
             ",\"makespan_seconds\":", num(r.makespan_s),
             ",\"spans_dropped\":", r.spans_dropped, ",\"warnings\":[");
  for (std::size_t i = 0; i < r.warnings.size(); ++i)
    out += cat(i ? "," : "", json_string(r.warnings[i]));
  out += "],\n\"critical_path\":{\"tiles\":[";
  for (std::size_t i = 0; i < r.critical_path.size(); ++i) {
    const CriticalPathStep& s = r.critical_path[i];
    out += cat(i ? ",\n" : "", "{\"tile\":", json_vec(s.tile),
               ",\"rank\":", s.rank, ",\"thread\":", s.thread,
               ",\"start_s\":", num(s.start_s), ",\"end_s\":", num(s.end_s),
               ",\"gap_before_s\":", num(s.gap_before_s), "}");
  }
  out += cat("],\"length\":", r.critical_path.size(),
             ",\"attribution_seconds\":", json_breakdown(r.path_attribution),
             ",\"coverage\":", num(r.path_coverage), "},\n\"load_balance\":{",
             "\"predicted_imbalance\":", num(r.predicted_imbalance),
             ",\"measured_imbalance\":", num(r.measured_imbalance),
             ",\"ranks\":[");
  for (std::size_t i = 0; i < r.ranks.size(); ++i) {
    const RankAudit& a = r.ranks[i];
    out += cat(i ? ",\n" : "", "{\"rank\":", a.rank, ",\"tiles\":", a.tiles,
               ",\"predicted_work\":", num(a.predicted_work),
               ",\"predicted_share\":", num(a.predicted_share),
               ",\"measured_compute_s\":", num(a.measured_compute_s),
               ",\"measured_share\":", num(a.measured_share),
               ",\"share_error\":", num(a.share_error),
               ",\"wall_s\":", num(a.wall_s),
               ",\"thread_seconds\":", num(a.thread_seconds),
               ",\"phases_seconds\":", json_breakdown(a.phases), "}");
  }
  out += cat("]},\n\"comm_matrix\":{\"bytes\":", json_matrix(r.bytes_matrix),
             ",\"messages\":", json_matrix(r.messages_matrix),
             ",\"total_bytes\":", r.total_bytes,
             ",\"total_messages\":", r.total_messages, "}");
  if (r.msg_records > 0 || r.measured_path_valid) {
    // Additive: pre-msgtrace consumers never see this object.
    const MsgQueueing& q = r.queueing;
    auto secs = [](std::int64_t ns) {
      return num(static_cast<double>(ns) / 1e9);
    };
    out += cat(",\n\"msgtrace\":{\"messages\":", r.msg_records,
               ",\"records_dropped\":", r.msg_records_dropped,
               ",\"queueing_seconds\":{\"pack\":", secs(q.pack_ns),
               ",\"sender_blocked\":", secs(q.sender_blocked_ns),
               ",\"queue\":", secs(q.queue_ns),
               ",\"unpack_wait\":", secs(q.unpack_wait_ns),
               ",\"dispatch\":", secs(q.dispatch_ns),
               ",\"end_to_end\":", secs(q.total()),
               "},\"measured_path\":{\"tiles\":[");
    for (std::size_t i = 0; i < r.measured_path.size(); ++i) {
      const CriticalPathStep& s = r.measured_path[i];
      out += cat(i ? ",\n" : "", "{\"tile\":", json_vec(s.tile),
                 ",\"rank\":", s.rank, ",\"thread\":", s.thread,
                 ",\"start_s\":", num(s.start_s), ",\"end_s\":", num(s.end_s),
                 ",\"gap_before_s\":", num(s.gap_before_s), "}");
    }
    out += cat("],\"length\":", r.measured_path.size(),
               ",\"attribution_seconds\":",
               json_breakdown(r.measured_attribution),
               ",\"coverage\":", num(r.measured_coverage),
               ",\"valid\":", r.measured_path_valid ? "true" : "false", "}}");
  }
  out += "}\n";
  return out;
}

std::string report_text(const AnalysisReport& r) {
  std::string out =
      cat("dpgen performance report  [", r.source.empty() ? "?" : r.source,
          r.problem.empty() ? "" : cat(": ", r.problem), "]");
  if (!r.params.empty()) out += cat("  params ", vec_to_string(r.params));
  out += cat("\nranks: ", r.nranks,
             "   makespan: ", num(r.makespan_s * 1e3), " ms\n");
  if (!r.passes.empty())
    out += cat("codegen passes: ", join(r.passes, ","), "\n");
  if (r.spans_dropped > 0)
    out += cat("WARNING: ", r.spans_dropped,
               " spans dropped — timeline incomplete, attribution biased\n");
  for (const std::string& w : r.warnings)
    if (r.spans_dropped == 0 || w.find("dropped") == std::string::npos)
      out += cat("warning: ", w, "\n");

  const PhaseBreakdown& b = r.path_attribution;
  out += cat("\ncritical path: ", r.critical_path.size(),
             " tiles, attribution covers ", pct(r.path_coverage, 1.0),
             " of the makespan\n");
  auto row = [&](const char* name, double v) {
    if (v <= 0) return;
    out += cat("  ", name, " ", num(v * 1e3), " ms  (",
               pct(v, r.makespan_s), ")\n");
  };
  row("compute      ", b.compute);
  row("unpack       ", b.unpack);
  row("pack         ", b.pack);
  row("send         ", b.send);
  row("blocked_send ", b.blocked_send);
  row("poll         ", b.poll);
  row("idle         ", b.idle);
  row("barrier      ", b.barrier);
  row("other        ", b.other);

  out += "\nload balance (Ehrhart-predicted vs measured):\n";
  out += "  rank  tiles  pred_share  meas_share  error      compute_s\n";
  for (const RankAudit& a : r.ranks) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %4d  %5lld  %10.4f  %10.4f  %+9.4f  %9.6f\n", a.rank,
                  a.tiles, a.predicted_share, a.measured_share,
                  a.share_error, a.measured_compute_s);
    out += line;
  }
  out += cat("  predicted imbalance ", num(r.predicted_imbalance),
             ", measured ", num(r.measured_imbalance), "\n");

  if (!r.bytes_matrix.empty()) {
    out += cat("\ncomm matrix, bytes (row = source rank): total ",
               r.total_bytes, " bytes / ", r.total_messages,
               " messages\n");
    for (std::size_t s = 0; s < r.bytes_matrix.size(); ++s) {
      out += cat("  ", s, ":");
      for (std::uint64_t v : r.bytes_matrix[s]) out += cat(" ", v);
      out += "\n";
    }
  }

  if (r.msg_records > 0) {
    const MsgQueueing& q = r.queueing;
    const std::int64_t e2e = q.total();
    out += cat("\nmessage tracing: ", r.msg_records, " records");
    if (r.msg_records_dropped > 0)
      out += cat(" (", r.msg_records_dropped, " dropped)");
    out += cat("\n  queueing (summed over messages): end-to-end ",
               num(static_cast<double>(e2e) / 1e6), " ms\n");
    auto qrow = [&](const char* name, std::int64_t v) {
      if (v <= 0) return;
      out += cat("    ", name, " ", num(static_cast<double>(v) / 1e6),
                 " ms  (", pct(static_cast<double>(v),
                               static_cast<double>(e2e)),
                 ")\n");
    };
    qrow("pack          ", q.pack_ns);
    qrow("sender_blocked", q.sender_blocked_ns);
    qrow("queue         ", q.queue_ns);
    qrow("unpack_wait   ", q.unpack_wait_ns);
    qrow("dispatch      ", q.dispatch_ns);
    if (r.measured_path_valid)
      out += cat("  measured path: ", r.measured_path.size(),
                 " tiles (inferred: ", r.critical_path.size(),
                 "), attribution covers ", pct(r.measured_coverage, 1.0),
                 " of the makespan\n");
  }
  return out;
}

// ---- report diffing -------------------------------------------------------

namespace {

double field_num(const json::Value& v, const char* key) {
  return v.has(key) ? v.at(key).as_number() : 0.0;
}

constexpr const char* kCanonicalPhases[] = {
    "compute", "unpack", "pack",    "send", "blocked_send",
    "poll",    "idle",   "barrier", "other"};

bool is_canonical_phase(const std::string& name) {
  for (const char* c : kCanonicalPhases)
    if (name == c) return true;
  return false;
}

/// Canonical nine buckets into the PhaseBreakdown; any other numeric key
/// (a newer report revision) into `extras` so it diffs against 0 rather
/// than vanishing when only one side has it.
PhaseBreakdown parse_breakdown(const json::Value& b,
                               std::map<std::string, double>* extras) {
  PhaseBreakdown out;
  out.compute = field_num(b, "compute");
  out.unpack = field_num(b, "unpack");
  out.pack = field_num(b, "pack");
  out.send = field_num(b, "send");
  out.blocked_send = field_num(b, "blocked_send");
  out.poll = field_num(b, "poll");
  out.idle = field_num(b, "idle");
  out.barrier = field_num(b, "barrier");
  out.other = field_num(b, "other");
  if (extras)
    for (const auto& [name, value] : b.fields)
      if (!is_canonical_phase(name) && value->is(json::Kind::kNumber))
        (*extras)[name] = value->as_number();
  return out;
}

void write_diff_side(json::Writer& w, const std::string& source,
                     const std::string& problem, const std::string& passes,
                     double makespan_s, long long path_tiles,
                     const PhaseBreakdown& phases,
                     const std::map<std::string, double>& extra_phases,
                     double bytes, double messages, double imbalance) {
  w.begin_object();
  w.key("source");
  w.value(source);
  w.key("problem");
  w.value(problem);
  w.key("passes");
  w.value(passes);
  w.key("makespan_s");
  w.value(makespan_s);
  w.key("path_tiles");
  w.value(path_tiles);
  w.key("phases_seconds");
  w.begin_object();
  w.key("compute");
  w.value(phases.compute);
  w.key("unpack");
  w.value(phases.unpack);
  w.key("pack");
  w.value(phases.pack);
  w.key("send");
  w.value(phases.send);
  w.key("blocked_send");
  w.value(phases.blocked_send);
  w.key("poll");
  w.value(phases.poll);
  w.key("idle");
  w.value(phases.idle);
  w.key("barrier");
  w.value(phases.barrier);
  w.key("other");
  w.value(phases.other);
  for (const auto& [name, value] : extra_phases) {
    w.key(name);
    w.value(value);
  }
  w.end_object();
  w.key("total_bytes");
  w.value(bytes);
  w.key("total_messages");
  w.value(messages);
  w.key("measured_imbalance");
  w.value(imbalance);
  w.end_object();
}

}  // namespace

ReportDelta diff_reports(const json::Value& old_report,
                         const json::Value& new_report) {
  auto check_v1 = [](const json::Value& r, const char* which) {
    DPGEN_CHECK(r.has("schema") &&
                    r.at("schema").as_string() == "dpgen.report.v1",
                cat("the ", which,
                    " report is not a dpgen.report.v1 document"));
  };
  check_v1(old_report, "old");
  check_v1(new_report, "new");

  ReportDelta d;
  auto side = [](const json::Value& r, std::string* source,
                 std::string* problem, std::string* passes, double* makespan,
                 long long* path_tiles, PhaseBreakdown* phases,
                 std::map<std::string, double>* extra_phases, double* bytes,
                 double* messages, double* imbalance) {
    if (r.has("source")) *source = r.at("source").as_string();
    if (r.has("problem")) *problem = r.at("problem").as_string();
    if (r.has("passes")) {
      // "passes" joined with "," (absent in pre-pass-pipeline documents).
      std::vector<std::string> names;
      for (const auto& item : r.at("passes").items)
        names.push_back(item->as_string());
      *passes = join(names, ",");
    }
    *makespan = field_num(r, "makespan_seconds");
    if (r.has("critical_path")) {
      const json::Value& cp = r.at("critical_path");
      *path_tiles = static_cast<long long>(field_num(cp, "length"));
      if (cp.has("attribution_seconds"))
        *phases =
            parse_breakdown(cp.at("attribution_seconds"), extra_phases);
    }
    if (r.has("comm_matrix")) {
      *bytes = field_num(r.at("comm_matrix"), "total_bytes");
      *messages = field_num(r.at("comm_matrix"), "total_messages");
    }
    if (r.has("load_balance"))
      *imbalance = field_num(r.at("load_balance"), "measured_imbalance");
  };
  side(old_report, &d.old_source, &d.old_problem, &d.old_passes,
       &d.old_makespan_s, &d.old_path_tiles, &d.old_phases,
       &d.old_extra_phases, &d.old_total_bytes, &d.old_total_messages,
       &d.old_measured_imbalance);
  side(new_report, &d.new_source, &d.new_problem, &d.new_passes,
       &d.new_makespan_s, &d.new_path_tiles, &d.new_phases,
       &d.new_extra_phases, &d.new_total_bytes, &d.new_total_messages,
       &d.new_measured_imbalance);
  return d;
}

std::string diff_text(const ReportDelta& d) {
  std::string out = cat("dpgen report diff  [", d.old_problem, " (",
                        d.old_source, ") -> ", d.new_problem, " (",
                        d.new_source, ")]\n");
  if (d.old_problem != d.new_problem)
    out += "warning: the reports describe different problems; the deltas "
           "compare apples to oranges\n";
  if (d.old_passes != d.new_passes)
    out += cat("codegen passes: [", d.old_passes, "] -> [", d.new_passes,
               "]\n");
  out +=
      "  metric           old            new            delta          "
      "rel\n";
  auto row = [&](const char* name, double oldv, double newv) {
    char line[160];
    const double delta = newv - oldv;
    if (oldv != 0.0)
      std::snprintf(line, sizeof(line),
                    "  %-16s %-14.6g %-14.6g %+-14.6g %+.1f%%\n", name, oldv,
                    newv, delta, 100.0 * delta / oldv);
    else
      std::snprintf(line, sizeof(line),
                    "  %-16s %-14.6g %-14.6g %+-14.6g -\n", name, oldv,
                    newv, delta);
    out += line;
  };
  row("makespan_s", d.old_makespan_s, d.new_makespan_s);
  row("path_tiles", static_cast<double>(d.old_path_tiles),
      static_cast<double>(d.new_path_tiles));
  row("compute_s", d.old_phases.compute, d.new_phases.compute);
  row("unpack_s", d.old_phases.unpack, d.new_phases.unpack);
  row("pack_s", d.old_phases.pack, d.new_phases.pack);
  row("send_s", d.old_phases.send, d.new_phases.send);
  row("blocked_send_s", d.old_phases.blocked_send,
      d.new_phases.blocked_send);
  row("poll_s", d.old_phases.poll, d.new_phases.poll);
  row("idle_s", d.old_phases.idle, d.new_phases.idle);
  row("barrier_s", d.old_phases.barrier, d.new_phases.barrier);
  row("other_s", d.old_phases.other, d.new_phases.other);
  // Buckets outside the canonical nine: present on either side diffs
  // against 0 on the other (previously they were silently dropped).
  std::map<std::string, std::pair<double, double>> extras;
  for (const auto& [name, value] : d.old_extra_phases)
    extras[name].first = value;
  for (const auto& [name, value] : d.new_extra_phases)
    extras[name].second = value;
  for (const auto& [name, values] : extras)
    row(cat(name, "_s").c_str(), values.first, values.second);
  row("total_bytes", d.old_total_bytes, d.new_total_bytes);
  row("total_messages", d.old_total_messages, d.new_total_messages);
  row("imbalance", d.old_measured_imbalance, d.new_measured_imbalance);
  return out;
}

std::string diff_json(const ReportDelta& d) {
  json::Writer w;
  w.begin_object();
  w.key("schema");
  w.value("dpgen.reportdiff.v1");
  w.key("old");
  write_diff_side(w, d.old_source, d.old_problem, d.old_passes,
                  d.old_makespan_s, d.old_path_tiles, d.old_phases,
                  d.old_extra_phases, d.old_total_bytes,
                  d.old_total_messages, d.old_measured_imbalance);
  w.key("new");
  write_diff_side(w, d.new_source, d.new_problem, d.new_passes,
                  d.new_makespan_s, d.new_path_tiles, d.new_phases,
                  d.new_extra_phases, d.new_total_bytes,
                  d.new_total_messages, d.new_measured_imbalance);
  w.key("delta");
  PhaseBreakdown dp;
  dp.compute = d.new_phases.compute - d.old_phases.compute;
  dp.unpack = d.new_phases.unpack - d.old_phases.unpack;
  dp.pack = d.new_phases.pack - d.old_phases.pack;
  dp.send = d.new_phases.send - d.old_phases.send;
  dp.blocked_send = d.new_phases.blocked_send - d.old_phases.blocked_send;
  dp.poll = d.new_phases.poll - d.old_phases.poll;
  dp.idle = d.new_phases.idle - d.old_phases.idle;
  dp.barrier = d.new_phases.barrier - d.old_phases.barrier;
  dp.other = d.new_phases.other - d.old_phases.other;
  // Extra buckets delta over the union of both sides' keys (absent = 0).
  std::map<std::string, double> dextra;
  for (const auto& [name, value] : d.new_extra_phases) dextra[name] = value;
  for (const auto& [name, value] : d.old_extra_phases)
    dextra[name] -= value;
  write_diff_side(w, d.new_source, d.new_problem, d.new_passes,
                  d.new_makespan_s - d.old_makespan_s,
                  d.new_path_tiles - d.old_path_tiles, dp, dextra,
                  d.new_total_bytes - d.old_total_bytes,
                  d.new_total_messages - d.old_total_messages,
                  d.new_measured_imbalance - d.old_measured_imbalance);
  w.end_object();
  return w.str() + "\n";
}

}  // namespace dpgen::obs
