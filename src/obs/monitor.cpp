// Live telemetry: seqlock publication, JSONL event log, pace-based
// straggler detection.  See monitor.hpp for the design rationale.

#include "obs/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "support/error.hpp"
#include "support/json.hpp"
#include "support/str.hpp"

namespace dpgen::obs {

MonitorHub& MonitorHub::instance() {
  static MonitorHub hub;
  return hub;
}

void MonitorHub::add(Monitor* m) {
  std::lock_guard<std::mutex> lock(mu_);
  monitors_.push_back(m);
}

void MonitorHub::remove(Monitor* m) {
  std::lock_guard<std::mutex> lock(mu_);
  monitors_.erase(std::remove(monitors_.begin(), monitors_.end(), m),
                  monitors_.end());
}

Monitor::Monitor(MonitorOptions opt) : opt_(std::move(opt)) {
  DPGEN_CHECK(opt_.nranks >= 1, "monitor: nranks must be >= 1");
  DPGEN_CHECK(opt_.interval_s > 0, "monitor: interval must be positive");
  DPGEN_CHECK(opt_.pace_floor > 0 && opt_.pace_floor < 1,
              "monitor: pace_floor must be in (0, 1)");
  DPGEN_CHECK(opt_.lag_consecutive >= 1,
              "monitor: lag_consecutive must be >= 1");
  DPGEN_CHECK(opt_.min_executed_tiles >= 1 && opt_.min_active_ticks >= 1,
              "monitor: validity thresholds must be >= 1");
  if (opt_.warmup_s < 0) opt_.warmup_s = 2.0 * opt_.interval_s;
  // Weights need one finite non-negative entry per rank; zero entries are
  // fine (a rank owning no work never enters detection anyway).
  use_weights_ =
      opt_.predicted_work.size() == static_cast<std::size_t>(opt_.nranks) &&
      std::all_of(opt_.predicted_work.begin(), opt_.predicted_work.end(),
                  [](double w) { return w >= 0 && std::isfinite(w); });
  start_ = std::chrono::steady_clock::now();
  slots_ = std::make_unique<Slot[]>(static_cast<std::size_t>(opt_.nranks));
  det_.resize(static_cast<std::size_t>(opt_.nranks));

  if (!opt_.events_path.empty()) {
    events_.open(opt_.events_path,
                 opt_.append ? (std::ios::out | std::ios::app)
                             : (std::ios::out | std::ios::trunc));
    DPGEN_CHECK(events_.good(),
                cat("monitor: cannot open events file ", opt_.events_path));
    events_open_ = true;
    json::Writer w;
    w.begin_object();
    w.key("schema").value("dpgen.events.v1");
    w.key("event").value("run_start");
    w.key("t_s").value(0.0);
    w.key("source").value(opt_.source);
    if (!opt_.problem.empty()) w.key("problem").value(opt_.problem);
    w.key("nranks").value(opt_.nranks);
    w.key("interval_s").value(opt_.interval_s);
    w.key("pace_floor").value(opt_.pace_floor);
    w.key("lag_consecutive").value(opt_.lag_consecutive);
    w.key("warmup_s").value(opt_.warmup_s);
    w.key("min_executed_tiles").value(opt_.min_executed_tiles);
    w.key("min_active_ticks").value(opt_.min_active_ticks);
    if (!opt_.predicted_work.empty()) {
      w.key("predicted_work").begin_array();
      for (double v : opt_.predicted_work) w.value(v);
      w.end_array();
    }
    w.end_object();
    event_line(w.str());
  }

  MonitorHub::instance().add(this);

  if (opt_.sampler_thread) {
    sampler_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(cv_mu_);
      for (;;) {
        cv_.wait_for(lock,
                     std::chrono::duration<double>(opt_.interval_s),
                     [this] { return quit_; });
        if (quit_) return;
        lock.unlock();
        tick(now_s());
        lock.lock();
      }
    });
  }
}

Monitor::~Monitor() {
  stop();
  MonitorHub::instance().remove(this);
}

double Monitor::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

void Monitor::event_line(const std::string& line) {
  std::lock_guard<std::mutex> lock(ev_mu_);
  if (!events_open_) return;
  events_ << line << '\n';
  events_.flush();
}

void Monitor::publish(int rank, const RankSnapshot& snap) {
  DPGEN_ASSERT(rank >= 0 && rank < opt_.nranks);
  Slot& sl = slots_[static_cast<std::size_t>(rank)];
  const long long epoch = ++sl.epoch;

  const std::uint32_t s = sl.seq.load(std::memory_order_relaxed);
  Buf& b = sl.buf[((s >> 1) + 1) & 1];
  RankSnapshot stamped = snap;
  stamped.epoch = epoch;
  std::uint64_t words[kWords];
  std::memcpy(words, &stamped, sizeof words);
  for (std::size_t i = 0; i < kWords; ++i)
    b.words[i].store(words[i], std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  sl.seq.store(s + 2, std::memory_order_release);

  heartbeats_.fetch_add(1, std::memory_order_relaxed);

  if (events_open_) {
    json::Writer w;
    w.begin_object();
    w.key("schema").value("dpgen.events.v1");
    w.key("event").value("heartbeat");
    w.key("t_s").value(snap.t_s);
    w.key("rank").value(rank);
    w.key("epoch").value(epoch);
    w.key("executed").value(snap.executed);
    w.key("executed_cells").value(snap.executed_cells);
    w.key("owned").value(snap.owned);
    w.key("pending_tiles").value(snap.pending_tiles);
    w.key("ready_tiles").value(snap.ready_tiles);
    w.key("buffered_edges").value(snap.buffered_edges);
    w.key("blocked_senders").value(snap.blocked_senders);
    w.key("bytes_sent").value(snap.bytes_sent);
    w.key("messages_sent").value(snap.messages_sent);
    w.key("progress_marker").value(snap.progress_marker);
    w.key("active_workers").value(snap.active_workers);
    w.key("workers").value(snap.workers);
    w.key("mailbox_depth").value(snap.mailbox_depth);
    if (snap.prof_cycles > 0) {
      // Profiled runs only: live counter totals (cycles, or thread CPU ns
      // in cputime mode) so dpgen-top and log consumers can derive IPC and
      // cycles/cell without waiting for the final document.
      w.key("prof_cycles").value(snap.prof_cycles);
      w.key("prof_instructions").value(snap.prof_instructions);
      w.key("prof_sampled_cells").value(snap.prof_sampled_cells);
      w.key("prof_sampled_exec_ns").value(snap.prof_sampled_exec_ns);
    }
    w.end_object();
    event_line(w.str());
  }
}

void Monitor::stall_warning(int rank, const RankSnapshot& snap,
                            double waited_s, double timeout_s) {
  stall_warnings_.fetch_add(1, std::memory_order_relaxed);
  if (!events_open_) return;
  json::Writer w;
  w.begin_object();
  w.key("schema").value("dpgen.events.v1");
  w.key("event").value("stall_warning");
  w.key("t_s").value(snap.t_s);
  w.key("rank").value(rank);
  w.key("waited_s").value(waited_s);
  w.key("timeout_s").value(timeout_s);
  // Full scheduler snapshot: the warning is most useful when the consumer
  // can see *why* nothing is ready — blocked-sender depth, buffered edges
  // waiting on missing dependencies, and whether any worker is inside a
  // kernel at all.
  w.key("executed").value(snap.executed);
  w.key("executed_cells").value(snap.executed_cells);
  w.key("owned").value(snap.owned);
  w.key("pending_tiles").value(snap.pending_tiles);
  w.key("ready_tiles").value(snap.ready_tiles);
  w.key("buffered_edges").value(snap.buffered_edges);
  w.key("blocked_senders").value(snap.blocked_senders);
  w.key("bytes_sent").value(snap.bytes_sent);
  w.key("messages_sent").value(snap.messages_sent);
  w.key("active_workers").value(snap.active_workers);
  w.key("workers").value(snap.workers);
  w.key("progress_marker").value(snap.progress_marker);
  w.end_object();
  event_line(w.str());
}

void Monitor::rank_failed(int rank, const std::string& reason) {
  rank_failures_.fetch_add(1, std::memory_order_relaxed);
  if (!events_open_) return;
  json::Writer w;
  w.begin_object();
  w.key("schema").value("dpgen.events.v1");
  w.key("event").value("rank_failed");
  w.key("t_s").value(now_s());
  w.key("rank").value(rank);
  w.key("reason").value(reason);
  w.end_object();
  event_line(w.str());
}

void Monitor::restart_event(int attempt, int alive) {
  if (!events_open_) return;
  json::Writer w;
  w.begin_object();
  w.key("schema").value("dpgen.events.v1");
  w.key("event").value("restart");
  w.key("t_s").value(now_s());
  w.key("attempt").value(attempt);
  w.key("nranks").value(alive);
  w.end_object();
  event_line(w.str());
}

RankSnapshot Monitor::latest(int rank) const {
  DPGEN_ASSERT(rank >= 0 && rank < opt_.nranks);
  const Slot& sl = slots_[static_cast<std::size_t>(rank)];
  RankSnapshot out;
  for (;;) {
    const std::uint32_t s1 = sl.seq.load(std::memory_order_acquire);
    if (s1 == 0) return out;  // nothing published yet
    const Buf& b = sl.buf[(s1 >> 1) & 1];
    std::uint64_t words[kWords];
    for (std::size_t i = 0; i < kWords; ++i)
      words[i] = b.words[i].load(std::memory_order_relaxed);
    std::memcpy(&out, words, sizeof words);
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint32_t s2 = sl.seq.load(std::memory_order_relaxed);
    if (s1 == s2) return out;  // not lapped mid-read
  }
}

std::vector<RankSnapshot> Monitor::latest_all() const {
  std::vector<RankSnapshot> out;
  out.reserve(static_cast<std::size_t>(opt_.nranks));
  for (int r = 0; r < opt_.nranks; ++r) out.push_back(latest(r));
  return out;
}

std::vector<StragglerFlag> Monitor::stragglers() const {
  std::lock_guard<std::mutex> lock(det_mu_);
  return flags_;
}

void Monitor::tick(double t_s) {
  {
    std::lock_guard<std::mutex> lock(det_mu_);
    detect_locked(t_s);
  }
  // Raise the want flags *after* detecting, so this tick judges the
  // snapshots requested by the previous one (a full interval old) rather
  // than half-written fresh ones.
  for (int r = 0; r < opt_.nranks; ++r)
    slots_[static_cast<std::size_t>(r)].want.store(
        true, std::memory_order_relaxed);
}

void Monitor::detect_locked(double t_s) {
  // Update per-rank pace from the latest snapshots.
  std::vector<double> paces;
  for (int r = 0; r < opt_.nranks; ++r) {
    Det& d = det_[static_cast<std::size_t>(r)];
    const RankSnapshot s = latest(r);
    if (s.epoch == 0 || s.owned <= 0) {
      d.valid = false;  // nothing published yet, or owns nothing
      continue;
    }
    if (d.finished) {
      paces.push_back(d.pace);
      continue;
    }
    // A tick counts as active when the rank completed a tile since the
    // last one, has ready tiles queued, or has workers inside a kernel —
    // weighted by the busy fraction of its workers, so a rank trickle-fed
    // at half capacity accrues half a tick.  Dependency-starved ticks
    // (wavefront not here yet / already past) accumulate no active time,
    // so starved ranks aren't mistaken for slow ones.
    const double workers =
        s.workers > 0 ? static_cast<double>(s.workers) : 1.0;
    double busy = static_cast<double>(s.active_workers);
    if (busy <= 0 && (s.executed > d.last_executed || s.ready_tiles > 0))
      busy = 1.0;  // progressed between samples; assume one worker's worth
    busy = std::min(busy, workers);
    d.last_executed = std::max(d.last_executed, s.executed);
    if (busy > 0) d.active_s += opt_.interval_s * (busy / workers);
    if (s.executed < opt_.min_executed_tiles ||
        d.active_s <
            (opt_.min_active_ticks - 0.5) * opt_.interval_s) {
      d.valid = false;  // idle so far, or too few samples to judge
      continue;
    }
    // Progress metric, best first: exact cells completed (publishers that
    // can count them), else the owned-fraction scaled by the predicted
    // work share — tiles-at-average-cost, which overstates early progress
    // when cheap boundary tiles finish first.
    double progress;
    if (s.executed_cells > 0) {
      progress = static_cast<double>(s.executed_cells);
    } else {
      double weight =
          use_weights_ ? opt_.predicted_work[static_cast<std::size_t>(r)]
                       : 1.0;
      if (weight <= 0) weight = 1.0;  // owns tiles but zero predicted cells
      progress = (static_cast<double>(s.executed) /
                  static_cast<double>(s.owned)) *
                 weight;
    }
    d.pace = progress / d.active_s;
    d.valid = true;
    if (s.executed >= s.owned) d.finished = true;  // freeze final pace
    paces.push_back(d.pace);
  }
  if (paces.size() < 2 || t_s < opt_.warmup_s) return;

  // Upper median: with an even fleet the averaged median includes the
  // straggler's own pace, so in the smallest fleet (2 ranks) a 4x-slow
  // rank drags the reference far enough toward itself to escape the
  // floor.  paces[n/2] keeps the reference anchored on the healthy half.
  std::sort(paces.begin(), paces.end());
  const double median = paces[paces.size() / 2];
  if (!(median > 0)) return;

  // Finished ranks stay comparable: their pace is frozen at its true
  // lifetime value, so a healthy drained rank sits at the median and is
  // never flagged, while a straggler that serialised *before* its peers
  // even started (no concurrent window to compare in) is still caught
  // retrospectively once the fleet median forms.
  for (int r = 0; r < opt_.nranks; ++r) {
    Det& d = det_[static_cast<std::size_t>(r)];
    if (!d.valid) {
      d.lag_count = 0;
      continue;
    }
    if (d.pace < opt_.pace_floor * median) {
      if (++d.lag_count >= opt_.lag_consecutive && !d.flagged) {
        d.flagged = true;
        StragglerFlag f;
        f.rank = r;
        f.t_s = t_s;
        f.pace = d.pace;
        f.median_pace = median;
        f.lag = 1.0 - d.pace / median;
        flags_.push_back(f);
        if (events_open_) {
          json::Writer w;
          w.begin_object();
          w.key("schema").value("dpgen.events.v1");
          w.key("event").value("straggler");
          w.key("t_s").value(t_s);
          w.key("rank").value(r);
          w.key("pace").value(f.pace);
          w.key("median_pace").value(f.median_pace);
          w.key("lag").value(f.lag);
          w.end_object();
          event_line(w.str());
        }
      }
    } else {
      d.lag_count = 0;
    }
  }
}

void Monitor::stop(double t_end_s) {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  if (sampler_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(cv_mu_);
      quit_ = true;
    }
    cv_.notify_all();
    sampler_.join();
  }
  const double t_end = t_end_s >= 0 ? t_end_s : now_s();
  {
    std::lock_guard<std::mutex> lock(det_mu_);
    detect_locked(t_end);
  }
  if (events_open_) {
    json::Writer w;
    w.begin_object();
    w.key("schema").value("dpgen.events.v1");
    w.key("event").value("run_end");
    w.key("t_s").value(t_end);
    w.key("elapsed_s").value(t_end);
    w.key("heartbeats").value(heartbeats());
    w.key("stragglers").value(
        static_cast<long long>(stragglers().size()));
    w.key("stall_warnings").value(stall_warnings());
    w.end_object();
    event_line(w.str());
    std::lock_guard<std::mutex> lock(ev_mu_);
    events_.close();
    events_open_ = false;
  }
}

}  // namespace dpgen::obs
