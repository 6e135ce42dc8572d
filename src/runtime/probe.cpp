// Cold paths of the node driver's probes: monitor snapshots, the stall
// watchdog's diagnostics, and the end-of-run publish.  See probe.hpp.

#include "runtime/probe.hpp"

#include <cstdio>

#include "obs/gather.hpp"
#include "runtime/driver.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace dpgen::runtime {

RunCounters& RunCounters::operator+=(const RunCounters& o) {
  tiles_executed += o.tiles_executed;
  local_edges += o.local_edges;
  remote_edges += o.remote_edges;
  polls += o.polls;
  edge_allocs += o.edge_allocs;
  pool_hits += o.pool_hits;
  stall_warnings += o.stall_warnings;
  idle_ns += o.idle_ns;
  blocked_send_ns += o.blocked_send_ns;
  for (std::size_t e = 0; e < o.edge_sent.size(); ++e)
    edge_sent[e] += o.edge_sent[e];
  tile_ns.merge(o.tile_ns);
  payload_scalars.merge(o.payload_scalars);
  return *this;
}

namespace detail {

std::string LastTileSlots::latest() {
  Int best_ns = 0;
  std::string best = "(none)";
  for (int w = 0; w * lines_per_slot_ < lines_.size(); ++w) {
    for (;;) {  // retry a read that raced its writer
      const Int s = cell(w, 0).load(std::memory_order_acquire);
      const Int at_ns = cell(w, 1).load(std::memory_order_acquire);
      std::string coords = "(";
      for (std::size_t k = 0; k < dim_; ++k)
        coords += cat(k ? "," : "",
                      cell(w, 2 + k).load(std::memory_order_acquire));
      if (s % 2 != 0 || cell(w, 0).load(std::memory_order_relaxed) != s)
        continue;
      if (at_ns > best_ns) {
        best_ns = at_ns;
        best = coords + ")";
      }
      break;
    }
  }
  return best;
}

}  // namespace detail

RunProbe::RunProbe(const RunOptions& opt, minimpi::Comm& comm,
                   RankProgress& progress, int dim, int num_edges, Int owned,
                   bool recoverable,
                   std::function<TableSnapshot()> table_snapshot)
    : comm_(comm),
      progress_(progress),
      rank_(comm.rank()),
      threads_(opt.threads),
      owned_(owned),
      monitor_(opt.monitor),
      tracing_(obs::Tracer::instance().enabled()),
      msgtrace_(obs::MsgTracer::instance().enabled()),
      profiling_(obs::Profiler::instance().active()),
      stall_timeout_s_(opt.stall_timeout_seconds),
      recover_stall_s_(recoverable ? opt.recover_stall_seconds : 0.0),
      last_tiles_(opt.threads, dim),
      table_snapshot_(std::move(table_snapshot)) {
  obs::Tracer::set_identity(rank_, 0);
  total_.edge_sent.assign(static_cast<std::size_t>(num_edges), 0);
}

// Takes the table's heap lock, so it only runs when the monitor's sampler
// raised this rank's want flag (claim()), never on the steady-state path.
obs::RankSnapshot RunProbe::snapshot() const {
  obs::RankSnapshot s;
  s.t_s = monitor_->now_s();
  const TableSnapshot snap = table_snapshot_();
  s.pending_tiles = snap.pending_tiles;
  s.ready_tiles = snap.ready_tiles;
  s.buffered_edges = snap.buffered_edges;
  s.executed = progress_.done.load(std::memory_order_relaxed);
  s.executed_cells = progress_.done_cells.load(std::memory_order_relaxed);
  s.owned = owned_;
  s.blocked_senders = progress_.blocked_senders.load(std::memory_order_relaxed);
  s.bytes_sent = static_cast<long long>(comm_.bytes_sent());
  s.messages_sent = static_cast<long long>(comm_.messages_sent());
  s.progress_marker = progress_.progress_marker.load(std::memory_order_relaxed);
  s.active_workers = progress_.busy_workers.load(std::memory_order_relaxed);
  s.workers = threads_;
  s.mailbox_depth = static_cast<long long>(comm_.mailbox_depth());
  if (profiling_) {
    const auto prof = obs::Profiler::instance().rank_totals(rank_);
    s.prof_cycles = static_cast<long long>(prof.cycles);
    s.prof_instructions = static_cast<long long>(prof.instructions);
    s.prof_sampled_cells = static_cast<long long>(prof.sampled_cells);
    s.prof_sampled_exec_ns = static_cast<long long>(prof.sampled_exec_ns);
  }
  return s;
}

void RunProbe::finish(long long wire_hits, long long wire_misses,
                      RunStats* stats) {
  obs::Tracer::set_identity(rank_, 0);
  if (monitor_) monitor_->publish(rank_, snapshot());
  total_.pool_hits += wire_hits;
  total_.edge_allocs += wire_misses;

  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.counter("runtime.tiles_executed").add(total_.tiles_executed);
  reg.counter("runtime.local_edges").add(total_.local_edges);
  reg.counter("runtime.remote_edges").add(total_.remote_edges);
  reg.counter("runtime.polls").add(total_.polls);
  reg.counter("runtime.idle_ns").add(total_.idle_ns);
  reg.counter("runtime.blocked_send_ns").add(total_.blocked_send_ns);
  reg.counter("runtime.edge_alloc").add(total_.edge_allocs);
  reg.counter("runtime.pool_hit").add(total_.pool_hits);
  for (std::size_t e = 0; e < total_.edge_sent.size(); ++e)
    reg.counter(cat("runtime.edge_sent.e", e)).add(total_.edge_sent[e]);
  reg.histogram("runtime.tile_latency_ns").merge(total_.tile_ns);
  reg.histogram("runtime.edge_payload_scalars").merge(total_.payload_scalars);

  stats->tiles_executed = total_.tiles_executed;
  stats->local_edges = total_.local_edges;
  stats->remote_edges = total_.remote_edges;
  stats->polls = total_.polls;
  stats->edge_allocs = total_.edge_allocs;
  stats->pool_hits = total_.pool_hits;
  stats->stall_warnings = total_.stall_warnings;
  stats->idle_seconds = static_cast<double>(total_.idle_ns) * 1e-9;
  stats->blocked_send_seconds =
      static_cast<double>(total_.blocked_send_ns) * 1e-9;
}

void RunProbe::gather() {
#if DPGEN_TRACE
  if (tracing_) {
    obs::ScopedSpan span(obs::Phase::kGather);
    obs::gather_and_merge(obs::Tracer::instance(), comm_);
  }
  if (msgtrace_) {
    obs::ScopedSpan span(obs::Phase::kGather);
    obs::gather_and_merge(obs::MsgTracer::instance(), comm_);
  }
#endif
}

WorkerProbe::WorkerProbe(RunProbe& run, int worker)
    : run_(run),
      progress_(run.progress_),
      worker_(worker),
      monitor_(run.monitor_),
      msgtrace_(run.msgtrace_),
      profiling_(run.profiling_),
      profile_scope_(run.rank_, worker),
      seen_marker_(run.progress_.progress_marker.load()),
      seen_time_(Clock::now()) {
  obs::Tracer::set_identity(run.rank_, worker);
  c_.edge_sent.assign(run.total_.edge_sent.size(), 0);
}

void WorkerProbe::close_idle() {
  const std::int64_t ns = nanos(Clock::now() - idle_since_);
  c_.idle_ns += ns;
  if (run_.tracing_) {
    obs::Tracer& tracer = obs::Tracer::instance();
    const std::int64_t end_ns = tracer.now_ns();
    tracer.record(obs::Phase::kIdle, end_ns - ns, end_ns);
  }
  obs::profile_frame_pop(idle_frame_);
  idle_frame_ = false;
  idling_ = false;
}

std::string RunProbe::scheduler_state() const {
  const TableSnapshot snap = table_snapshot_();
  return cat("ready=", snap.ready_tiles, " pending=", snap.pending_tiles,
             " buffered_edges=", snap.buffered_edges,
             " executed=", progress_.done.load(), "/", owned_);
}

void WorkerProbe::watch_stall() {
  const double timeout = run_.stall_timeout_s_;
  if (timeout <= 0) return;
  const long long marker = progress_.progress_marker.load();
  if (marker != seen_marker_) {
    seen_marker_ = marker;
    seen_time_ = Clock::now();
    return;
  }
  const double waited =
      std::chrono::duration<double>(Clock::now() - seen_time_).count();
  if (run_.recover_stall_s_ > 0 && waited > run_.recover_stall_s_) {
    // Recovery path: dependencies this rank is starving for are presumed
    // lost (a dropped message cannot be told apart from a slow one, so
    // the budget decides).  Poison the transport so every rank unwinds;
    // the engine restarts from the checkpoint and producers re-send.
    const std::string why =
        cat("no progress for ", waited, "s (recover budget ",
            run_.recover_stall_s_, "s): presumed message loss; ",
            run_.scheduler_state());
    run_.comm_.declare_failure(why);
    throw minimpi::TransportFailure(why);
  }
  if (waited > 0.5 * timeout) {
    // Halfway to the abort: warn once per no-progress stretch so live
    // monitors see trouble before the run dies.
    long long warned =
        progress_.stall_warned_marker.load(std::memory_order_relaxed);
    if (warned != marker &&
        progress_.stall_warned_marker.compare_exchange_strong(warned,
                                                              marker)) {
      ++c_.stall_warnings;
      std::fprintf(stderr,
                   "dpgen: stall_warning: rank %d made no progress for "
                   "%.2fs (timeout %.2fs): %s blocked_senders=%d\n",
                   run_.rank_, waited, timeout,
                   run_.scheduler_state().c_str(),
                   progress_.blocked_senders.load());
      if (monitor_)
        monitor_->stall_warning(run_.rank_, run_.snapshot(), waited,
                                timeout);
    }
  }
  if (waited > timeout)
    raise(cat("runtime stalled: no tile became ready within the stall "
              "timeout (likely a scheduling bug or a dead peer rank); "
              "rank ", run_.rank_, " scheduler snapshot: ",
              run_.scheduler_state(), " owned tiles, blocked_senders=",
              progress_.blocked_senders.load(), " (",
              run_.comm_.blocked_sends(),
              " blocked sends so far), last tile completed: ",
              run_.last_tiles_.latest()));
}

void WorkerProbe::finish(long long pool_hits, long long pool_misses) {
  // Workers that drain early exit the loop mid-idle (the loop condition
  // flips while they wait for peers to finish the last tiles), so the
  // stretch is closed here: this tail idle is exactly what the
  // load-balance audit attributes imbalance to.
  idle_end();
  c_.pool_hits += pool_hits;
  c_.edge_allocs += pool_misses;
  std::lock_guard<std::mutex> lock(run_.mu_);
  run_.total_ += c_;
}

}  // namespace dpgen::runtime
