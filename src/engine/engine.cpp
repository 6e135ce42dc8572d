#include "engine/engine.hpp"

#include <algorithm>
#include <optional>

#include "engine/decisions.hpp"
#include "engine/interpret.hpp"
#include "runtime/results.hpp"
#include "support/str.hpp"

namespace dpgen::engine {

namespace {

/// ProblemHooks implementation that interprets the TilingModel.
class ModelHooks final : public runtime::ProblemHooks<double> {
 public:
  ModelHooks(const tiling::TilingModel& model, const IntVec& params,
             const tiling::LoadBalancer& balancer, const CenterFn& center,
             const EngineOptions& options, runtime::ResultSink& results)
      : model_(model),
        params_(params),
        balancer_(balancer),
        center_(center),
        opt_(options),
        results_(results),
        cells_fn_(model.cell_count_fn(params)) {}

  int dim() const override { return model_.dim(); }
  Int buffer_size() const override { return model_.buffer_size(); }
  int num_edges() const override { return model_.num_edges(); }
  const IntVec& edge_offset(int edge) const override {
    return model_.edges()[static_cast<std::size_t>(edge)].offset;
  }
  Int edge_capacity(int edge) const override {
    return model_.edges()[static_cast<std::size_t>(edge)].capacity;
  }
  bool tile_exists(const IntVec& tile) const override {
    return model_.tile_in_space(params_, tile);
  }
  int dep_count(const IntVec& tile) const override {
    return model_.num_deps_of(params_, tile);
  }
  Int tile_cells(const IntVec& tile) const override {
    // Per dispatched tile on the monitored hot path: use the specialised
    // product form when the local nest permits it, the generic counter
    // otherwise.
    return cells_fn_.ok() ? cells_fn_.count(tile)
                          : model_.cell_count(params_, tile);
  }
  void initial_tiles(std::vector<IntVec>& out) const override {
    model_.for_each_initial_tile(params_,
                                 [&](const IntVec& t) { out.push_back(t); });
  }
  int owner(const IntVec& tile) const override {
    return balancer_.owner(tile);
  }
  Int owned_tiles(int rank) const override {
    return balancer_.owned_tiles(rank);
  }

  void execute_tile(const IntVec& tile, double* buffer) override {
    if (opt_.decision_log) {
      std::vector<unsigned char> decisions;
      detail::execute_tile_interpreted(model_, params_, tile, center_,
                                       buffer, &decisions);
      opt_.decision_log->record(tile, decisions);
    } else {
      detail::execute_tile_interpreted(model_, params_, tile, center_,
                                       buffer);
    }
  }

  void on_tile_executed(const IntVec& tile, const double* buffer) override {
    if (opt_.on_tile_executed) opt_.on_tile_executed(tile);
    if (opt_.track_max) {
      runtime::MaxScan<double> best(model_.dim());
      model_.for_each_cell(
          params_, tile, [&](const IntVec& local, const IntVec& global) {
            best.offer(buffer[model_.local_index(local)], global.data());
          });
      results_.merge_max(best);
    }
    if (opt_.record_all) {
      results_.record_each([&](const auto& put) {
        model_.for_each_cell(params_, tile,
                             [&](const IntVec& local, const IntVec& global) {
                               put(global, buffer[model_.local_index(local)]);
                             });
      });
      return;
    }
    results_.capture(tile, buffer, [&](const IntVec& local) {
      return model_.local_index(local);
    });
  }

  Int pack(int edge, const IntVec& producer, const double* buffer,
           double* out) const override {
    return detail::pack_interpreted(model_, params_, edge, producer, buffer,
                                    out);
  }

  void unpack(int edge, const IntVec& producer, const double* data, Int count,
              double* buffer) const override {
    if (opt_.edge_store) {
      IntVec consumer = vec_sub(
          producer, model_.edges()[static_cast<std::size_t>(edge)].offset);
      runtime::EdgeData<double> copy;
      copy.edge = edge;
      copy.payload.assign(data, data + count);
      std::lock_guard<std::mutex> lock(opt_.edge_store->mu);
      opt_.edge_store->by_consumer[consumer].push_back(std::move(copy));
    }
    detail::unpack_interpreted(model_, params_, edge, producer, data, count,
                               buffer);
  }

 private:
  const tiling::TilingModel& model_;
  const IntVec& params_;
  const tiling::LoadBalancer& balancer_;
  const CenterFn& center_;
  const EngineOptions& opt_;
  runtime::ResultSink& results_;
  tiling::CellCountFn cells_fn_;
};

}  // namespace

double EngineResult::at(const IntVec& point) const {
  auto it = values.find(point);
  DPGEN_CHECK(it != values.end(),
              cat("no recorded value at ", vec_to_string(point),
                  "; add it to EngineOptions::probes or set record_all"));
  return it->second;
}

long long EngineResult::total(long long runtime::RunStats::* field) const {
  long long sum = 0;
  for (const auto& s : rank_stats) sum += s.*field;
  return sum;
}

EngineResult run(const tiling::TilingModel& model, const IntVec& params,
                 const CenterFn& center, const EngineOptions& options) {
  // The session arms the requested instruments for exactly this run
  // (tracers start from clean buffers) and disarms them however it ends.
  obs::Session session(options.obs, {"engine", model.problem().problem_name(),
                                     params});

  runtime::ResultSink results(options.record_all ? std::vector<IntVec>{}
                                                 : options.probes,
                              model.problem().widths());

  runtime::RunOptions ropt;
  ropt.threads = options.threads;
  // Priority dimensions: load-balanced dims first, then the rest in loop
  // order (paper Fig. 5).
  ropt.order = runtime::TileOrder(model.lb_dims(),
                                  model.problem().dep_signs(), options.policy);
  ropt.poison_buffers = options.poison_buffers;
  ropt.stall_timeout_seconds = options.stall_timeout_seconds;

  // Fault tolerance: tile completions feed a checkpoint store (producer-
  // side edge log; see runtime/checkpoint.hpp), and a TransportFailure —
  // injected kill, declared drop-stall, or a real worker exception —
  // restarts the run over the surviving ranks instead of propagating.
  // Because every DP here is confluent (cell values are schedule-
  // independent) and edge delivery is idempotent under the tile table's
  // duplicate guard, re-executing the non-checkpointed frontier converges
  // to byte-identical results.
  const bool fault_tolerant =
      options.fault_tolerant || options.fault_plan.has_value();
  runtime::CheckpointStore<double> store;
  if (fault_tolerant) {
    store.set_meta(model.problem().problem_name(), vec_to_string(params),
                   model.dim());
    if (!options.resume_checkpoint_path.empty())
      store.restore_from(
          runtime::load_checkpoint_json(options.resume_checkpoint_path));
    if (!options.checkpoint_json_path.empty())
      store.configure_flush(options.checkpoint_json_path,
                            options.checkpoint_every_tiles);
    ropt.recover_stall_seconds = options.recover_stall_seconds;
    // Faulty wires can duplicate; replayed restarts can re-send.  Either
    // way re-delivered edges must be dropped even after their tile went
    // ready, so arm the table guard for every attempt of this run.
    ropt.replay_guard = true;
  }

  int alive = options.ranks;
  int restarts = 0;
  std::vector<int> failed_ranks;
  minimpi::FaultStats fault_stats;

  std::optional<tiling::LoadBalancer> balancer_storage;
  std::optional<minimpi::World> world;
  std::vector<runtime::RunStats> rank_stats;
  std::vector<double> predicted_work;

  for (;;) {
    // Ownership is re-planned for the surviving fleet each attempt: the
    // Ehrhart balancer runs over `alive` ranks, so a killed rank's tiles
    // are re-distributed proportionally instead of piling onto one peer.
    {
      obs::ScopedSpan span(obs::Phase::kLoadBalance);
      balancer_storage.emplace(model, params, alive, options.balance);
    }
    tiling::LoadBalancer& balancer = *balancer_storage;
    predicted_work = balancer.predicted_work();

    // Each attempt gets a fresh World (per-link sequence counters restart
    // from 0) and a fresh live monitor appending to the same event log.
    session.restart(alive, predicted_work);
    ropt.monitor = session.monitor();

    // Faults are injected only on the first attempt: the plan describes
    // one concrete failure scenario, and recovery must not re-trip it.
    auto base = std::make_shared<minimpi::InProcessTransport>(
        alive, options.mailbox_capacity);
    std::shared_ptr<minimpi::FaultInjector> injector;
    std::shared_ptr<minimpi::Transport> transport = base;
    if (options.fault_plan && restarts == 0) {
      injector =
          std::make_shared<minimpi::FaultInjector>(base, *options.fault_plan);
      transport = injector;
    }

    world.emplace(alive, options.mailbox_capacity, transport);
    rank_stats.assign(static_cast<std::size_t>(alive), {});
    try {
      world->run([&](minimpi::Comm& comm) {
        ModelHooks hooks(model, params, balancer, center, options, results);
        rank_stats[static_cast<std::size_t>(comm.rank())] =
            runtime::run_node<double>(hooks, comm, ropt,
                                      fault_tolerant ? &store : nullptr);
      });
      if (injector) fault_stats = injector->stats();
      break;
    } catch (const minimpi::TransportFailure& e) {
      if (!fault_tolerant) throw;
      if (injector) fault_stats = injector->stats();
      const std::vector<int> dead = transport->dead_ranks();
      ++restarts;
      DPGEN_CHECK(restarts <= options.max_restarts,
                  cat("fault tolerance exhausted after ", restarts - 1,
                      " restarts: ", e.what()));
      const int next_alive =
          std::max(1, alive - static_cast<int>(dead.size()));
      if (obs::Monitor* monitor = session.monitor()) {
        for (int r : dead) monitor->rank_failed(r, e.what());
        monitor->restart_event(restarts, next_alive);
      }
      for (int r : dead) failed_ranks.push_back(r);
      alive = next_alive;
      // Credited tiles may now re-execute (crash-before-record frontier),
      // so the next attempt's drivers must screen deliveries against the
      // executed set — see CheckpointStore::replay_possible.
      store.enter_replay();
      store.flush();
    }
  }
  if (fault_tolerant) store.flush();

  // The documents cover the attempt that finished: the last balancer,
  // world and rank count (smaller than options.ranks after a kill).
  obs::RunFacts facts = runtime::run_facts(*world, rank_stats);
  facts.predicted_work = std::move(predicted_work);
  for (const auto& e : model.edges()) facts.edge_offsets.push_back(e.offset);
  facts.fault_drops = fault_stats.messages_dropped;
  facts.fault_dups = fault_stats.messages_duplicated;
  obs::SessionResult docs = session.finish(facts);

  EngineResult result;
  result.report = std::move(docs.report);
  result.values = std::move(results.values());
  result.rank_stats = std::move(rank_stats);
  result.max_value = results.max().value;
  if (results.max().have) result.max_point = results.max().point;
  result.stragglers = std::move(docs.stragglers);
  result.restarts = restarts;
  result.failed_ranks = std::move(failed_ranks);
  result.fault_stats = fault_stats;
  result.profile = std::move(docs.profile);
  return result;
}

}  // namespace dpgen::engine
