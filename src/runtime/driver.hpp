#pragma once
// The hybrid node driver (paper section V.A).
//
// run_node() is the main body of every generated program and of engine
// runs: after load balancing and initial-tile generation, each of the
// node's worker threads executes the paper's while-loop —
//   1. get the next available tile,
//   2. unpack its stored edge data into a fresh tile buffer (+ghost cells),
//   3. execute the tile,
//   4. pack each valid outgoing edge and either update a neighbouring
//      local tile or send the edge to the owning rank,
//   5. add any now-ready tiles to the priority queue,
//   6. poll for incoming edges when the comm lock is available.
//
// Only tiles in execution hold full buffers; everything else is packed
// edges.  The problem-specific pieces are supplied through ProblemHooks:
// the interpreted engine implements them by walking the TilingModel, and
// a generated program's GeneratedHooks (program.hpp) calls its emitted
// loop nests.
//
// The steady-state loop is allocation-free: payload vectors cycle through
// a per-worker BufferPool (unpack releases feed the very next pack
// acquires), remote edges are packed straight into a pooled wire buffer
// after a reserved header and moved into the mailbox, and received wire
// buffers are recycled for the next send.  Pool misses are counted as
// `runtime.edge_alloc` and hits as `runtime.pool_hit`, so the claim shows
// up in the metrics rather than relying on code reading.
//
// Worker threads are std::threads by default; when libdpgen_runtime is
// built with OpenMP (DPGEN_RUNTIME_USE_OPENMP), the workers run inside an
// OpenMP parallel region instead: a true hybrid OpenMP + message-passing
// run.  run_node<double/float> are compiled only there (extern below).
//
// Observability: the loop calls a per-worker probe (runtime/probe.hpp) at
// each step and opens plain ScopedSpans only for its unpack and pack
// scopes.  The probe records the other phase spans (tile-execute spans
// carry the tile coordinates), message lifecycle stamps, profiler frames
// and monitor heartbeats, and it keeps the one counter set that the
// returned RunStats and the runtime.* metrics both come from.  At the end
// of the run the ranks' span and message rings are merged to rank 0
// through the comm layer (obs/gather.hpp), ready for export.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "minimpi/world.hpp"
#include "support/str.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/probe.hpp"
#include "runtime/tile_table.hpp"

#if defined(_OPENMP) && defined(DPGEN_RUNTIME_USE_OPENMP)
#include <omp.h>
#endif

namespace dpgen::runtime {

/// The problem-specific interface the driver runs against.  All methods
/// must be safe to call from multiple worker threads concurrently.
template <typename S>
class ProblemHooks {
 public:
  virtual ~ProblemHooks() = default;

  /// Number of tile dimensions.
  virtual int dim() const = 0;
  /// Scalars in one tile buffer (interior + ghost ring).
  virtual Int buffer_size() const = 0;

  /// Tile edges (distinct tile-dependency offsets).
  virtual int num_edges() const = 0;
  virtual const IntVec& edge_offset(int edge) const = 0;
  /// Upper bound on the scalars `edge` can carry (any producer tile); the
  /// driver sizes pack destinations with it before calling pack().
  virtual Int edge_capacity(int edge) const = 0;

  /// True when the tile exists (is inside the tile space).
  virtual bool tile_exists(const IntVec& tile) const = 0;
  /// Number of in-space dependencies of an existing tile.
  virtual int dep_count(const IntVec& tile) const = 0;
  /// Appends every dependency-free tile (across all ranks) to out.
  virtual void initial_tiles(std::vector<IntVec>& out) const = 0;

  /// Owning rank of a tile and the number of tiles a rank owns.
  virtual int owner(const IntVec& tile) const = 0;
  virtual Int owned_tiles(int rank) const = 0;

  /// Cell count of a tile (Ehrhart-exact where available; 0 = unknown).
  /// Only consulted when live monitoring is on: the straggler detector
  /// prefers cells over tile counts because tile costs are heavy-tailed.
  virtual Int tile_cells(const IntVec& tile) const {
    (void)tile;
    return 0;
  }

  /// Runs the tile's loop nest over `buffer` (ghosts already unpacked).
  virtual void execute_tile(const IntVec& tile, S* buffer) = 0;
  /// Called after execution with the filled buffer (result capture).
  virtual void on_tile_executed(const IntVec& tile, const S* buffer) {
    (void)tile;
    (void)buffer;
  }

  /// Packs the producer-side cells of `edge` from `buffer` into `out`
  /// (room for at least edge_capacity(edge) scalars); returns the number
  /// of scalars packed.
  virtual Int pack(int edge, const IntVec& producer, const S* buffer,
                   S* out) const = 0;
  /// Unpacks edge data into the consumer tile's buffer ghost cells;
  /// `producer` identifies the tile the data came from.
  virtual void unpack(int edge, const IntVec& producer, const S* data,
                      Int count, S* buffer) const = 0;
};

struct RunOptions {
  int threads = 1;
  TileOrder order;
  /// Fill fresh tile buffers with NaN instead of zero so that reads of
  /// never-written ghost cells surface as NaNs (floating-point S only).
  bool poison_buffers = false;
  /// Abort with an error after this long with no progress (0 = never);
  /// protects tests against scheduling deadlocks.  A structured
  /// stall_warning fires at half this budget so live monitors see trouble
  /// before the run dies.
  double stall_timeout_seconds = 120.0;
  /// Live-telemetry sink (not owned; null = monitoring off).  The steady
  /// state pays one relaxed load per tile; snapshots are only taken when
  /// the monitor's sampler asks for one.
  obs::Monitor* monitor = nullptr;
  /// Fault recovery (only honoured when run_node gets a checkpoint
  /// store): a rank starved of progress for this long declares a
  /// transport failure — messages it depends on are presumed lost — so
  /// every rank unwinds and the engine restarts from the checkpoint.
  /// 0 = never; must be well under stall_timeout_seconds when set.
  double recover_stall_seconds = 0.0;
  /// Arms the tile table's post-ready duplicate guard.  Set by the engine
  /// for any run that can see re-delivered edges (a fault plan, or a
  /// fault-tolerant run whose restart replays sends); off by default so
  /// the clean path stays free of the guard's per-tile set insert.
  bool replay_guard = false;
};

struct RunStats {
  long long tiles_executed = 0;
  long long initial_tiles = 0;
  long long local_edges = 0;     // delivered without messaging
  long long remote_edges = 0;    // sent through the comm layer
  long long polls = 0;
  /// Buffer-pool misses (each one a real heap allocation on the edge
  /// path) and hits; in steady state every acquire should be a hit.
  long long edge_allocs = 0;
  long long pool_hits = 0;
  double init_scan_seconds = 0.0;
  double total_seconds = 0.0;
  /// Wall time this rank's workers spent with no ready tile (includes the
  /// exponential-backoff sleeps, which dominate long idle stretches).
  double idle_seconds = 0.0;
  /// Wall time spent retrying sends against full destination mailboxes.
  double blocked_send_seconds = 0.0;
  /// stall_warning events raised (progress resumed after each, or the run
  /// would have aborted at the full timeout instead).
  long long stall_warnings = 0;
  TableStats table;
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t blocked_sends = 0;
};

/// The facts of a finished run that obs::Session::finish needs from the
/// message layer and the per-rank statistics; the front end adds the
/// predicted work, edge offsets, fault counts and passes.  Called once
/// after World::run (gather traffic included), it is also where the
/// message layer's `comm.*` counters and the `runtime.ready_queue_depth`
/// gauge reach the metrics registry: once per run, for the attempt that
/// finished, off the send and tile paths.
inline obs::RunFacts run_facts(const minimpi::World& world,
                               const std::vector<RunStats>& stats) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  std::int64_t messages = 0, bytes = 0, blocked = 0;
  for (int src = 0; src < world.size(); ++src) {
    const minimpi::Comm& c = world.comm(src);
    for (int dst = 0; dst < world.size(); ++dst) {
      const auto m = static_cast<std::int64_t>(c.messages_sent_to(dst));
      const auto b = static_cast<std::int64_t>(c.bytes_sent_to(dst));
      reg.counter(cat("comm.messages_sent.to", dst)).add(m);
      reg.counter(cat("comm.bytes_sent.to", dst)).add(b);
      messages += m;
      bytes += b;
    }
    blocked += static_cast<std::int64_t>(c.blocked_sends());
    if (c.message_bytes().count() > 0)
      reg.histogram("comm.message_bytes").merge(c.message_bytes());
  }
  if (messages > 0) {
    reg.counter("comm.messages_sent").add(messages);
    reg.counter("comm.bytes_sent").add(bytes);
  }
  if (blocked > 0) reg.counter("comm.blocked_sends").add(blocked);
  // The gauge keeps a level and a high-water mark: the level of a finished
  // run is 0, the mark the deepest any rank's ready queue got.
  obs::Gauge& depth = reg.gauge("runtime.ready_queue_depth");
  for (const RunStats& s : stats) depth.set(s.table.peak_ready_tiles);
  depth.set(0);

  obs::RunFacts f;
  f.nranks = world.size();
  f.bytes_matrix = world.bytes_matrix();
  f.messages_matrix = world.messages_matrix();
  f.sent_matrix = world.sent_matrix();
  for (const RunStats& s : stats)
    f.table_duplicates += s.table.duplicate_edges;
  return f;
}

namespace detail {

// Wire format of one edge message: [edge, count, consumer tile coords,
// payload scalars].  The header length is a multiple of sizeof(Int), so
// the payload region is suitably aligned for the scalar type.

inline std::size_t edge_wire_header(int dim) {
  return sizeof(Int) * (2 + static_cast<std::size_t>(dim));
}

/// Sizes `buf` for a payload of up to `capacity` scalars after the header
/// and returns the payload write pointer; pack fills it in place and
/// finish_edge_wire() then trims and stamps the header — no intermediate
/// scratch-to-wire copy.
template <typename S>
S* begin_edge_wire(std::vector<std::uint8_t>& buf, int dim, Int capacity) {
  const std::size_t head = edge_wire_header(dim);
  buf.resize(head + static_cast<std::size_t>(capacity) * sizeof(S));
  return reinterpret_cast<S*>(buf.data() + head);
}

template <typename S>
void finish_edge_wire(std::vector<std::uint8_t>& buf, int edge,
                      const IntVec& consumer, Int count) {
  const std::size_t head =
      edge_wire_header(static_cast<int>(consumer.size()));
  buf.resize(head + static_cast<std::size_t>(count) * sizeof(S));
  Int header[2] = {static_cast<Int>(edge), count};
  std::memcpy(buf.data(), header, sizeof(header));
  std::memcpy(buf.data() + sizeof(header), consumer.data(),
              consumer.size() * sizeof(Int));
}

template <typename S>
std::vector<std::uint8_t> encode_edge(int edge, const IntVec& consumer,
                                      const std::vector<S>& payload) {
  std::vector<std::uint8_t> buf;
  S* out = begin_edge_wire<S>(buf, static_cast<int>(consumer.size()),
                              static_cast<Int>(payload.size()));
  if (!payload.empty())
    std::memcpy(out, payload.data(), payload.size() * sizeof(S));
  finish_edge_wire<S>(buf, edge, consumer,
                      static_cast<Int>(payload.size()));
  return buf;
}

/// Decodes one edge message, validating every header field against the
/// receiver's own geometry before trusting it: `num_edges` bounds the edge
/// index and the payload count must be non-negative and match the buffer
/// length exactly (checked without overflowing).
template <typename S>
void decode_edge(const std::vector<std::uint8_t>& buf, int dim,
                 int num_edges, int* edge, IntVec* consumer,
                 std::vector<S>* payload) {
  Int header[2];
  DPGEN_CHECK(buf.size() >= sizeof(header), "malformed edge message");
  std::memcpy(header, buf.data(), sizeof(header));
  DPGEN_CHECK(header[0] >= 0 && header[0] < num_edges,
              cat("edge message: edge index ", header[0], " outside [0, ",
                  num_edges, ")"));
  consumer->resize(static_cast<std::size_t>(dim));
  const std::size_t head = edge_wire_header(dim);
  DPGEN_CHECK(buf.size() >= head, "malformed edge message");
  DPGEN_CHECK(header[1] >= 0 &&
                  static_cast<std::uint64_t>(header[1]) <=
                      (buf.size() - head) / sizeof(S),
              cat("edge message: bad payload count ", header[1]));
  const auto count = static_cast<std::size_t>(header[1]);
  DPGEN_CHECK(buf.size() == head + count * sizeof(S),
              "edge message length mismatch");
  *edge = static_cast<int>(header[0]);
  std::memcpy(consumer->data(), buf.data() + sizeof(header),
              consumer->size() * sizeof(Int));
  const S* src = reinterpret_cast<const S*>(buf.data() + head);
  payload->assign(src, src + count);
}

/// Bounded exponential backoff for the driver's wait loops.  The first
/// pauses only yield (a waiting thread reacts within a scheduling
/// quantum); after that it sleeps with doubling duration up to a small
/// cap, so an idle worker stops burning its core while a message or a
/// ready tile is at most ~an eighth of a millisecond away.
class Backoff {
 public:
  void pause() {
    if (spins_ < kSpinLimit) {
      ++spins_;
      std::this_thread::yield();
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us_));
    if (sleep_us_ < kMaxSleepUs) sleep_us_ *= 2;
  }

  void reset() {
    spins_ = 0;
    sleep_us_ = 1;
  }

 private:
  static constexpr int kSpinLimit = 64;
  static constexpr long kMaxSleepUs = 128;
  int spins_ = 0;
  long sleep_us_ = 1;
};

}  // namespace detail

/// Executes one rank's share of the problem.  Returns per-rank statistics.
/// With a checkpoint store, completed tiles and their outgoing edges are
/// recorded as the run progresses, previously-executed work is credited
/// instead of re-run, and stored edges seed the fresh tile table (restart
/// protocol in checkpoint.hpp).
template <typename S>
RunStats run_node(ProblemHooks<S>& hooks, minimpi::Comm& comm,
                  const RunOptions& opt,
                  CheckpointStore<S>* checkpoint = nullptr) {
  using Clock = std::chrono::steady_clock;
  const auto t_start = Clock::now();
  const int rank = comm.rank();
  const int dim = hooks.dim();
  const int num_edges = hooks.num_edges();
  const Int owned = hooks.owned_tiles(rank);

  RunStats stats;
  TileTable<S> table(opt.order, opt.threads);
  // Producers can only re-execute (and re-send credited edges) after a
  // resume or restart; the per-edge executed() screens below are skipped
  // entirely on a clean first attempt.  Fixed for the whole attempt: the
  // store enters replay mode between attempts, never mid-run.
  const bool ckpt_replay = checkpoint && checkpoint->replay_possible();
  if (opt.replay_guard || ckpt_replay) table.enable_replay_guard();
  RankProgress progress;
  RunProbe run_probe(opt, comm, progress, dim, num_edges, owned,
                     checkpoint != nullptr, [&] { return table.snapshot(); });

  // ---- initial tiles (paper IV.K): serial, then filtered by ownership ----
  {
    obs::ScopedSpan span(obs::Phase::kInitScan);
    const auto t0 = Clock::now();
    std::vector<IntVec> initial;
    hooks.initial_tiles(initial);
    for (auto& t : initial) {
      if (hooks.owner(t) != rank) continue;
      // Tiles the checkpoint already has results for are credited below
      // instead of re-run.
      if (ckpt_replay && checkpoint->executed(t)) continue;
      table.seed_ready(std::move(t));
      ++stats.initial_tiles;
    }
    stats.init_scan_seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
  }

  if (checkpoint) {
    // Restart seeding: credit executed owned tiles and replay stored
    // edges for this rank's not-yet-executed consumers into the fresh
    // table.  Non-executed producers re-execute and re-send live.
    progress.done.store(checkpoint->seed_rank(
        rank, [&](const IntVec& t) { return hooks.owner(t); },
        [&](const IntVec& t) { return hooks.dep_count(t); }, table));
    checkpoint->attach_table(rank, &table);
  }
  // Declared after `table` so detach runs before the table dies.
  struct CheckpointDetach {
    CheckpointStore<S>* store;
    int rank;
    ~CheckpointDetach() {
      if (store) store->detach_table(rank);
    }
  } checkpoint_detach{checkpoint, rank};
  std::mutex poll_mu;  // the paper's "poll ... if lock available"
  // A one-rank world has no peer to hear from: skip the mailbox (and its
  // two locks) on every tile.
  const bool has_peers = comm.size() > 1;
  // Worker-failure latch: the first exception a worker throws (a
  // TransportFailure from a poisoned wire, or a hook error) is captured
  // and rethrown after the join; progress.worker_failed stops the other
  // workers' loops so they unwind instead of waiting for tiles that will
  // never come.
  std::mutex error_mu;
  std::exception_ptr first_error;
  // Wire buffers are recycled rank-wide: try_recv frees a message's buffer
  // into this pool and the next remote pack reuses it, so a pipelined
  // exchange settles into zero wire allocations per edge.
  detail::SharedBufferPool<std::uint8_t> wire_pool;

  auto expected_deps = [&](const IntVec& t) { return hooks.dep_count(t); };

  auto worker = [&](int worker_id) {
    WorkerProbe probe(run_probe, worker_id);
    // This worker's side of the table: the tiles its deliveries complete
    // wait there for its next pop.
    typename TileTable<S>::Worker local;
    std::vector<S> buffer(static_cast<std::size_t>(hooks.buffer_size()));
    // Payload vectors cycle worker-locally: each tile's unpack releases
    // exactly the buffers its packs then re-acquire, so after warm-up
    // every acquire is a pool hit.
    detail::BufferPool<S> payload_pool;
    IntVec consumer(static_cast<std::size_t>(dim));
    IntVec producer(static_cast<std::size_t>(dim));
    IntVec poll_consumer;
    // Outgoing edges of the tile in flight, captured for the checkpoint
    // (recorded atomically with the executed mark in tile_complete).
    std::vector<CheckpointEdge<S>> ckpt_edges;
    detail::Backoff backoff;

    // 6. drain this rank's mailbox into the table if the comm lock is free.
    auto poll = [&]() -> bool {
      if (!has_peers) return false;
      std::unique_lock<std::mutex> lock(poll_mu, std::try_to_lock);
      if (!lock.owns_lock()) return false;
      auto span = probe.poll();
      bool got = false;
      while (auto msg = comm.try_recv()) {
        EdgeData<S> ed;
        ed.payload = payload_pool.acquire();
        detail::decode_edge<S>(msg->payload, dim, num_edges, &ed.edge,
                               &poll_consumer, &ed.payload);
        // After a restart/resume, a re-executing producer re-sends edges
        // whose consumer the checkpoint already credits as executed.
        // Delivering those would rebuild the consumer's full dependency
        // set and make it execute twice, so they are dropped here.
        const bool replayed =
            ckpt_replay && checkpoint->executed(poll_consumer);
        probe.deliver(*msg, ed.edge, replayed, &ed.msg);
        wire_pool.release(std::move(msg->payload));
        if (replayed)
          payload_pool.release(std::move(ed.payload));
        else
          table.deliver(local, poll_consumer, expected_deps, std::move(ed));
        got = true;
      }
      return got;
    };

    while (!progress.worker_failed.load(std::memory_order_acquire) &&
           progress.done.load(std::memory_order_acquire) < owned) {
      // 1. get the next available tile
      auto ready = table.pop(local);
      if (!ready) {
        // 6'. idle path: poll, then back off so the core is not burnt.
        probe.idle_begin();
        if (poll()) {
          progress.progress_marker.fetch_add(1);
          backoff.reset();
        }
        backoff.pause();
        probe.publish();
        probe.watch_stall();
        continue;
      }
      if (probe.idle_end()) backoff.reset();
      probe.tile_begin([&] { return hooks.tile_cells(ready->tile); });

      // 2. fresh buffer + unpack stored edges (payloads go back to the
      // pool, where step 4's packs pick them straight up again)
      {
        obs::ScopedSpan span(obs::Phase::kUnpack, &ready->tile);
        if constexpr (std::is_floating_point_v<S>) {
          std::fill(buffer.begin(), buffer.end(),
                    opt.poison_buffers ? std::numeric_limits<S>::quiet_NaN()
                                       : S{});
        } else {
          std::fill(buffer.begin(), buffer.end(), S{});
        }
        for (auto& e : ready->edges) {
          const IntVec& off = hooks.edge_offset(e.edge);
          for (int k = 0; k < dim; ++k)
            producer[static_cast<std::size_t>(k)] =
                add_ck(ready->tile[static_cast<std::size_t>(k)],
                       off[static_cast<std::size_t>(k)]);
          hooks.unpack(e.edge, producer, e.payload.data(),
                       static_cast<Int>(e.payload.size()), buffer.data());
          probe.edge_unpacked(e.msg);
          payload_pool.release(std::move(e.payload));
        }
      }
      probe.dispatch(*ready);

      // 3. execute
      probe.execute(ready->tile,
                    [&] { hooks.execute_tile(ready->tile, buffer.data()); });
      hooks.on_tile_executed(ready->tile, buffer.data());

      // 4. pack and route each valid outgoing edge
      for (int e = 0; e < num_edges; ++e) {
        const IntVec& off = hooks.edge_offset(e);
        for (int k = 0; k < dim; ++k)
          consumer[static_cast<std::size_t>(k)] =
              sub_ck(ready->tile[static_cast<std::size_t>(k)],
                     off[static_cast<std::size_t>(k)]);
        if (!hooks.tile_exists(consumer)) continue;
        // Executed consumers (possible only after a restart/resume, when
        // this producer is re-running) already folded this edge into their
        // recorded results; sending it again would at best be dropped at
        // the receiver and at worst re-execute the consumer.
        if (ckpt_replay && checkpoint->executed(consumer)) continue;
        const int dst = hooks.owner(consumer);
        if (dst == rank) {
          // Local edge: pack into a pooled payload vector and move it
          // into the table — no copies anywhere on the path.
          EdgeData<S> ed;
          ed.edge = e;
          ed.payload = payload_pool.acquire();
          ed.payload.resize(
              static_cast<std::size_t>(hooks.edge_capacity(e)));
          Int count;
          {
            obs::ScopedSpan span(obs::Phase::kPack, &ready->tile);
            count = hooks.pack(e, ready->tile, buffer.data(),
                               ed.payload.data());
          }
          DPGEN_ASSERT(count >= 0 &&
                       count <= static_cast<Int>(ed.payload.size()));
          ed.payload.resize(static_cast<std::size_t>(count));
          probe.edge_routed(e, count, /*remote=*/false);
          if (checkpoint)
            ckpt_edges.push_back(CheckpointEdge<S>{consumer, e, ed.payload});
          table.deliver(local, consumer, expected_deps, std::move(ed));
        } else {
          // Remote edge: pack straight into the wire buffer after the
          // reserved header, then move the buffer into the mailbox.
          auto span = probe.send(consumer);
          std::vector<std::uint8_t> wire = wire_pool.acquire();
          S* out = detail::begin_edge_wire<S>(wire, dim,
                                              hooks.edge_capacity(e));
          Int count;
          {
            obs::ScopedSpan pack_span(obs::Phase::kPack, &ready->tile);
            count = hooks.pack(e, ready->tile, buffer.data(), out);
          }
          DPGEN_ASSERT(count >= 0 && count <= hooks.edge_capacity(e));
          detail::finish_edge_wire<S>(wire, e, consumer, count);
          probe.edge_routed(e, count, /*remote=*/true);
          if (checkpoint)
            // finish_edge_wire only shrinks the buffer, so `out` (the
            // payload region) is still valid here.
            ckpt_edges.push_back(
                CheckpointEdge<S>{consumer, e, std::vector<S>(out, out + count)});
          const minimpi::MsgEnvelope* env = probe.envelope(dst);
          if (!comm.try_send(dst, e, wire, env)) {
            // Destination buffers full: service our own mailbox while
            // backing off, which avoids cyclic send deadlocks under
            // small buffer budgets.
            probe.blocked_send(consumer, [&] {
              detail::Backoff send_backoff;
              do {
                if (progress.worker_failed.load(std::memory_order_acquire))
                  raise("peer worker failed while this send was blocked");
                poll();
                // Tiles this poll made ready must not wait for the send.
                table.flush(local);
                send_backoff.pause();
              } while (!comm.try_send(dst, e, wire, env));
            });
          }
        }
      }

      // Completed-tile record (the executed mark and the outgoing edges
      // land in one atomic step, so the store never names a producer
      // whose edges it does not hold).
      if (checkpoint) {
        checkpoint->tile_complete(ready->tile, std::move(ckpt_edges));
        ckpt_edges.clear();
      }

      // 5. keep the tile's containers so this worker's next pending
      // slots reuse their heap storage (payloads already went to
      // payload_pool during unpack); the tiles step 4 made ready reach
      // the heap in the next pop.
      local.recycle(std::move(*ready));
      progress.done.fetch_add(1, std::memory_order_release);
      probe.tile_end();
      // 6. opportunistic poll
      poll();
    }
    table.flush(local);
    probe.finish(payload_pool.hits(), payload_pool.misses());
  };

  // Worker exceptions must not escape their threads (std::terminate);
  // capture the first and rethrow it on the spawning thread after the
  // join, which is how a TransportFailure reaches the engine's
  // fault-tolerant restart loop.
  auto guarded_worker = [&](int w) {
    try {
      worker(w);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      progress.worker_failed.store(true, std::memory_order_release);
    }
  };

#if defined(_OPENMP) && defined(DPGEN_RUNTIME_USE_OPENMP)
#pragma omp parallel num_threads(opt.threads)
  { guarded_worker(omp_get_thread_num()); }
#else
  if (opt.threads <= 1) {
    guarded_worker(0);
  } else {
    std::vector<std::thread> threads;
    for (int w = 0; w < opt.threads; ++w)
      threads.emplace_back(guarded_worker, w);
    for (auto& t : threads) t.join();
  }
#endif

  if (first_error) {
    // A rank about to unwind must not leave its peers parked: they may
    // already be waiting in the final barrier (which only wakes on
    // transport failure) or starving for edges this rank will never send.
    // TransportFailure implies the transport is already poisoned; any
    // other error poisons it here so the whole world unwinds.
    try {
      std::rethrow_exception(first_error);
    } catch (const minimpi::TransportFailure&) {
    } catch (const std::exception& e) {
      comm.declare_failure(cat("rank ", rank, " worker error: ", e.what()));
    } catch (...) {
      comm.declare_failure(cat("rank ", rank, " worker error"));
    }
    std::rethrow_exception(first_error);
  }

  run_probe.finish(wire_pool.hits(), wire_pool.misses(), &stats);
  {
    obs::ScopedSpan span(obs::Phase::kBarrier);
    comm.barrier();
  }
  stats.table = table.stats();
  stats.messages_sent = comm.messages_sent();
  stats.bytes_sent = comm.bytes_sent();
  stats.blocked_sends = comm.blocked_sends();
  stats.total_seconds =
      std::chrono::duration<double>(Clock::now() - t_start).count();
  run_probe.gather();
  return stats;
}

// Compiled once, with the library's OpenMP setting (program*.cpp).
extern template RunStats run_node<double>(ProblemHooks<double>&,
                                          minimpi::Comm&, const RunOptions&,
                                          CheckpointStore<double>*);
extern template RunStats run_node<float>(ProblemHooks<float>&,
                                         minimpi::Comm&, const RunOptions&,
                                         CheckpointStore<float>*);

}  // namespace dpgen::runtime
