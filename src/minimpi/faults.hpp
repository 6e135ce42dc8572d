#pragma once
// Seeded, schedule-deterministic fault injection for the minimpi wire
// (ROADMAP item 5; proven by tests/test_faults.cpp).
//
// FaultInjector decorates an InProcessTransport and misbehaves on a plan:
//   * kill  — a rank dies at its Nth data-plane event: the whole stack
//     is poisoned (every rank's next operation throws TransportFailure)
//     and the rank is reported dead, so the engine restarts from the
//     checkpoint over the survivors;
//   * drop  — the Nth message on a link vanishes (the sender believes it
//     was delivered).  Recovery path: the starved consumer rank declares
//     a transport failure after `recover_stall_seconds` without progress
//     and the run restarts from the checkpoint;
//   * dup   — the Nth message on a link is delivered twice (the tile
//     table's duplicate-edge guard must drop the second copy);
//   * delay — the Nth message on a link is parked and reinjected only
//     after the destination rank performs `hold` further transport
//     operations (reordering without loss);
//   * slow  — a rank sleeps a fixed number of microseconds on every
//     transport operation (a straggler, not a failure).
//
// Determinism: kills count a rank's *data-plane events* (accepted posts
// with a nonnegative tag, receives that return a message) and link faults
// per-link *messages*, never wall time or idle polls, so a plan fires at
// the same logical point on every run.  Delay releases count every
// operation, so a parked message reaches a destination that only polls.
//
// FaultPlan has a compact textual grammar (docs/fault-tolerance.md):
//   kill:R@N; drop:S>D@N; dup:S>D@N; delay:S>D@N+H; slow:R@U
// with `*` as a source/destination wildcard, e.g.
//   "kill:1@120;slow:0@25" or "drop:*>*@3".
// parse() and to_string() round-trip, so a failing randomized soak
// iteration logs a plan string that replays the failure exactly.

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "minimpi/transport.hpp"

namespace dpgen::minimpi {

struct FaultPlan {
  struct Kill {
    int rank = 0;
    long long after_ops = 1;  ///< dies at its after_ops-th data-plane event
  };
  /// Link faults apply to data-plane messages only (nonnegative tags);
  /// the collective tag space is exempt — see FaultInjector::try_post.
  struct LinkFault {
    enum Kind { kDrop, kDuplicate, kDelay };
    Kind kind = kDrop;
    int src = -1;        ///< -1 = any source
    int dst = -1;        ///< -1 = any destination
    long long nth = 1;   ///< fires on the nth message of a matching link
    long long hold = 4;  ///< delay only: destination ops before release
  };
  struct Slow {
    int rank = 0;
    long long op_delay_us = 10;
  };

  std::vector<Kill> kills;
  std::vector<LinkFault> links;
  std::vector<Slow> slows;

  bool empty() const {
    return kills.empty() && links.empty() && slows.empty();
  }

  std::string to_string() const;
  /// Parses the grammar above; throws dpgen::Error on malformed input.
  static FaultPlan parse(const std::string& text);
  /// A seeded random plan (soak testing): one or two faults drawn from
  /// every category, with triggers sized for small lattice runs.
  static FaultPlan random(unsigned seed, int nranks);
};

/// What the injector actually did, for test assertions ("the kill fired",
/// "at least one message was dropped").
struct FaultStats {
  long long kills_fired = 0;
  long long messages_dropped = 0;
  long long messages_duplicated = 0;
  long long messages_delayed = 0;
  long long slow_ops = 0;
  long long posts_to_dead = 0;  ///< sends swallowed after a rank died
  long long messages_posted = 0;  ///< data-plane posts accepted
};

class FaultInjector final : public Transport {
 public:
  FaultInjector(std::shared_ptr<InProcessTransport> inner, FaultPlan plan);

  int nranks() const override { return inner_->nranks(); }

  PostResult try_post(int src, int dst, Message& m) override;
  std::size_t depth(int rank) const override { return inner_->depth(rank); }
  void wait_capacity(int src, int dst) override;

  std::optional<Message> collect(int rank) override;
  std::optional<Message> collect_match(int rank, int src, int tag) override;

  std::vector<int> dead_ranks() const override;
  FaultStats stats() const;
  const FaultPlan& plan() const { return plan_; }

 private:
  /// Counts one transport operation by `rank`: applies slowdowns, releases
  /// parked (delayed) messages due for this rank, re-checks the poison.
  void account_op(int rank);
  /// Counts one data-plane event by `rank` (an accepted post, or a
  /// receive) and fires its due kills (poisoning the stack and throwing).
  void account_data_event(int rank, bool post);

  struct Parked {
    int dst = -1;
    long long release_at = 0;  ///< ops_[dst] threshold for reinjection
    Message msg;
  };

  std::shared_ptr<InProcessTransport> inner_;
  FaultPlan plan_;

  mutable std::mutex mu_;  // guards every mutable field below
  std::vector<long long> ops_;         // per-rank transport op counts
  std::vector<long long> data_events_;  // per-rank data-plane event counts
  std::vector<long long> link_msgs_;   // per src*n+dst message counts
  std::vector<bool> dead_;
  std::vector<bool> kill_fired_;       // parallel to plan_.kills
  std::vector<Parked> parked_;
  FaultStats stats_;
};

}  // namespace dpgen::minimpi
