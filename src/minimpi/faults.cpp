#include "minimpi/faults.hpp"

#include <chrono>
#include <cstdlib>
#include <random>
#include <thread>

#include "support/str.hpp"

namespace dpgen::minimpi {

namespace {

const char* link_kind_name(FaultPlan::LinkFault::Kind kind) {
  switch (kind) {
    case FaultPlan::LinkFault::kDrop:
      return "drop";
    case FaultPlan::LinkFault::kDuplicate:
      return "dup";
    case FaultPlan::LinkFault::kDelay:
      return "delay";
  }
  return "?";
}

std::string rank_or_star(int r) {
  return r < 0 ? std::string("*") : std::to_string(r);
}

int parse_rank_or_star(const std::string& s, const std::string& token) {
  if (s == "*") return -1;
  DPGEN_CHECK(!s.empty() && s.find_first_not_of("0123456789") ==
                                std::string::npos,
              cat("fault plan: bad rank '", s, "' in '", token, "'"));
  return std::atoi(s.c_str());
}

long long parse_count(const std::string& s, const std::string& token) {
  DPGEN_CHECK(!s.empty() && s.find_first_not_of("0123456789") ==
                                std::string::npos,
              cat("fault plan: bad count '", s, "' in '", token, "'"));
  return std::atoll(s.c_str());
}

}  // namespace

std::string FaultPlan::to_string() const {
  std::string out;
  auto append = [&](const std::string& s) {
    if (!out.empty()) out += ';';
    out += s;
  };
  for (const Kill& k : kills)
    append(cat("kill:", k.rank, "@", k.after_ops));
  for (const LinkFault& lf : links) {
    std::string s = cat(link_kind_name(lf.kind), ":", rank_or_star(lf.src),
                        ">", rank_or_star(lf.dst), "@", lf.nth);
    if (lf.kind == LinkFault::kDelay) s += cat("+", lf.hold);
    append(s);
  }
  for (const Slow& s : slows)
    append(cat("slow:", s.rank, "@", s.op_delay_us));
  return out;
}

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  for (const std::string& raw : split(text, ";")) {
    const std::string token = trim(raw);
    if (token.empty()) continue;
    const std::size_t colon = token.find(':');
    DPGEN_CHECK(colon != std::string::npos,
                cat("fault plan: missing ':' in '", token, "'"));
    const std::string kind = token.substr(0, colon);
    const std::string spec = token.substr(colon + 1);
    const std::size_t at = spec.find('@');
    DPGEN_CHECK(at != std::string::npos,
                cat("fault plan: missing '@' in '", token, "'"));
    if (kind == "kill" || kind == "slow") {
      const long long n = parse_count(spec.substr(at + 1), token);
      const int rank = parse_rank_or_star(spec.substr(0, at), token);
      DPGEN_CHECK(rank >= 0,
                  cat("fault plan: '", kind, "' needs a concrete rank"));
      if (kind == "kill")
        plan.kills.push_back(Kill{rank, n});
      else
        plan.slows.push_back(Slow{rank, n});
      continue;
    }
    const std::size_t gt = spec.find('>');
    DPGEN_CHECK(gt != std::string::npos && gt < at,
                cat("fault plan: link fault needs 'S>D@N' in '", token,
                    "'"));
    LinkFault lf;
    if (kind == "drop")
      lf.kind = LinkFault::kDrop;
    else if (kind == "dup")
      lf.kind = LinkFault::kDuplicate;
    else if (kind == "delay")
      lf.kind = LinkFault::kDelay;
    else
      raise(cat("fault plan: unknown fault kind '", kind, "'"));
    lf.src = parse_rank_or_star(spec.substr(0, gt), token);
    lf.dst = parse_rank_or_star(spec.substr(gt + 1, at - gt - 1), token);
    std::string count = spec.substr(at + 1);
    if (lf.kind == LinkFault::kDelay) {
      const std::size_t plus = count.find('+');
      DPGEN_CHECK(plus != std::string::npos,
                  cat("fault plan: delay needs '@N+HOLD' in '", token, "'"));
      lf.hold = parse_count(count.substr(plus + 1), token);
      count = count.substr(0, plus);
    }
    lf.nth = parse_count(count, token);
    plan.links.push_back(lf);
  }
  return plan;
}

FaultPlan FaultPlan::random(unsigned seed, int nranks) {
  std::mt19937 gen(seed);
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(gen);
  };
  FaultPlan plan;
  int kind = pick(0, 4);
  if (kind == 0 && nranks < 2) kind = 1;  // killing the only rank is moot
  switch (kind) {
    case 0:
      plan.kills.push_back(Kill{pick(0, nranks - 1), pick(10, 160)});
      break;
    case 1:
      plan.links.push_back(LinkFault{LinkFault::kDrop, -1, -1, pick(1, 5), 0});
      break;
    case 2:
      plan.links.push_back(
          LinkFault{LinkFault::kDuplicate, -1, -1, pick(1, 5), 0});
      break;
    case 3:
      plan.links.push_back(
          LinkFault{LinkFault::kDelay, -1, -1, pick(1, 5), pick(2, 12)});
      break;
    default:
      plan.slows.push_back(Slow{pick(0, nranks - 1), pick(5, 40)});
      break;
  }
  // Sometimes stack a slowdown on top, so link faults also fire under
  // skewed timing.
  if (pick(0, 3) == 0) plan.slows.push_back(Slow{pick(0, nranks - 1), pick(5, 20)});
  return plan;
}

FaultInjector::FaultInjector(std::shared_ptr<InProcessTransport> inner,
                             FaultPlan plan)
    : Transport(inner->failure_state()),
      inner_(std::move(inner)),
      plan_(std::move(plan)) {
  const int n = nranks();
  ops_.assign(static_cast<std::size_t>(n), 0);
  data_events_.assign(static_cast<std::size_t>(n), 0);
  link_msgs_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                    0);
  dead_.assign(static_cast<std::size_t>(n), false);
  kill_fired_.assign(plan_.kills.size(), false);
  for (const auto& k : plan_.kills) {
    DPGEN_CHECK(k.rank >= 0 && k.rank < n,
                cat("fault plan: kill rank ", k.rank, " outside world of ",
                    n));
    DPGEN_CHECK(k.after_ops >= 1, "fault plan: kill trigger must be >= 1");
  }
  for (const auto& lf : plan_.links) {
    DPGEN_CHECK(lf.src >= -1 && lf.src < n && lf.dst >= -1 && lf.dst < n,
                "fault plan: link fault rank outside world");
    DPGEN_CHECK(lf.nth >= 1, "fault plan: link trigger must be >= 1");
    DPGEN_CHECK(lf.kind != FaultPlan::LinkFault::kDelay || lf.hold >= 1,
                "fault plan: delay hold must be >= 1");
  }
  for (const auto& s : plan_.slows) {
    DPGEN_CHECK(s.rank >= 0 && s.rank < n,
                cat("fault plan: slow rank ", s.rank, " outside world of ",
                    n));
    DPGEN_CHECK(s.op_delay_us >= 0, "fault plan: negative slowdown");
  }
}

void FaultInjector::account_op(int rank) {
  long long sleep_us = 0;
  std::vector<Parked> due;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const long long n = ++ops_[static_cast<std::size_t>(rank)];
    for (const auto& s : plan_.slows)
      if (s.rank == rank) sleep_us += s.op_delay_us;
    if (sleep_us > 0) ++stats_.slow_ops;
    for (std::size_t i = 0; i < parked_.size();) {
      if (parked_[i].dst == rank && n >= parked_[i].release_at) {
        due.push_back(std::move(parked_[i]));
        parked_[i] = std::move(parked_.back());
        parked_.pop_back();
      } else {
        ++i;
      }
    }
  }
  // Reinject due delayed messages before the caller's own receive runs,
  // so a hold of H means "visible after H further destination ops".
  for (auto& p : due) inner_->force_post(p.dst, std::move(p.msg));
  if (sleep_us > 0)
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
  check_alive();
}

void FaultInjector::account_data_event(int rank, bool post) {
  std::string kill_reason;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (post) ++stats_.messages_posted;
    const long long n = ++data_events_[static_cast<std::size_t>(rank)];
    for (std::size_t k = 0; k < plan_.kills.size(); ++k) {
      const auto& kill = plan_.kills[k];
      if (kill_fired_[k] || kill.rank != rank || n < kill.after_ops)
        continue;
      kill_fired_[k] = true;
      dead_[static_cast<std::size_t>(rank)] = true;
      ++stats_.kills_fired;
      kill_reason = cat("rank ", rank, " killed at data-plane event ", n,
                        " by fault plan");
    }
  }
  if (!kill_reason.empty()) {
    fail(kill_reason);
    throw TransportFailure(kill_reason);
  }
}

PostResult FaultInjector::try_post(int src, int dst, Message& m) {
  account_op(src);
  const int tag = m.tag;
  enum class Action { kForward, kSwallow, kPark, kDuplicate };
  Action action = Action::kForward;
  long long park_release = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_[static_cast<std::size_t>(dst)]) {
      ++stats_.posts_to_dead;
      action = Action::kSwallow;
    } else if (m.tag >= 0) {
      // Link faults hit the data plane only (nonnegative tags).  The
      // collective tag space (gather, a negative tag) is exempt: it
      // runs after every rank's worker loop drained, where a dropped
      // message would hang the run with nothing left to trigger
      // recovery — real MPI collectives similarly fail fast rather than
      // silently losing contributions.
      const std::size_t link = static_cast<std::size_t>(src) *
                                   static_cast<std::size_t>(nranks()) +
                               static_cast<std::size_t>(dst);
      const long long count = ++link_msgs_[link];
      for (const auto& lf : plan_.links) {
        if ((lf.src >= 0 && lf.src != src) ||
            (lf.dst >= 0 && lf.dst != dst) || lf.nth != count)
          continue;
        if (lf.kind == FaultPlan::LinkFault::kDrop) {
          ++stats_.messages_dropped;
          action = Action::kSwallow;
        } else if (lf.kind == FaultPlan::LinkFault::kDuplicate) {
          action = Action::kDuplicate;
        } else {
          ++stats_.messages_delayed;
          action = Action::kPark;
          park_release = ops_[static_cast<std::size_t>(dst)] + lf.hold;
        }
        break;  // first matching fault wins
      }
    }
    if (action == Action::kPark)
      parked_.push_back(Parked{dst, park_release, std::move(m)});
  }
  PostResult result = PostResult::kDelivered;
  switch (action) {
    case Action::kSwallow: {
      Message discarded = std::move(m);
      (void)discarded;
      break;
    }
    case Action::kPark:
      break;
    case Action::kDuplicate: {
      Message copy;
      copy.source = m.source;
      copy.tag = m.tag;
      copy.payload = m.payload;
      if (inner_->try_post(src, dst, m) == PostResult::kFull)
        return PostResult::kFull;  // copy discarded; retry counts afresh
      inner_->force_post(dst, std::move(copy));
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.messages_duplicated;
      break;
    }
    case Action::kForward:
      result = inner_->try_post(src, dst, m);
      break;
  }
  // An accepted data-plane post is one of the sender's data-plane events
  // (a full mailbox's retries are not: how often they repeat is timing).
  if (result == PostResult::kDelivered && tag >= 0)
    account_data_event(src, /*post=*/true);
  return result;
}

void FaultInjector::wait_capacity(int src, int dst) {
  account_op(src);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A dead destination never drains its mailbox; return so the caller's
    // retry posts (and the post is swallowed).
    if (dead_[static_cast<std::size_t>(dst)]) return;
  }
  inner_->wait_capacity(src, dst);
}

std::optional<Message> FaultInjector::collect(int rank) {
  account_op(rank);
  std::optional<Message> m = inner_->collect(rank);
  if (m) account_data_event(rank, /*post=*/false);
  return m;
}

std::optional<Message> FaultInjector::collect_match(int rank, int src,
                                                    int tag) {
  account_op(rank);
  std::optional<Message> m = inner_->collect_match(rank, src, tag);
  if (m) account_data_event(rank, /*post=*/false);
  return m;
}

std::vector<int> FaultInjector::dead_ranks() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> out;
  for (std::size_t r = 0; r < dead_.size(); ++r)
    if (dead_[r]) out.push_back(static_cast<int>(r));
  return out;
}

FaultStats FaultInjector::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace dpgen::minimpi
