#include "check/explorer.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace diffindex {
namespace check {
namespace {

using Op = DecisionRecord::Option;

// Independence for sleep-set propagation. Conservative: prune only when
// both ops name a resource and the resources differ; everything else is
// treated as dependent (never pruned on).
bool Independent(const Op& a, const Op& b) {
  if (a.thread == b.thread) return false;
  if (a.resource == 0 || b.resource == 0) return false;
  return a.resource != b.resource;
}

bool SleepContains(const std::vector<Op>& sleep, int thread) {
  for (const Op& o : sleep) {
    if (o.thread == thread) return true;
  }
  return false;
}

const Op* FindOption(const DecisionRecord& d, int thread) {
  for (const Op& o : d.options) {
    if (o.thread == thread) return &o;
  }
  return nullptr;
}

// A decision is preemptive when the token holder was still enabled but
// the choice moved the token elsewhere. `running` is -1 at give-up
// points (block/exit), which are never preemptions.
bool IsPreemption(const DecisionRecord& d, int choice) {
  return d.running >= 0 && choice != d.running &&
         FindOption(d, d.running) != nullptr;
}

struct Branch {
  std::vector<int> prefix;
  // Sleep set valid at depth prefix.size() — the parent already
  // propagated it past the branch's forced final choice.
  std::vector<Op> sleep;
};

}  // namespace

ExploreResult Explore(const ExploreOptions& options, const RunFn& run) {
  ExploreResult result;
  const auto start = std::chrono::steady_clock::now();
  auto out_of_time = [&] {
    if (options.time_budget_ms <= 0) return false;
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return elapsed >= std::chrono::milliseconds(options.time_budget_ms);
  };

  std::vector<Branch> stack;
  stack.push_back(Branch{});  // the unconstrained first run

  while (!stack.empty()) {
    if (result.schedules_run >= options.max_schedules) {
      result.hit_schedule_cap = true;
      break;
    }
    if (out_of_time()) {
      result.hit_time_cap = true;
      break;
    }
    Branch branch = std::move(stack.back());
    stack.pop_back();

    RunOutcome out = run(branch.prefix);
    ++result.schedules_run;
    result.max_depth =
        std::max(result.max_depth, static_cast<int>(out.decisions.size()));
    result.fingerprints.insert(out.fingerprint);
    if (out.diverged) {
      // The prefix did not reproduce the parent's interleaving — the
      // model is nondeterministic. Branching further from this trace
      // would chase ghosts; surface the count instead.
      ++result.divergences;
      continue;
    }
    if (!out.violation.empty()) {
      ++result.violations;
      if (result.first_violation.empty()) {
        result.first_violation = out.violation;
        result.violating_choices.reserve(out.decisions.size());
        for (const DecisionRecord& d : out.decisions) {
          result.violating_choices.push_back(d.chosen);
        }
      }
      if (options.stop_on_violation) break;
    }

    const std::vector<DecisionRecord>& ds = out.decisions;
    const size_t base = branch.prefix.size();
    if (ds.size() < base) continue;  // run ended inside the prefix

    // Cumulative preemption count along the chosen path.
    std::vector<int> preemptions(ds.size() + 1, 0);
    for (size_t i = 0; i < ds.size(); ++i) {
      preemptions[i + 1] =
          preemptions[i] + (IsPreemption(ds[i], ds[i].chosen) ? 1 : 0);
    }

    std::vector<Op> sleep = branch.sleep;
    // Branches extend the actually-chosen trace (identical to
    // branch.prefix over the forced region, since the run didn't
    // diverge).
    std::vector<int> chosen_prefix;
    chosen_prefix.reserve(ds.size());
    for (const DecisionRecord& d : ds) chosen_prefix.push_back(d.chosen);

    for (size_t i = base; i < ds.size(); ++i) {
      const DecisionRecord& d = ds[i];
      const Op* chosen_op = FindOption(d, d.chosen);
      std::vector<Op> earlier;  // siblings already generated at depth i
      for (const Op& alt : d.options) {
        if (alt.thread == d.chosen) continue;
        if (options.use_sleep_sets && SleepContains(sleep, alt.thread)) {
          continue;
        }
        if (options.preemption_bound >= 0) {
          const int p =
              preemptions[i] + (IsPreemption(d, alt.thread) ? 1 : 0);
          if (p > options.preemption_bound) continue;
        }
        Branch nb;
        nb.prefix.assign(chosen_prefix.begin(),
                         chosen_prefix.begin() + static_cast<long>(i));
        nb.prefix.push_back(alt.thread);
        if (options.use_sleep_sets) {
          // The new branch need not re-explore the already-covered
          // chosen op or its earlier siblings first — they stay asleep
          // until a dependent op wakes them.
          nb.sleep = sleep;
          if (chosen_op != nullptr) {
            std::vector<Op> filtered;
            filtered.reserve(nb.sleep.size() + 1 + earlier.size());
            nb.sleep.push_back(*chosen_op);
            for (const Op& e : earlier) nb.sleep.push_back(e);
            // Propagate past the branch's own first step: drop sleepers
            // dependent with `alt`.
            for (const Op& o : nb.sleep) {
              if (Independent(o, alt)) filtered.push_back(o);
            }
            nb.sleep = std::move(filtered);
          }
        }
        earlier.push_back(alt);
        stack.push_back(std::move(nb));
      }
      // Propagate the sleep set past the chosen op: dependent sleepers
      // wake up (they must be explored below this point).
      if (chosen_op != nullptr) {
        std::vector<Op> next;
        next.reserve(sleep.size());
        for (const Op& o : sleep) {
          if (Independent(o, *chosen_op)) next.push_back(o);
        }
        sleep = std::move(next);
      }
    }
  }
  return result;
}

}  // namespace check
}  // namespace diffindex
