// Seeded-mutation regression corpus: each previously-fixed concurrency
// bug is re-introduced behind a check::test_hooks flag and the bounded
// exploration must (a) find it, (b) print a replayable schedule string,
// and (c) reproduce the exact failure when that string is replayed.
// This is the end-to-end proof that the checker's bounds are tight
// enough to catch the class of bug it exists for.

#include "check/test_hooks.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "../fault/chaos_harness.h"
#include "check/explorer.h"
#include "check/model_workload.h"
#include "check/schedule.h"

namespace diffindex {
namespace check {
namespace {

#ifdef DIFFINDEX_CHECK

// RAII arm/disarm so a failing assertion can't leak the mutation into
// later tests.
class ScopedMutation {
 public:
  explicit ScopedMutation(std::atomic<bool>& flag) : flag_(flag) {
    flag_.store(true, std::memory_order_relaxed);
  }
  ~ScopedMutation() { flag_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool>& flag_;
};

// The PR-4 min-anchor coalescing bug: collapsing a coalesced survivor's
// retraction anchors (old_ts + covered_old_ts) to the single minimum
// point. With in-order enqueues the collapse is invisible — the dropped
// (newer) anchors only retract versions whose PIs were absorbed in the
// same batch, so there is nothing in the index to miss. The observable
// case needs an enqueue that is out of timestamp order, which the real
// system permits because PostApply runs after write_mu is released:
//   1. writer A applies a1@T1, is preempted at the "auq.enqueue" yield
//      before its task lands in the queue;
//   2. writer B applies b1@T2, enqueues, and the worker drains+delivers
//      b1's entry alone;
//   3. A's task (anchor T1) finally enqueues, A applies a2@T3 and
//      enqueues; the worker drains both in one batch. The survivor's
//      T3 anchor is the one that retracts b1 — min-collapse keeps T1
//      instead, and b1 survives as a phantom.
// The explorer has to find that interleaving inside the bounds below.
ModelOptions CoalescingModel() {
  ModelOptions model;
  model.scheme = IndexScheme::kAsyncSimple;
  model.num_writers = 2;
  model.ops_per_writer = 2;
  model.same_row = true;
  model.drain_batch_size = 2;
  return model;
}

TEST(MutationRegressionTest, MinAnchorCoalescingBugIsCaught) {
  ScopedMutation arm(test_hooks::buggy_min_anchor_coalescing);

  ExploreOptions explore;
  explore.max_schedules = 6000;
  explore.preemption_bound = 3;  // the scenario above needs ~3 forced switches
  explore.stop_on_violation = true;
  ExploreResult result = Explore(explore, ModelRunner(CoalescingModel()));

  ASSERT_GT(result.violations, 0)
      << "mutation survived " << result.schedules_run
      << " schedules — exploration bounds too loose to catch the PR-4 "
         "coalescing bug";
  EXPECT_NE(result.first_violation.find("phantom"), std::string::npos)
      << result.first_violation;

  const std::string schedule = FormatSchedule(
      ToSchedule(CoalescingModel(), result.violating_choices));
  std::fprintf(stderr,
               "[model-check] mutation caught after %d schedules: %s\n"
               "[model-check] replay with: %s\n",
               result.schedules_run, result.first_violation.c_str(),
               schedule.c_str());

  // Round-trip the printed string through the chaos harness's replay
  // entry point: the exact same interleaving, the exact same violation.
  chaos::ChaosReport replay = chaos::ReplaySchedule(schedule);
  ASSERT_FALSE(replay.ok()) << "replayed schedule no longer fails";
  bool reproduced = false;
  for (const std::string& v : replay.violations) {
    if (v.find("phantom") != std::string::npos) reproduced = true;
    EXPECT_EQ(v.find("diverged"), std::string::npos) << v;
  }
  EXPECT_TRUE(reproduced) << replay.Summary();
}

// The timestamp-inversion race the checker itself found (and this PR
// fixed): drawing a put's timestamp before the region's write-serialized
// section lets two same-row puts apply in the opposite order of their
// timestamps, so the later put's retraction read misses the earlier,
// not-yet-applied version — a phantom. Group commit widens the window
// (the WAL ticket wait happens under write_mu), which is how the sweep
// first hit it.
ModelOptions TsInversionModel() {
  ModelOptions model;
  model.scheme = IndexScheme::kSyncFull;
  model.num_writers = 2;
  model.ops_per_writer = 2;
  model.same_row = true;
  model.group_commit = true;
  return model;
}

TEST(MutationRegressionTest, TsOutsideWriteMuBugIsCaught) {
  ScopedMutation arm(test_hooks::buggy_ts_outside_write_mu);

  ExploreOptions explore;
  explore.max_schedules = 2000;
  explore.preemption_bound = 2;
  explore.stop_on_violation = true;
  ExploreResult result = Explore(explore, ModelRunner(TsInversionModel()));

  ASSERT_GT(result.violations, 0)
      << "mutation survived " << result.schedules_run
      << " schedules — exploration bounds too loose to catch the "
         "timestamp-inversion race";
  EXPECT_NE(result.first_violation.find("phantom"), std::string::npos)
      << result.first_violation;

  const std::string schedule = FormatSchedule(
      ToSchedule(TsInversionModel(), result.violating_choices));
  std::fprintf(stderr,
               "[model-check] mutation caught after %d schedules: %s\n"
               "[model-check] replay with: %s\n",
               result.schedules_run, result.first_violation.c_str(),
               schedule.c_str());

  // NOTE: replaying this string only reproduces the failure while the
  // hook is armed (the fixed code path no longer has the race) — which
  // is exactly what the clean BoundedSweepAllSchemes config proves.
  RunOutcome replay = RunModel(TsInversionModel(), result.violating_choices);
  EXPECT_FALSE(replay.diverged);
  EXPECT_NE(replay.violation.find("phantom"), std::string::npos)
      << replay.violation;
}

// Control: with the mutation disarmed the identical bounded exploration
// must come back clean — the regression test detects the bug, not some
// artifact of the model.
TEST(MutationRegressionTest, UnmutatedModelExploresClean) {
  ExploreOptions explore;
  explore.max_schedules = 6000;
  explore.preemption_bound = 3;
  explore.stop_on_violation = true;
  ExploreResult result = Explore(explore, ModelRunner(CoalescingModel()));
  EXPECT_EQ(result.violations, 0)
      << result.first_violation << "\n  replay with: "
      << FormatSchedule(
             ToSchedule(CoalescingModel(), result.violating_choices));
  EXPECT_GT(result.schedules_run, 0);
}

// A run is fully determined by its decision sequence, so repeating one
// exploration must repeat it exactly: the same schedule count, the same
// violating schedule, the same violation text. Sleep sets carry options
// from one run into the next, so resources are numbered per run rather
// than named by address (every run's cluster lands elsewhere on the
// heap), and timestamps are logical rather than wall-clock.
TEST(MutationRegressionTest, RepeatedExplorationRunsTheSameSchedules) {
  ScopedMutation arm(test_hooks::buggy_min_anchor_coalescing);

  ExploreOptions explore;
  explore.max_schedules = 6000;
  explore.preemption_bound = 3;
  explore.stop_on_violation = true;
  const ExploreResult first =
      Explore(explore, ModelRunner(CoalescingModel()));
  const ExploreResult second =
      Explore(explore, ModelRunner(CoalescingModel()));

  ASSERT_GT(first.violations, 0);
  EXPECT_EQ(first.schedules_run, second.schedules_run);
  EXPECT_EQ(first.violating_choices, second.violating_choices);
  EXPECT_EQ(first.first_violation, second.first_violation);
  EXPECT_EQ(first.fingerprints, second.fingerprints);
}

#else  // !DIFFINDEX_CHECK

TEST(MutationRegressionTest, RequiresCheckBuild) {
  GTEST_SKIP() << "mutation hooks are only consulted under "
                  "-DDIFFINDEX_CHECK=ON";
}

#endif  // DIFFINDEX_CHECK

}  // namespace
}  // namespace check
}  // namespace diffindex
