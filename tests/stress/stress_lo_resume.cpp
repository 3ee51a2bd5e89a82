// Restart-audit campaign for the versioned write path (DESIGN.md §13).
// The write path captures (pred, succ, version) before locking; a failed
// validation resumes from the captured predecessor instead of re-descending
// from the root, and only an exhausted resume budget falls back to a
// counted full restart. This binary compiles the trees with
// LOT_SCHEDULE_PERTURB and fires the kWriterCaptured point — a randomized
// pause between the capture and the lock, i.e. inside the exact window the
// resume machinery exists for — then checks every recorded history for
// linearizability and reconciles it exactly against the tree's telemetry:
// resumes take no descent, every fallback is one counted restart, and the
// windowed "contains never restarts" identity still closes to zero.
#include <gtest/gtest.h>

#include <cstdint>

#include "check/perturb.hpp"
#include "lo/avl.hpp"
#include "lo/bst.hpp"
#include "lo/partial.hpp"
#include "obs/obs.hpp"
#include "stress_common.hpp"

namespace {

using K = std::int64_t;
using lot::obs::Counter;
using lot::check::PerturbPoint;
using lot::stress::run_perturbed_stress;
using lot::stress::scaled;
using lot::stress::StressParams;

static_assert(lot::check::kSchedulePerturb,
              "stress targets must compile the trees with "
              "LOT_SCHEDULE_PERTURB (see tests/stress/CMakeLists.txt)");

template <typename MapT>
class LoResumeStress : public ::testing::Test {};

using Impls = ::testing::Types<
    lot::lo::BstMap<K, K>, lot::lo::AvlMap<K, K>,
    lot::lo::PartialBstMap<K, K>, lot::lo::PartialAvlMap<K, K>>;
TYPED_TEST_SUITE(LoResumeStress, Impls);

// Write-heavy mixed churn across all four tree variants with the
// capture→lock window stretched. The acceptance trio: (a) every history
// linearizable, (b) obs reconciles exactly — including the new
// fallbacks == insert_restarts + erase_restarts cross-check inside
// expect_obs_reconciles — and (c) the perturbation demonstrably landed
// inside the resume window.
TYPED_TEST(LoResumeStress, PerturbedCaptureWindowChurnIsLinearizable) {
  TypeParam map;
  StressParams p;
  p.check_heights = TypeParam::kBalanced;
  p.partial = TypeParam::kLogicalRemoving;
  // Write-heavy (30C/35I/35R) over the default half-dense range: failed
  // interval acquisitions need overlapping writers, and the stretched
  // capture window makes neighbouring keys collide constantly.
  p.contains_pct = 30;
  p.insert_pct = 35;
  p.fire_permille = 60;
  p.max_sleep_us = 80;
  p.seed = 23;
  const auto out = run_perturbed_stress(map, p);
  lot::stress::print_check_stats(TypeParam::name().data(), out);
  lot::stress::expect_linearizable(out);
  lot::stress::expect_obs_reconciles(out, p.scan_len);
  EXPECT_GE(out.total_ops, p.threads *
                               static_cast<std::uint64_t>(p.phases) *
                               p.ops_per_phase);

  // The campaign must actually have perturbed the capture→lock window, or
  // this degenerates into the plain linearizability stress.
  EXPECT_GT(lot::check::perturb_hits(PerturbPoint::kWriterCaptured), 0u);

  const auto d = [&](Counter c) {
    return out.obs_after.counter(c) - out.obs_before.counter(c);
  };
  // The scaled-down sanitizer runs can legitimately land too few
  // collisions for a resume; the full-fat build cannot — with 8 writers on
  // 192 keys and a widened window, failed validations are guaranteed
  // traffic.
  if (LOT_STRESS_DIVISOR == 1) {
    EXPECT_GT(d(Counter::kLocateResumes), 0u)
        << "no failed validation ever resumed in place — the versioned "
           "write path never engaged";
  }
  // Whatever did happen must balance: a fallback is exactly one restart.
  EXPECT_EQ(d(Counter::kValidationFallbacks),
            d(Counter::kInsertRestarts) + d(Counter::kEraseRestarts));
}

// Same churn on two keys: every writer fights for the same interval, so
// the resume path (and, with the tiny default budget, the fallback path)
// is exercised as hard as the schedule allows.
TYPED_TEST(LoResumeStress, SingleIntervalContentionResumesInPlace) {
  TypeParam map;
  StressParams p;
  p.threads = 4;
  p.phases = 1;
  p.ops_per_phase = scaled(4'000);
  p.key_range = 2;
  p.contains_pct = 20;
  p.insert_pct = 40;
  p.prefill = false;
  p.check_heights = TypeParam::kBalanced;
  p.partial = TypeParam::kLogicalRemoving;
  p.fire_permille = 80;
  p.max_sleep_us = 60;
  p.seed = 77;
  const auto out = run_perturbed_stress(map, p);
  lot::stress::print_check_stats("single-interval contention", out);
  lot::stress::expect_linearizable(out);
  lot::stress::expect_obs_reconciles(out, p.scan_len);
  EXPECT_GT(lot::check::perturb_hits(PerturbPoint::kWriterCaptured), 0u);
}

// Runtime escape hatch: a resume budget of zero restores the pre-PR
// root-restart discipline. On the on-time maps every failed validation
// must then be a counted full restart and the resume counter stays flat —
// and the histories are of course still linearizable.
TEST(LoResumeStress, ZeroResumeBudgetRestoresRootRestart) {
  const auto saved = lot::lo::write_resume_limit();
  lot::lo::set_write_resume_limit(0);
  lot::lo::BstMap<K, K> map;
  StressParams p;
  p.phases = 2;
  p.ops_per_phase = scaled(6'000);
  p.contains_pct = 30;
  p.insert_pct = 35;
  p.fire_permille = 60;
  p.max_sleep_us = 80;
  p.seed = 31;
  const auto out = run_perturbed_stress(map, p);
  lot::lo::set_write_resume_limit(saved);
  lot::stress::print_check_stats("zero-budget root restart", out);
  lot::stress::expect_linearizable(out);
  lot::stress::expect_obs_reconciles(out, p.scan_len);

  const auto d = [&](Counter c) {
    return out.obs_after.counter(c) - out.obs_before.counter(c);
  };
  // On-time map + zero budget: the only resume source is the failure tail,
  // and that goes straight to fallback.
  EXPECT_EQ(d(Counter::kLocateResumes), 0u);
  EXPECT_EQ(d(Counter::kValidationFallbacks),
            d(Counter::kInsertRestarts) + d(Counter::kEraseRestarts));
}

}  // namespace
