// Tests for the benchmark substrate itself: the prefill discipline and the
// trial driver must implement §6's methodology faithfully, because every
// table row depends on them.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "baselines/coarse/coarse_map.hpp"
#include "bench/common.hpp"
#include "lo/avl.hpp"
#include "util/cli.hpp"
#include "workload/driver.hpp"
#include "workload/spec.hpp"

namespace {

using K = std::int64_t;
using V = std::int64_t;
namespace wl = lot::workload;

TEST(WorkloadDriver, PrefillReachesTargetSize) {
  const auto spec = wl::make_spec(wl::Mix::k50C25I25R, 10'000);
  lot::lo::AvlMap<K, V> map;
  wl::prefill(map, spec, /*threads=*/4, /*seed=*/1);
  // The shaping phase runs the (zero-drift at target) trial mix for a
  // bounded round, so the final size is the target ± a small random-walk
  // fluctuation.
  const auto size = static_cast<double>(map.size_slow());
  const auto target = static_cast<double>(spec.prefill_target());
  EXPECT_GE(size, target * 0.93);
  EXPECT_LE(size, target * 1.07);
}

TEST(WorkloadDriver, PrefillSteadyStateForAsymmetricMix) {
  const auto spec = wl::make_spec(wl::Mix::k70C20I10R, 9'000);
  EXPECT_EQ(spec.prefill_target(), 6'000);  // 2:1 insert:remove -> 2/3
  lot::lo::AvlMap<K, V> map;
  wl::prefill(map, spec, 2, 7);
  const auto size = static_cast<double>(map.size_slow());
  EXPECT_GE(size, 6'000 * 0.93);
  EXPECT_LE(size, 6'000 * 1.07);
}

TEST(WorkloadDriver, ReadOnlyMixPrefillsToHalf) {
  const auto spec = wl::make_spec(wl::Mix::k100C, 2'000);
  EXPECT_EQ(spec.prefill_target(), 1'000);
  lot::lo::AvlMap<K, V> map;
  wl::prefill(map, spec, 2, 3);
  // No updates in the mix: phase 2 is skipped and the size is exact (up
  // to one in-flight insert per thread).
  EXPECT_GE(map.size_slow(), 1'000u);
  EXPECT_LE(map.size_slow(), 1'002u);
}

TEST(WorkloadDriver, TrialCountsOpsAndRespectsDuration) {
  const auto spec = wl::make_spec(wl::Mix::k70C20I10R, 1'000);
  lot::baselines::CoarseMap<K, V> map;
  wl::prefill(map, spec, 2, 5);
  const auto r = wl::run_trial(map, spec, /*threads=*/2, /*seconds=*/0.2,
                               /*seed=*/5);
  EXPECT_GT(r.total_ops, 0u);
  EXPECT_GE(r.seconds, 0.2);
  EXPECT_LT(r.seconds, 10.0);  // wall clock sanity (loose: CI boxes stall)
  EXPECT_NEAR(r.mops_per_sec,
              static_cast<double>(r.total_ops) / r.seconds / 1e6, 1e-9);
}

TEST(WorkloadDriver, ReadOnlyTrialDoesNotMutate) {
  const auto spec = wl::make_spec(wl::Mix::k100C, 1'000);
  lot::lo::AvlMap<K, V> map;
  wl::prefill(map, spec, 2, 9);
  const auto before = map.size_slow();
  wl::run_trial(map, spec, 2, 0.1, 11);
  EXPECT_EQ(map.size_slow(), before);
}

TEST(WorkloadDriver, MixedTrialHoldsSteadyState) {
  const auto spec = wl::make_spec(wl::Mix::k50C25I25R, 2'000);
  lot::lo::AvlMap<K, V> map;
  wl::prefill(map, spec, 4, 13);
  wl::run_trial(map, spec, 4, 0.3, 13);
  // Symmetric insert/remove keeps the structure near half occupancy.
  const auto size = map.size_slow();
  EXPECT_GT(size, 700u);
  EXPECT_LT(size, 1'300u);
}

// Bench flags are parsed before any thread starts, so a zero or negative
// count must exit there (code 2) rather than reach workload::prefill.
lot::bench::TableConfig parse_table_flags(std::vector<const char*> args) {
  args.insert(args.begin(), "bench");
  lot::util::Cli cli(static_cast<int>(args.size()),
                     const_cast<char**>(args.data()));
  return lot::bench::TableConfig::from_cli(cli);
}

TEST(BenchConfig, RejectsNonPositiveCounts) {
  using ::testing::ExitedWithCode;
  EXPECT_EXIT(parse_table_flags({"--threads=0"}), ExitedWithCode(2),
              "--threads");
  EXPECT_EXIT(parse_table_flags({"--threads=1,-4"}), ExitedWithCode(2),
              "--threads");
  EXPECT_EXIT(parse_table_flags({"--ranges=-1"}), ExitedWithCode(2),
              "--ranges");
  EXPECT_EXIT(parse_table_flags({"--repeats=0"}), ExitedWithCode(2),
              "--repeats");
}

TEST(BenchConfig, AcceptsPositiveCounts) {
  const auto cfg =
      parse_table_flags({"--threads=1,2", "--ranges=100", "--repeats=3"});
  EXPECT_EQ(cfg.threads, (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(cfg.key_ranges, (std::vector<std::int64_t>{100}));
  EXPECT_EQ(cfg.repeats, 3);
}

}  // namespace
