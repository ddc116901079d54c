// Tests for the RSQF (2-bit + offsets metadata scheme), the Adaptive
// Range Filter, and the learned filter.

#include <algorithm>
#include <cstdint>
#include <set>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "bloom/bloom_filter.h"
#include "quotient/quotient_filter.h"
#include "quotient/rsqf.h"
#include "range/arf.h"
#include "stacked/learned_filter.h"
#include "util/bits.h"
#include "util/random.h"
#include "workload/generators.h"

namespace bbf {
namespace {

// --- RSQF -------------------------------------------------------------------

TEST(Rsqf, BasicRoundTrip) {
  Rsqf f(8, 8);
  EXPECT_FALSE(f.Contains(1));
  EXPECT_TRUE(f.Insert(1));
  EXPECT_TRUE(f.Contains(1));
  EXPECT_FALSE(f.Erase(1));  // Membership-only variant: no deletes.
  EXPECT_TRUE(f.CheckInvariants());
}

class RsqfWidths : public ::testing::TestWithParam<int> {};

TEST_P(RsqfWidths, NoFalseNegativesNearFullLoad) {
  const int r = GetParam();
  Rsqf f(14, r);
  const uint64_t n =
      static_cast<uint64_t>((1u << 14) * Rsqf::kMaxLoadFactor) - 8;
  const auto keys = GenerateDistinctKeys(n);
  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
  for (uint64_t k : keys) ASSERT_TRUE(f.Contains(k));
  EXPECT_TRUE(f.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(RemainderWidths, RsqfWidths,
                         ::testing::Values(4, 8, 13));

TEST(Rsqf, InvariantsHoldThroughoutFill) {
  Rsqf f(8, 6);
  SplitMix64 rng(7);
  std::unordered_multiset<uint64_t> ref;
  for (int op = 0; op < 240; ++op) {
    const uint64_t key = rng.NextBelow(400);
    if (f.LoadFactor() >= Rsqf::kMaxLoadFactor) break;
    ASSERT_TRUE(f.Insert(key));
    ref.insert(key);
    ASSERT_TRUE(f.CheckInvariants()) << "op " << op;
    for (uint64_t k : ref) ASSERT_TRUE(f.Contains(k)) << "op " << op;
  }
}

TEST(Rsqf, MetadataCheaperThanThreeBitQf) {
  // The paper's claim behind "n lg(1/eps) + 2.125n": RSQF metadata is
  // ~2.25 bits/slot here (2 + 16/64) vs the original three-bit QF's 3.
  // QuotientFilter keeps its slots in the same table, so it pays the same.
  Rsqf rsqf(16, 10);
  QuotientFilter qf(16, 10);
  EXPECT_EQ(rsqf.SpaceBits(), qf.SpaceBits());
  const double rsqf_meta =
      static_cast<double>(rsqf.SpaceBits()) / ((1u << 16) + 128) - 10;
  EXPECT_NEAR(rsqf_meta, 2.25, 0.05);
  EXPECT_LT(rsqf_meta, 3.0);
}

TEST(Rsqf, FprMatchesConfiguredTarget) {
  Rsqf f = Rsqf::ForCapacity(100000, 0.001);
  const auto keys = GenerateDistinctKeys(100000);
  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
  const auto negatives = GenerateNegativeKeys(keys, 200000);
  uint64_t fp = 0;
  for (uint64_t k : negatives) fp += f.Contains(k);
  EXPECT_LT(static_cast<double>(fp) / negatives.size(), 0.002);
}

TEST(Rsqf, DuplicateInsertsAreStored) {
  Rsqf f(10, 8);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(f.Insert(42));
  EXPECT_TRUE(f.Contains(42));
  EXPECT_TRUE(f.CheckInvariants());
}

// --- ARF --------------------------------------------------------------------

class ArfHarness {
 public:
  explicit ArfHarness(std::vector<uint64_t> keys)
      : keys_(std::move(keys)), key_set_(keys_.begin(), keys_.end()) {}

  bool RangeEmpty(uint64_t lo, uint64_t hi) const {
    const auto it = key_set_.lower_bound(lo);
    return it == key_set_.end() || *it > hi;
  }

  // Drives one query through the filter with store feedback (training).
  bool Query(ArfRangeFilter& arf, uint64_t lo, uint64_t hi) {
    const bool may = arf.MayContainRange(lo, hi);
    if (may) arf.Train(lo, hi, RangeEmpty(lo, hi));
    return may;
  }

  const std::vector<uint64_t>& keys() const { return keys_; }

 private:
  std::vector<uint64_t> keys_;
  std::set<uint64_t> key_set_;
};

TEST(Arf, UntrainedPassesEverything) {
  ArfRangeFilter arf;
  EXPECT_TRUE(arf.MayContainRange(0, 10));
  EXPECT_TRUE(arf.MayContainRange(~uint64_t{0} - 5, ~uint64_t{0}));
}

TEST(Arf, NeverFalseNegativeDuringTraining) {
  ArfHarness h(GenerateDistinctKeys(2000, 91));
  ArfRangeFilter arf(1 << 14);
  SplitMix64 rng(92);
  for (int q = 0; q < 20000; ++q) {
    const uint64_t lo = rng.Next();
    const uint64_t hi = lo + rng.NextBelow(1u << 16);
    if (hi < lo) continue;
    const bool may = h.Query(arf, lo, hi);
    if (!h.RangeEmpty(lo, hi)) {
      ASSERT_TRUE(may) << "trained ARF lost a real range";
    }
  }
  // All point queries on real keys still pass.
  for (uint64_t k : h.keys()) ASSERT_TRUE(arf.MayContainRange(k, k));
}

TEST(Arf, RepeatingWorkloadConvergesToZeroFalsePositives) {
  ArfHarness h(GenerateDistinctKeys(2000, 93));
  ArfRangeFilter arf(1 << 16);
  // A fixed set of repeating empty queries — ARF's sweet spot.
  SplitMix64 rng(94);
  std::vector<std::pair<uint64_t, uint64_t>> workload;
  while (workload.size() < 500) {
    const uint64_t lo = rng.Next();
    const uint64_t hi = lo + 1000;
    if (hi >= lo && h.RangeEmpty(lo, hi)) workload.emplace_back(lo, hi);
  }
  uint64_t first_pass = 0;
  for (const auto& [lo, hi] : workload) first_pass += h.Query(arf, lo, hi);
  EXPECT_EQ(first_pass, workload.size());  // Untrained: all FPs.
  uint64_t second_pass = 0;
  for (const auto& [lo, hi] : workload) second_pass += h.Query(arf, lo, hi);
  EXPECT_EQ(second_pass, 0u);  // Fully learned.
}

TEST(Arf, ShiftedWorkloadNeedsRetraining) {
  ArfHarness h(GenerateDistinctKeys(2000, 95));
  ArfRangeFilter arf(1 << 16);
  SplitMix64 rng(96);
  // Train on one region of the query space...
  for (int q = 0; q < 2000; ++q) {
    const uint64_t lo = rng.NextBelow(uint64_t{1} << 62);
    h.Query(arf, lo, lo + 1000);
  }
  // ...then shift the workload to a different region: FPs return.
  uint64_t fps = 0;
  uint64_t total = 0;
  for (int q = 0; q < 2000; ++q) {
    const uint64_t lo = (uint64_t{3} << 62) + rng.NextBelow(uint64_t{1} << 61);
    const uint64_t hi = lo + 1000;
    if (!h.RangeEmpty(lo, hi)) continue;
    ++total;
    fps += arf.MayContainRange(lo, hi);
  }
  EXPECT_GT(static_cast<double>(fps) / total, 0.5)
      << "ARF should not generalize beyond what it was trained on";
}

TEST(Arf, NodeBudgetFreezesRefinement) {
  ArfHarness h(GenerateDistinctKeys(500, 97));
  ArfRangeFilter arf(/*max_nodes=*/64);
  SplitMix64 rng(98);
  for (int q = 0; q < 5000; ++q) {
    const uint64_t lo = rng.Next();
    h.Query(arf, lo, lo + 100);
  }
  EXPECT_LE(arf.num_nodes(), 64u);
  for (uint64_t k : h.keys()) ASSERT_TRUE(arf.MayContainRange(k, k));
}

// --- Learned filter ---------------------------------------------------------

std::vector<uint64_t> ClusteredKeys(uint64_t n, uint64_t seed) {
  // Keys arrive in ~100 dense clusters — the structured distribution a
  // learned model can exploit.
  SplitMix64 rng(seed);
  std::vector<uint64_t> keys;
  while (keys.size() < n) {
    uint64_t base = rng.Next() & ~LowMask(24);
    const uint64_t count = 500 + rng.NextBelow(1000);
    for (uint64_t i = 0; i < count && keys.size() < n; ++i) {
      base += 1 + rng.NextBelow(3);  // Dense: gaps of 1..3.
      keys.push_back(base);
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

TEST(LearnedFilter, NoFalseNegativesEver) {
  const auto keys = ClusteredKeys(100000, 1);
  LearnedFilter f(keys, /*max_gap=*/16, /*min_run=*/64, 10.0);
  for (uint64_t k : keys) ASSERT_TRUE(f.Contains(k));
}

TEST(LearnedFilter, BeatsBloomOnClusteredKeys) {
  const auto keys = ClusteredKeys(100000, 2);
  LearnedFilter learned(keys, 16, 64, 10.0);
  BloomFilter bloom(keys.size(), 10.0);
  for (uint64_t k : keys) bloom.Insert(k);
  // Most keys are inside modeled intervals -> tiny backup filter.
  EXPECT_GT(learned.modeled_keys(), keys.size() * 8 / 10);
  EXPECT_LT(learned.SpaceBits() * 3, bloom.SpaceBits());
  // And uniform negatives still see a decent FPR.
  const auto negatives = GenerateNegativeKeys(keys, 50000, 3);
  uint64_t fp = 0;
  for (uint64_t k : negatives) fp += learned.Contains(k);
  EXPECT_LT(static_cast<double>(fp) / negatives.size(), 0.02);
}

TEST(LearnedFilter, DegeneratesOnUniformKeys) {
  const auto keys = GenerateDistinctKeys(50000, 4);
  LearnedFilter f(keys, 16, 64, 10.0);
  EXPECT_EQ(f.num_intervals(), 0u);  // Nothing to learn.
  for (uint64_t k : keys) ASSERT_TRUE(f.Contains(k));  // Backup covers all.
}

TEST(LearnedFilter, InIntervalNegativesAlwaysFalsePositive) {
  // The documented weakness: negatives inside dense intervals cannot be
  // filtered at all.
  const auto keys = ClusteredKeys(50000, 5);
  LearnedFilter f(keys, 16, 64, 10.0);
  ASSERT_GT(f.num_intervals(), 0u);
  // Probe gaps between consecutive clustered keys.
  uint64_t in_interval_fps = 0;
  uint64_t probes = 0;
  for (size_t i = 1; i < keys.size() && probes < 1000; ++i) {
    if (keys[i] - keys[i - 1] == 2) {  // A hole inside a dense run.
      ++probes;
      in_interval_fps += f.Contains(keys[i] - 1);
    }
  }
  ASSERT_GT(probes, 100u);
  EXPECT_EQ(in_interval_fps, probes);
}

}  // namespace
}  // namespace bbf
