// Deterministic (single-threaded) coverage of the overload-graceful
// serving layer: each SaturationPolicy's admission contract, the
// structured InsertWithStatus outcomes, per-shard statistics, the FPR
// budget of generation chaining, and snapshot round-trips of chained
// shards. The concurrent counterpart lives in concurrent_stress_test.cc.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/filter_io.h"
#include "core/sharded_filter.h"
#include "cuckoo/cuckoo_filter.h"
#include "quotient/quotient_filter.h"
#include "test_seed.h"
#include "workload/generators.h"

namespace bbf {
namespace {

ShardedFilter::ShardFactory QuotientFactory(double fpr) {
  return [fpr](uint64_t cap) -> std::unique_ptr<Filter> {
    return std::make_unique<QuotientFilter>(
        QuotientFilter::ForCapacity(cap, fpr));
  };
}

TEST(SaturationConfigTest, GenerationsForFprBudget) {
  // 2% total budget at 0.5% per generation affords 4 generations.
  EXPECT_EQ(SaturationConfig::GenerationsForFprBudget(0.005, 0.02), 4);
  EXPECT_EQ(SaturationConfig::GenerationsForFprBudget(0.01, 0.01), 1);
  // A budget below one generation's FPR still allows the mandatory first.
  EXPECT_EQ(SaturationConfig::GenerationsForFprBudget(0.01, 0.001), 1);
  EXPECT_EQ(SaturationConfig::GenerationsForFprBudget(0.0, 0.01), 1);
}

TEST(ShardedOverload, RejectPolicyShedsLoadWithoutCorruption) {
  SaturationConfig config;
  config.policy = SaturationPolicy::kReject;
  config.load_threshold = 0.80;
  ShardedFilter f(400, 4, QuotientFactory(0.01), config);

  const auto keys = GenerateDistinctKeys(4000, TestSeed(500));
  std::vector<uint64_t> acked;
  uint64_t rejected = 0;
  for (uint64_t k : keys) {
    const InsertOutcome outcome = f.InsertWithStatus(k);
    // kReject never chains, so kExpanded is impossible.
    ASSERT_NE(outcome, InsertOutcome::kExpanded);
    if (Accepted(outcome)) {
      acked.push_back(k);
    } else {
      ++rejected;
    }
  }
  ASSERT_GT(rejected, 0u) << "workload must overflow the filter";
  EXPECT_EQ(rejected, f.TotalRejected());
  EXPECT_EQ(f.NumKeys(), acked.size());
  for (uint64_t k : acked) ASSERT_TRUE(f.Contains(k));

  // Every shard stayed single-generation and the hot ones report
  // saturation so callers can see the shedding.
  bool any_saturated = false;
  for (const auto& s : f.Stats()) {
    EXPECT_EQ(s.generations, 1u);
    any_saturated |= s.saturated;
  }
  EXPECT_TRUE(any_saturated);
}

TEST(ShardedOverload, ChainPolicyAcceptsPastCapacityWithinFprBudget) {
  // Build the chain budget from a total FPR target the way a deployment
  // would: 2% total at 0.5% per generation -> at most 4 generations.
  const double kPerGenFpr = 0.005;
  const double kFprBudget = 0.02;
  SaturationConfig config;
  config.policy = SaturationPolicy::kChain;
  config.load_threshold = 0.85;
  config.growth = 2.0;
  config.max_generations =
      SaturationConfig::GenerationsForFprBudget(kPerGenFpr, kFprBudget);
  ASSERT_EQ(config.max_generations, 4);

  ShardedFilter f(2000, 4, QuotientFactory(kPerGenFpr), config);

  // 4x the design capacity: far past generation one.
  const auto keys = GenerateDistinctKeys(8000, TestSeed(501));
  std::vector<uint64_t> acked;
  uint64_t expanded = 0;
  for (uint64_t k : keys) {
    const InsertOutcome outcome = f.InsertWithStatus(k);
    if (Accepted(outcome)) {
      acked.push_back(k);
      expanded += outcome == InsertOutcome::kExpanded;
    }
  }
  // Chaining must carry the filter well past its design point.
  EXPECT_GT(acked.size(), 4000u);
  EXPECT_GT(expanded, 0u);
  EXPECT_EQ(f.NumKeys(), acked.size());
  for (uint64_t k : acked) ASSERT_TRUE(f.Contains(k));

  size_t max_generations_seen = 0;
  for (const auto& s : f.Stats()) {
    max_generations_seen = std::max(max_generations_seen, s.generations);
    EXPECT_LE(s.generations,
              static_cast<size_t>(config.max_generations));
  }
  EXPECT_GT(max_generations_seen, 1u);

  // The additive union bound holds: measured FPR stays inside the budget
  // (3% assertion ceiling gives the 2% bound sampling room).
  const auto negatives = GenerateNegativeKeys(keys, 40000, TestSeed(502));
  uint64_t fp = 0;
  for (uint64_t k : negatives) fp += f.Contains(k);
  EXPECT_LT(static_cast<double>(fp) / negatives.size(), 0.03);
}

TEST(ShardedOverload, ChainPolicyRejectsOnlyAfterGenerationBudget) {
  SaturationConfig config;
  config.policy = SaturationPolicy::kChain;
  config.max_generations = 2;
  ShardedFilter f(200, 2, QuotientFactory(0.01), config);

  const auto keys = GenerateDistinctKeys(20000, TestSeed(503));
  uint64_t rejected = 0;
  for (uint64_t k : keys) {
    rejected += f.InsertWithStatus(k) == InsertOutcome::kRejectedFull;
  }
  ASSERT_GT(rejected, 0u);
  for (const auto& s : f.Stats()) {
    EXPECT_LE(s.generations, 2u);
    // Once a shard rejects, it must be reporting saturation.
    if (s.rejected > 0) {
      EXPECT_TRUE(s.saturated);
    }
  }
  EXPECT_EQ(f.TotalRejected(), rejected);
}

TEST(ShardedOverload, ExpandInPlacePolicyDelegatesToNativeGrowth) {
  SaturationConfig config;
  config.policy = SaturationPolicy::kExpandInPlace;
  config.load_threshold = 0.85;
  ShardedFilter f(
      256, 4,
      [](uint64_t cap) -> std::unique_ptr<Filter> {
        return CreateFilterForTag("taffy", cap);
      },
      config);

  const auto keys = GenerateDistinctKeys(10000, TestSeed(504));
  uint64_t accepted = 0;
  uint64_t expanded = 0;
  for (uint64_t k : keys) {
    const InsertOutcome outcome = f.InsertWithStatus(k);
    ASSERT_TRUE(Accepted(outcome)) << "taffy exhausted unexpectedly";
    accepted += outcome == InsertOutcome::kAccepted;
    expanded += outcome == InsertOutcome::kExpanded;
  }
  EXPECT_GT(accepted, 0u);  // Early inserts land below the threshold.
  EXPECT_GT(expanded, 0u);  // Past it, the honest status is kExpanded.
  EXPECT_EQ(f.NumKeys(), keys.size());
  for (uint64_t k : keys) ASSERT_TRUE(f.Contains(k));
  // Shards never chain: growth happens inside the family.
  for (const auto& s : f.Stats()) EXPECT_EQ(s.generations, 1u);
}

TEST(ShardedOverload, StatsExposeHottestShardAndOutcomeCounters) {
  ShardedFilter f(4000, 4, QuotientFactory(0.01));
  const auto keys = GenerateDistinctKeys(3000, TestSeed(505));
  uint64_t acks = 0;
  for (uint64_t k : keys) acks += f.Insert(k);

  const auto stats = f.Stats();
  ASSERT_EQ(stats.size(), 4u);
  uint64_t total = 0;
  uint64_t hottest_keys = 0;
  size_t hottest = 0;
  for (size_t i = 0; i < stats.size(); ++i) {
    total += stats[i].num_keys;
    EXPECT_GE(stats[i].load_factor, 0.0);
    EXPECT_EQ(stats[i].accepted + stats[i].expanded + stats[i].rejected,
              stats[i].num_keys + stats[i].rejected);
    if (stats[i].num_keys > hottest_keys) {
      hottest_keys = stats[i].num_keys;
      hottest = i;
    }
  }
  EXPECT_EQ(total, acks);
  EXPECT_EQ(f.HottestShard(), hottest);
}

TEST(ShardedOverload, BatchInsertMatchesScalarOutcomesPastSaturation) {
  // InsertMany must report the same admission count a scalar twin gets,
  // including through the chaining path (same factory order, same RNG
  // consumption per shard).
  SaturationConfig config;
  config.policy = SaturationPolicy::kChain;
  config.max_generations = 3;
  const auto keys = GenerateDistinctKeys(6000, TestSeed(506));

  ShardedFilter scalar(1000, 4, QuotientFactory(0.01), config);
  size_t scalar_count = 0;
  for (uint64_t k : keys) scalar_count += scalar.Insert(k);

  ShardedFilter batched(1000, 4, QuotientFactory(0.01), config);
  const size_t batched_count = batched.InsertMany(keys);
  EXPECT_EQ(batched_count, scalar_count);
  EXPECT_EQ(batched.NumKeys(), scalar.NumKeys());
  for (uint64_t k : keys) {
    ASSERT_EQ(batched.Contains(k), scalar.Contains(k)) << k;
  }
}

TEST(ShardedOverload, SnapshotRoundTripsChainedGenerations) {
  SaturationConfig config;
  config.policy = SaturationPolicy::kChain;
  config.max_generations = 4;
  ShardedFilter f(500, 4, QuotientFactory(0.01), config);
  const auto keys = GenerateDistinctKeys(3000, TestSeed(507));
  std::vector<uint64_t> acked;
  for (uint64_t k : keys) {
    if (f.Insert(k)) acked.push_back(k);
  }
  size_t generations_before = 0;
  for (const auto& s : f.Stats()) generations_before += s.generations;
  ASSERT_GT(generations_before, 4u) << "setup must chain generations";

  std::stringstream ss;
  ASSERT_TRUE(f.Save(ss));

  ShardedFilter loaded(500, 4, QuotientFactory(0.01), config);
  ShardedFilter::LoadReport report;
  ASSERT_TRUE(loaded.LoadWithReport(ss, &report));
  EXPECT_TRUE(report.AllHealthy());
  EXPECT_EQ(report.total_shards, 4u);
  EXPECT_EQ(loaded.NumKeys(), f.NumKeys());
  size_t generations_after = 0;
  for (const auto& s : loaded.Stats()) generations_after += s.generations;
  EXPECT_EQ(generations_after, generations_before);
  for (uint64_t k : acked) ASSERT_TRUE(loaded.Contains(k));

  // The generic filter_io entry point resolves the inner tag itself.
  std::stringstream ss2;
  ASSERT_TRUE(f.Save(ss2));
  auto generic = LoadFilterSnapshot(ss2);
  ASSERT_NE(generic, nullptr);
  EXPECT_EQ(generic->NumKeys(), f.NumKeys());
}

TEST(ShardedOverload, CorruptGenerationBlobQuarantinesOnlyItsShard) {
  SaturationConfig config;
  config.policy = SaturationPolicy::kChain;
  config.max_generations = 4;
  ShardedFilter f(500, 4, QuotientFactory(0.01), config);
  const auto keys = GenerateDistinctKeys(3000, TestSeed(508));
  for (uint64_t k : keys) f.Insert(k);

  std::stringstream ss;
  ASSERT_TRUE(f.Save(ss));
  std::string bytes = ss.str();
  // Flip a byte deep in the stream: past the directory frame, inside some
  // shard's generation blobs.
  bytes[bytes.size() * 3 / 4] ^= 0x40;

  ShardedFilter loaded(500, 4, QuotientFactory(0.01), config);
  ShardedFilter::LoadReport report;
  std::istringstream broken(bytes);
  ASSERT_TRUE(loaded.LoadWithReport(broken, &report));
  EXPECT_FALSE(report.AllHealthy());
  EXPECT_EQ(report.total_shards, 4u);
  // Exactly the shards owning the flipped byte got rebuilt empty; the
  // rest loaded intact, so the survivor count matches shard-by-shard.
  ASSERT_LT(report.quarantined.size(), 4u);
  EXPECT_EQ(report.healthy_shards + report.quarantined.size(), 4u);
  EXPECT_LT(loaded.NumKeys(), f.NumKeys());
  EXPECT_GT(loaded.NumKeys(), 0u);
}

TEST(ShardedOverload, InsertManyWithStatusMatchesPerKeyPath) {
  // The batched structured insert must be outcome-for-outcome identical
  // to calling InsertWithStatus in order — the serving layer acks keys
  // from these outcomes, so any drift would ack unstored keys.
  const uint64_t seed = TestSeed(512);
  BBF_ANNOUNCE_SEED(seed);
  SaturationConfig config;
  config.policy = SaturationPolicy::kReject;
  config.load_threshold = 0.80;
  const auto raw = GenerateDistinctKeys(4000, seed);
  std::vector<HashedKey> keys;
  keys.reserve(raw.size());
  for (uint64_t k : raw) keys.emplace_back(k);

  ShardedFilter ref(400, 4, QuotientFactory(0.01), config);
  std::vector<InsertOutcome> want;
  want.reserve(keys.size());
  for (const HashedKey& k : keys) want.push_back(ref.InsertWithStatus(k));

  // Batched in chunks (some below, some above the passthrough cutoff).
  ShardedFilter batched(400, 4, QuotientFactory(0.01), config);
  std::vector<InsertOutcome> got(keys.size());
  size_t off = 0;
  for (size_t chunk : {3u, 500u, 1u, 2000u}) {
    const size_t n = std::min(chunk, keys.size() - off);
    batched.InsertManyWithStatus(
        std::span<const HashedKey>(keys.data() + off, n), got.data() + off);
    off += n;
  }
  batched.InsertManyWithStatus(
      std::span<const HashedKey>(keys.data() + off, keys.size() - off),
      got.data() + off);

  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i], got[i]) << "outcome diverged at key " << i;
  }
  EXPECT_EQ(batched.NumKeys(), ref.NumKeys());
  for (size_t i = 0; i < keys.size(); ++i) {
    if (Accepted(got[i])) {
      ASSERT_TRUE(batched.Contains(keys[i]));
    }
  }
}

}  // namespace
}  // namespace bbf
