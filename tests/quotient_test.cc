// Tests for the quotient-filter family on the RsqfTable slot engine: the
// quotient filter, the counting variant with in-run variable-length
// counters, the maplet variant, and bit-sacrifice expansion. The
// randomized model tests compare every operation against a
// std::unordered_multiset reference.

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/key.h"
#include "quotient/expanding_quotient_filter.h"
#include "quotient/expanding_quotient_maplet.h"
#include "quotient/quotient_filter.h"
#include "quotient/quotient_maplet.h"
#include "util/hash.h"
#include "util/random.h"
#include "workload/generators.h"

namespace bbf {
namespace {

TEST(QuotientFilter, BasicInsertContains) {
  QuotientFilter f(10, 8);
  EXPECT_FALSE(f.Contains(1));
  EXPECT_TRUE(f.Insert(1));
  EXPECT_TRUE(f.Contains(1));
  EXPECT_EQ(f.NumKeys(), 1u);
  EXPECT_TRUE(f.Erase(1));
  EXPECT_FALSE(f.Contains(1));
  EXPECT_EQ(f.NumKeys(), 0u);
}

TEST(QuotientFilter, NoFalseNegativesNearFullLoad) {
  QuotientFilter f(14, 9);
  const uint64_t n = static_cast<uint64_t>(
      (1u << 14) * QuotientFilter::kMaxLoadFactor) - 16;
  const auto keys = GenerateDistinctKeys(n);
  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
  for (uint64_t k : keys) ASSERT_TRUE(f.Contains(k));
}

TEST(QuotientFilter, RejectsBeyondMaxLoad) {
  QuotientFilter f(6, 8);
  uint64_t inserted = 0;
  for (uint64_t k = 0; k < 1000; ++k) {
    if (f.Insert(Hash64(k, 999))) ++inserted;
  }
  EXPECT_LE(inserted, 61u);  // 64 * 0.94 + 1
  EXPECT_GE(inserted, 58u);
}

TEST(QuotientFilter, FprNearTwoToMinusR) {
  QuotientFilter f(15, 10);
  const uint64_t n = 28000;  // ~85% load.
  const auto keys = GenerateDistinctKeys(n);
  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
  const auto negatives = GenerateNegativeKeys(keys, 200000);
  uint64_t fp = 0;
  for (uint64_t k : negatives) fp += f.Contains(k);
  const double fpr = static_cast<double>(fp) / negatives.size();
  // Expect ~ load * 2^-10 ~ 8.3e-4; allow generous slack.
  EXPECT_LT(fpr, 0.004);
  EXPECT_GT(fpr, 0.0);
}

TEST(QuotientFilter, MultisetDuplicates) {
  QuotientFilter f(10, 8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(f.Insert(77));
  EXPECT_EQ(f.Count(77), 5u);
  EXPECT_TRUE(f.Erase(77));
  EXPECT_EQ(f.Count(77), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(f.Erase(77));
  EXPECT_FALSE(f.Contains(77));
  EXPECT_FALSE(f.Erase(77));
}

// Randomized differential test against a reference multiset of *hashes*:
// we insert raw fingerprints' source keys and check Contains/Erase/Count
// agree with the reference wherever the filter must be exact (no false
// negatives; counts are upper bounds; erase succeeds iff present... with
// fingerprint-collision slack handled by using distinct keys).
class QuotientFilterModelTest : public ::testing::TestWithParam<int> {};

TEST_P(QuotientFilterModelTest, RandomOpsMatchReference) {
  const int q = 10;
  const int r = GetParam();
  QuotientFilter f(q, r);
  std::unordered_multiset<uint64_t> ref;
  SplitMix64 rng(1234 + r);
  const uint64_t key_space = 3000;  // Dense key reuse to exercise runs.
  for (int op = 0; op < 60000; ++op) {
    const uint64_t key = rng.NextBelow(key_space);
    const double dice = rng.NextDouble();
    if (dice < 0.55) {
      if (f.LoadFactor() < QuotientFilter::kMaxLoadFactor) {
        ASSERT_TRUE(f.Insert(key));
        ref.insert(key);
      }
    } else if (dice < 0.9) {
      // Only erase keys known to be present: erasing an absent key can
      // legitimately delete a colliding twin's fingerprint (the standard
      // fingerprint-filter deletion caveat), which would desynchronize
      // the reference. A dedicated test below covers that caveat.
      if (ref.contains(key)) {
        ASSERT_TRUE(f.Erase(key)) << "op " << op;
        ref.erase(ref.find(key));
      }
    } else {
      if (ref.contains(key)) {
        ASSERT_TRUE(f.Contains(key)) << "false negative, op " << op;
        ASSERT_GE(f.Count(key), ref.count(key)) << "op " << op;
      }
    }
  }
  // Final sweep: every referenced key must be present with count >= truth.
  std::unordered_map<uint64_t, uint64_t> counts;
  for (uint64_t k : ref) ++counts[k];
  for (const auto& [k, c] : counts) {
    ASSERT_TRUE(f.Contains(k));
    ASSERT_GE(f.Count(k), c);
  }
  EXPECT_EQ(f.NumKeys(), ref.size());
}

INSTANTIATE_TEST_SUITE_P(RemainderWidths, QuotientFilterModelTest,
                         ::testing::Values(8, 10, 13, 16));

TEST(QuotientFilter, TableInvariantsHoldUnderChurn) {
  QuotientFilter f(8, 6);
  std::unordered_multiset<uint64_t> ref;
  SplitMix64 rng(9);
  for (int op = 0; op < 20000; ++op) {
    const uint64_t key = rng.NextBelow(400);
    if (rng.NextDouble() < 0.55) {
      if (f.Insert(key)) ref.insert(key);
    } else if (ref.contains(key)) {
      ASSERT_TRUE(f.Erase(key));
      ref.erase(ref.find(key));
    }
    if (op % 500 == 0) {
      ASSERT_TRUE(f.table().CheckInvariants()) << op;
    }
  }
  ASSERT_TRUE(f.table().CheckInvariants());
}

// RsqfTable has no wraparound: runs of the highest quotients spill into a
// slack region past the last quotient. Pile keys onto the top quotients
// until the slack runs out, then drain them again, checking the table
// invariants after every operation and every answer against a model of
// the stored fingerprints (the filter is exact on fingerprints).
TEST(QuotientFilter, TopQuotientRunsSpillIntoSlackAndDrain) {
  QuotientFilter f(8, 6);
  const uint64_t top = f.table().num_quotients() - 4;
  auto fingerprint = [&](uint64_t key) {
    uint64_t fq;
    uint64_t fr;
    f.Fingerprint(HashedKey(key), &fq, &fr);
    return std::make_pair(fq, fr);
  };
  // Keys whose quotient is one of the top four.
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; keys.size() < 400; ++k) {
    if (fingerprint(k).first >= top) keys.push_back(k);
  }
  std::multiset<std::pair<uint64_t, uint64_t>> model;
  auto check = [&](int op) {
    ASSERT_TRUE(f.table().CheckInvariants()) << "op " << op;
    ASSERT_EQ(f.NumKeys(), model.size()) << "op " << op;
    for (uint64_t k : keys) {
      const uint64_t want = model.count(fingerprint(k));
      ASSERT_EQ(f.Contains(k), want > 0) << "op " << op << " key " << k;
      ASSERT_EQ(f.Count(k), want) << "op " << op << " key " << k;
    }
  };
  std::vector<uint64_t> stored;
  int op = 0;
  for (uint64_t k : keys) {
    if (!f.Insert(k)) break;  // The slack region is exhausted.
    model.insert(fingerprint(k));
    stored.push_back(k);
    check(op++);
  }
  ASSERT_LT(stored.size(), keys.size()) << "slack never ran out";
  EXPECT_GE(f.table().RunEnd(f.table().num_quotients() - 1),
            f.table().num_quotients());
  // A refused insert leaves the table as it was.
  check(op++);
  SplitMix64 rng(21);
  while (!stored.empty()) {
    const size_t i = rng.NextBelow(stored.size());
    ASSERT_TRUE(f.Erase(stored[i]));
    model.erase(model.find(fingerprint(stored[i])));
    stored[i] = stored.back();
    stored.pop_back();
    check(op++);
  }
  EXPECT_EQ(f.table().num_used_slots(), 0u);
}

TEST(QuotientFilter, ErasingAbsentKeyMayRemoveCollidingTwin) {
  // The documented deletion caveat of every fingerprint filter: deleting a
  // key that was never inserted can remove a colliding twin's fingerprint.
  // Find two keys with identical fingerprints and demonstrate it.
  QuotientFilter f(6, 4);  // 10-bit fingerprints: collisions are easy.
  uint64_t fq0;
  uint64_t fr0;
  f.Fingerprint(HashedKey(1000), &fq0, &fr0);
  uint64_t twin = 0;
  for (uint64_t k = 0;; ++k) {
    uint64_t fq;
    uint64_t fr;
    f.Fingerprint(HashedKey(k), &fq, &fr);
    if (fq == fq0 && fr == fr0 && k != 1000) {
      twin = k;
      break;
    }
  }
  ASSERT_TRUE(f.Insert(1000));
  EXPECT_TRUE(f.Contains(twin));    // Indistinguishable from 1000.
  EXPECT_TRUE(f.Erase(twin));       // "Deletes" the absent twin...
  EXPECT_FALSE(f.Contains(1000));   // ...creating a false negative for 1000.
}

TEST(QuotientFilter, NeverCompletelyFills) {
  // Even tiny tables must keep one slot free (scans depend on it).
  QuotientFilter f(4, 4);
  uint64_t inserted = 0;
  for (uint64_t k = 0; k < 100; ++k) inserted += f.Insert(k);
  EXPECT_LT(f.table().num_used_slots(), f.table().num_quotients());
  EXPECT_TRUE(f.table().CheckInvariants());
}

TEST(QuotientFilter, ForEachFingerprintEnumeratesAll) {
  QuotientFilter f(8, 12);
  const auto keys = GenerateDistinctKeys(200);
  std::unordered_multiset<uint64_t> expected;
  for (uint64_t k : keys) {
    ASSERT_TRUE(f.Insert(k));
    uint64_t fq;
    uint64_t fr;
    f.Fingerprint(HashedKey(k), &fq, &fr);
    expected.insert((fq << 12) | fr);
  }
  std::unordered_multiset<uint64_t> seen;
  f.table().ForEachValue(
      [&](uint64_t fq, uint64_t fr) { seen.insert((fq << 12) | fr); });
  EXPECT_EQ(seen, expected);
}

TEST(QuotientFilter, ForCapacitySizing) {
  QuotientFilter f = QuotientFilter::ForCapacity(10000, 0.01);
  const auto keys = GenerateDistinctKeys(10000);
  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
  const auto negatives = GenerateNegativeKeys(keys, 100000);
  uint64_t fp = 0;
  for (uint64_t k : negatives) fp += f.Contains(k);
  EXPECT_LT(static_cast<double>(fp) / negatives.size(), 0.02);
}

// --- Counting quotient filter ---------------------------------------------

TEST(CountingQuotientFilter, CountsExactlyWithoutCollisions) {
  CountingQuotientFilter f(12, 16);
  for (int i = 0; i < 1000; ++i) f.Insert(5);
  EXPECT_EQ(f.Count(5), 1000u);
  EXPECT_EQ(f.NumKeys(), 1000u);
  // 1000 copies should take ~1 remainder slot + 2 digit slots (base 2^16),
  // not 1000 slots.
  EXPECT_LE(f.num_used_slots(), 4u);
}

TEST(CountingQuotientFilter, SkewedStreamCountsMatch) {
  CountingQuotientFilter f(13, 12);
  const auto stream = GenerateZipfStream(3000, 1.1, 40000);
  std::unordered_map<uint64_t, uint64_t> truth;
  for (uint64_t k : stream) {
    ASSERT_TRUE(f.Insert(k));
    ++truth[k];
  }
  uint64_t exact = 0;
  for (const auto& [k, c] : truth) {
    ASSERT_GE(f.Count(k), c) << "counting filter may only overcount";
    exact += (f.Count(k) == c);
  }
  EXPECT_GT(static_cast<double>(exact) / truth.size(), 0.95);
}

TEST(CountingQuotientFilter, VariableLengthCountersSaveSlots) {
  // 100k inserts of 100 distinct keys must use far fewer than 100k slots.
  CountingQuotientFilter f(12, 8);
  SplitMix64 rng(5);
  std::vector<uint64_t> keys = GenerateDistinctKeys(100);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_TRUE(f.Insert(keys[rng.NextBelow(100)]));
  }
  EXPECT_LT(f.num_used_slots(), 500u);
}

TEST(CountingQuotientFilter, EraseDecrements) {
  CountingQuotientFilter f(10, 10);
  for (int i = 0; i < 300; ++i) f.Insert(9);
  for (int i = 0; i < 299; ++i) {
    ASSERT_TRUE(f.Erase(9));
    ASSERT_EQ(f.Count(9), static_cast<uint64_t>(299 - i));
  }
  EXPECT_TRUE(f.Erase(9));
  EXPECT_EQ(f.Count(9), 0u);
  EXPECT_FALSE(f.Contains(9));
  EXPECT_FALSE(f.Erase(9));
  EXPECT_EQ(f.num_used_slots(), 0u);
}

TEST(CountingQuotientFilter, RandomizedModel) {
  CountingQuotientFilter f(11, 14);
  std::unordered_map<uint64_t, uint64_t> ref;
  SplitMix64 rng(77);
  const uint64_t key_space = 500;
  for (int op = 0; op < 40000; ++op) {
    const uint64_t key = rng.NextBelow(key_space);
    if (rng.NextDouble() < 0.6) {
      if (f.LoadFactor() < QuotientFilter::kMaxLoadFactor) {
        ASSERT_TRUE(f.Insert(key));
        ++ref[key];
      }
    } else {
      auto it = ref.find(key);
      if (it != ref.end()) {
        ASSERT_TRUE(f.Erase(key)) << "op " << op;
        if (--it->second == 0) ref.erase(it);
      }
    }
  }
  for (const auto& [k, c] : ref) {
    ASSERT_GE(f.Count(k), c);
  }
}

// --- Maplet ----------------------------------------------------------------

TEST(QuotientMaplet, LookupReturnsStoredValue) {
  QuotientMaplet m(10, 12, 8);
  ASSERT_TRUE(m.Insert(100, 42));
  const auto vals = m.Lookup(100);
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_EQ(vals[0], 42u);
  EXPECT_TRUE(m.Lookup(101).empty());
}

TEST(QuotientMaplet, MultipleValuesPerKey) {
  QuotientMaplet m(10, 12, 8);
  ASSERT_TRUE(m.Insert(5, 1));
  ASSERT_TRUE(m.Insert(5, 2));
  ASSERT_TRUE(m.Insert(5, 3));
  auto vals = m.Lookup(5);
  EXPECT_EQ(vals.size(), 3u);
}

TEST(QuotientMaplet, PositiveLookupsAlwaysIncludeTruth) {
  QuotientMaplet m = QuotientMaplet::ForCapacity(8000, 0.01, 10);
  const auto keys = GenerateDistinctKeys(8000);
  SplitMix64 rng(3);
  std::unordered_map<uint64_t, uint64_t> truth;
  for (uint64_t k : keys) {
    const uint64_t v = rng.NextBelow(1024);
    ASSERT_TRUE(m.Insert(k, v));
    truth[k] = v;
  }
  double prs_total = 0;
  for (const auto& [k, v] : truth) {
    const auto vals = m.Lookup(k);
    ASSERT_FALSE(vals.empty());
    EXPECT_NE(std::find(vals.begin(), vals.end(), v), vals.end())
        << "true value missing from lookup result";
    prs_total += vals.size();
  }
  // PRS = 1 + eps (paper §2.4): tiny overhead above exactly 1.
  EXPECT_LT(prs_total / truth.size(), 1.05);
}

TEST(QuotientMaplet, ForCapacityKeepsRemainderAndValueInOnePayload) {
  // FPR 1e-25 asks for an 83-bit remainder; the sizing rule leaves room
  // for the value bits in a 64-bit payload.
  QuotientMaplet m = QuotientMaplet::ForCapacity(1000, 1e-25, 10);
  EXPECT_LE(m.r_bits() + m.value_bits(), 64);
  for (uint64_t k = 1; k <= 1000; ++k) ASSERT_TRUE(m.Insert(k, k & 1023));
  for (uint64_t k = 1; k <= 1000; ++k) {
    const auto vals = m.Lookup(k);
    ASSERT_NE(std::find(vals.begin(), vals.end(), k & 1023), vals.end()) << k;
  }
}

TEST(QuotientMaplet, EraseRemovesAssociation) {
  QuotientMaplet m(10, 12, 8);
  m.Insert(5, 1);
  m.Insert(5, 2);
  ASSERT_TRUE(m.Erase(5, 1));
  auto vals = m.Lookup(5);
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_EQ(vals[0], 2u);
  EXPECT_FALSE(m.Erase(5, 9));
}

// --- Expanding (bit sacrifice) ----------------------------------------------

TEST(ExpandingQuotientFilter, MembershipSurvivesExpansions) {
  ExpandingQuotientFilter f(8, 12);
  const auto keys = GenerateDistinctKeys(10000);
  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
  EXPECT_GE(f.expansions(), 5);
  for (uint64_t k : keys) ASSERT_TRUE(f.Contains(k)) << k;
}

TEST(ExpandingQuotientFilter, FprDegradesWithExpansions) {
  // Start with few remainder bits so expansions visibly eat the FPR.
  ExpandingQuotientFilter f(10, 9);
  const auto keys = GenerateDistinctKeys(30000);
  const auto negatives = GenerateNegativeKeys(keys, 30000);
  double prev_fpr = -1;
  size_t idx = 0;
  std::vector<double> fprs;
  for (int stage = 0; stage < 3; ++stage) {
    const size_t target = 900ull << (stage * 2);  // 900, 3600, 14400 keys.
    while (idx < target) ASSERT_TRUE(f.Insert(keys[idx++]));
    uint64_t fp = 0;
    for (uint64_t k : negatives) fp += f.Contains(k);
    fprs.push_back(static_cast<double>(fp) / negatives.size());
  }
  // Four doublings cost four remainder bits: FPR must grow markedly.
  EXPECT_GT(fprs.back(), fprs.front() * 4);
  (void)prev_fpr;
}

TEST(ExpandingQuotientFilter, StopsWhenRemainderExhausted) {
  ExpandingQuotientFilter f(4, 2);
  uint64_t inserted = 0;
  for (uint64_t k = 0; k < 4000; ++k) {
    if (f.Insert(Hash64(k, 31))) ++inserted;
  }
  EXPECT_LT(inserted, 4000u);  // Eventually r == 1 and expansion fails.
  EXPECT_EQ(f.r_bits(), 1);
}

// A table's contents as sorted (quotient, payload) pairs: two tables give
// equal lists exactly when each quotient's run holds the same multiset.
// QF and maplet runs are unordered, so this is how they are compared.
std::vector<std::pair<uint64_t, uint64_t>> RunMultisets(const RsqfTable& t) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  t.ForEachValue([&](uint64_t q, uint64_t v) { out.emplace_back(q, v); });
  std::sort(out.begin(), out.end());
  return out;
}

// After k doublings the table must hold exactly what a (q+k, r-k)
// structure with the same seed holds for the same keys: the doubling is
// the hash split with one remainder bit fewer, not just lossless.
TEST(ExpandingQuotientFilter, DoublingMatchesAFreshBuild) {
  constexpr uint64_t kSeed = 0x5EED;
  const auto keys = GenerateDistinctKeys(4000);
  for (int k = 1; k <= 4; ++k) {
    SCOPED_TRACE(k);
    ExpandingQuotientFilter grown(6, 12, kSeed);
    size_t n = 0;
    while (grown.expansions() < k) {
      ASSERT_TRUE(grown.Insert(keys[n]));
      ++n;
    }
    QuotientFilter fresh(6 + k, 12 - k, kSeed);
    for (size_t i = 0; i < n; ++i) ASSERT_TRUE(fresh.Insert(keys[i]));
    ASSERT_EQ(grown.filter().q_bits(), 6 + k);
    ASSERT_EQ(grown.r_bits(), 12 - k);
    EXPECT_EQ(grown.NumKeys(), fresh.NumKeys());
    EXPECT_TRUE(grown.filter().table().CheckInvariants());
    EXPECT_EQ(RunMultisets(grown.filter().table()),
              RunMultisets(fresh.table()));
  }
}

TEST(ExpandingQuotientMaplet, DoublingMatchesAFreshBuild) {
  constexpr uint64_t kSeed = 0x5EED;
  const auto keys = GenerateDistinctKeys(4000);
  for (int k = 1; k <= 4; ++k) {
    SCOPED_TRACE(k);
    ExpandingQuotientMaplet grown(6, 12, 8, kSeed);
    size_t n = 0;
    while (grown.expansions() < k) {
      ASSERT_TRUE(grown.Insert(keys[n], n & 0xFF));
      ++n;
    }
    QuotientMaplet fresh(6 + k, 12 - k, 8, kSeed);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(fresh.Insert(keys[i], i & 0xFF));
    }
    ASSERT_EQ(grown.maplet().q_bits(), 6 + k);
    ASSERT_EQ(grown.r_bits(), 12 - k);
    EXPECT_EQ(grown.NumEntries(), fresh.NumEntries());
    EXPECT_TRUE(grown.maplet().table().CheckInvariants());
    EXPECT_EQ(RunMultisets(grown.maplet().table()),
              RunMultisets(fresh.table()));
  }
}

TEST(ExpandingQuotientFilter, EraseStillWorksAfterExpansion) {
  ExpandingQuotientFilter f(6, 10);
  const auto keys = GenerateDistinctKeys(500);
  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
  ASSERT_GT(f.expansions(), 0);
  for (uint64_t k : keys) ASSERT_TRUE(f.Erase(k));
  EXPECT_EQ(f.NumKeys(), 0u);
}

}  // namespace
}  // namespace bbf
