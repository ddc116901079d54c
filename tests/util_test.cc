// Unit and property tests for the bit/hash/succinct substrate.

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/bit_vector.h"
#include "util/bits.h"
#include "util/compact_vector.h"
#include "util/elias_fano.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/rank_select.h"

namespace bbf {
namespace {

TEST(Bits, LowMask) {
  EXPECT_EQ(LowMask(0), 0u);
  EXPECT_EQ(LowMask(1), 1u);
  EXPECT_EQ(LowMask(8), 0xFFu);
  EXPECT_EQ(LowMask(64), ~uint64_t{0});
}

TEST(Bits, SelectInWord) {
  EXPECT_EQ(SelectInWord(0b1, 0), 0);
  EXPECT_EQ(SelectInWord(0b1010, 0), 1);
  EXPECT_EQ(SelectInWord(0b1010, 1), 3);
  EXPECT_EQ(SelectInWord(~uint64_t{0}, 63), 63);
}

// Popcount and SelectInWord are hand-rolled broadword code on the
// baseline ISA; pin both against a bit-by-bit reference over words of
// every density, including the empty and full words.
TEST(Bits, PopcountAndSelectMatchReferenceLoop) {
  SplitMix64 rng(0xB175);
  std::vector<uint64_t> words = {0, 1, uint64_t{1} << 63, ~uint64_t{0},
                                 0x8000000000000001ULL, 0x00FF00FF00FF00FFULL};
  for (int i = 0; i < 4000; ++i) {
    // AND/OR-ing random words spreads densities from sparse to dense.
    uint64_t w = rng.Next();
    for (int j = i % 4; j > 0; --j) w &= rng.Next();
    if (i % 8 >= 4) w = ~w;
    words.push_back(w);
  }
  for (uint64_t w : words) {
    std::vector<int> set_bits;
    for (int b = 0; b < 64; ++b) {
      if ((w >> b) & 1) set_bits.push_back(b);
    }
    ASSERT_EQ(Popcount(w), static_cast<int>(set_bits.size())) << w;
    for (size_t k = 0; k < set_bits.size(); ++k) {
      ASSERT_EQ(SelectInWord(w, static_cast<int>(k)), set_bits[k])
          << "word " << w << " k " << k;
    }
  }
}

TEST(Bits, PowersOfTwo) {
  EXPECT_EQ(NextPow2(0), 1u);
  EXPECT_EQ(NextPow2(1), 1u);
  EXPECT_EQ(NextPow2(3), 4u);
  EXPECT_EQ(NextPow2(1024), 1024u);
  EXPECT_TRUE(IsPow2(64));
  EXPECT_FALSE(IsPow2(65));
  EXPECT_FALSE(IsPow2(0));
}

TEST(Bits, FastRangeStaysInRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(FastRange64(rng.Next(), 1000), 1000u);
  }
}

TEST(Hash, DeterministicAndSeedSensitive) {
  EXPECT_EQ(Hash64(123, 1), Hash64(123, 1));
  EXPECT_NE(Hash64(123, 1), Hash64(123, 2));
  EXPECT_NE(Hash64(123, 1), Hash64(124, 1));
  // Both buffers hold at least 10 bytes, so every length below is in
  // bounds.
  const char a[] = "hello, world";
  const char b[] = "hellp, world";
  EXPECT_EQ(HashBytes(a, 9), HashBytes(a, 9));
  EXPECT_NE(HashBytes(a, 9), HashBytes(b, 9));
  EXPECT_NE(HashBytes(a, 9), HashBytes(a, 10));
}

TEST(Hash, BytesMatchesAllLengths) {
  // Every length boundary (0..33) hashes without reading out of bounds and
  // produces distinct values for distinct content.
  std::string s(33, 'x');
  std::set<uint64_t> values;
  for (size_t len = 0; len <= s.size(); ++len) {
    values.insert(HashBytes(s.data(), len, 5));
  }
  EXPECT_EQ(values.size(), 34u);
}

TEST(BitVector, SetGetClear) {
  BitVector bv(200);
  EXPECT_EQ(bv.size(), 200u);
  bv.Set(0);
  bv.Set(63);
  bv.Set(64);
  bv.Set(199);
  EXPECT_TRUE(bv.Get(0));
  EXPECT_TRUE(bv.Get(63));
  EXPECT_TRUE(bv.Get(64));
  EXPECT_TRUE(bv.Get(199));
  EXPECT_FALSE(bv.Get(1));
  EXPECT_EQ(bv.CountOnes(), 4u);
  bv.Clear(63);
  EXPECT_FALSE(bv.Get(63));
  EXPECT_EQ(bv.CountOnes(), 3u);
}

TEST(BitVector, GetSetBitsCrossWordBoundary) {
  BitVector bv(256);
  bv.SetBits(60, 10, 0x3FF);
  EXPECT_EQ(bv.GetBits(60, 10), 0x3FFu);
  EXPECT_EQ(bv.GetBits(59, 1), 0u);
  EXPECT_EQ(bv.GetBits(70, 1), 0u);
  bv.SetBits(60, 10, 0x155);
  EXPECT_EQ(bv.GetBits(60, 10), 0x155u);
}

TEST(BitVector, RandomizedBitsRoundTrip) {
  // Property: SetBits/GetBits behave like an array of bits.
  BitVector bv(4096);
  std::vector<bool> ref(4096, false);
  SplitMix64 rng(99);
  for (int iter = 0; iter < 2000; ++iter) {
    const int width = 1 + static_cast<int>(rng.NextBelow(64));
    const uint64_t pos = rng.NextBelow(4096 - width);
    const uint64_t val = rng.Next() & LowMask(width);
    bv.SetBits(pos, width, val);
    for (int b = 0; b < width; ++b) ref[pos + b] = (val >> b) & 1;
    // Spot-check a random read.
    const int rwidth = 1 + static_cast<int>(rng.NextBelow(64));
    const uint64_t rpos = rng.NextBelow(4096 - rwidth);
    uint64_t expect = 0;
    for (int b = 0; b < rwidth; ++b) {
      expect |= static_cast<uint64_t>(ref[rpos + b]) << b;
    }
    ASSERT_EQ(bv.GetBits(rpos, rwidth), expect) << "iter " << iter;
  }
}

TEST(CompactVector, RoundTrip) {
  CompactVector cv(100, 13);
  SplitMix64 rng(5);
  std::vector<uint64_t> ref(100);
  for (int i = 0; i < 100; ++i) {
    ref[i] = rng.Next() & LowMask(13);
    cv.Set(i, ref[i]);
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(cv.Get(i), ref[i]);
}

TEST(CompactVector, ResizePreservesPrefix) {
  CompactVector cv(10, 7);
  for (int i = 0; i < 10; ++i) cv.Set(i, i * 3);
  cv.Resize(50);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(cv.Get(i), static_cast<uint64_t>(i * 3));
  for (int i = 10; i < 50; ++i) EXPECT_EQ(cv.Get(i), 0u);
}

class RankSelectParamTest : public ::testing::TestWithParam<double> {};

TEST_P(RankSelectParamTest, MatchesNaiveAtDensity) {
  const double density = GetParam();
  const uint64_t n = 10000;
  BitVector bv(n);
  SplitMix64 rng(static_cast<uint64_t>(density * 1000) + 3);
  std::vector<bool> ref(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (rng.NextDouble() < density) {
      bv.Set(i);
      ref[i] = true;
    }
  }
  RankSelect rs(bv);
  uint64_t ones = 0;
  std::vector<uint64_t> one_pos;
  std::vector<uint64_t> zero_pos;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(rs.Rank1(i), ones);
    ASSERT_EQ(rs.Rank0(i), i - ones);
    if (ref[i]) {
      one_pos.push_back(i);
      ++ones;
    } else {
      zero_pos.push_back(i);
    }
  }
  EXPECT_EQ(rs.num_ones(), ones);
  for (uint64_t k = 0; k < one_pos.size(); ++k) {
    ASSERT_EQ(rs.Select1(k), one_pos[k]) << "k=" << k;
  }
  for (uint64_t k = 0; k < zero_pos.size(); ++k) {
    ASSERT_EQ(rs.Select0(k), zero_pos[k]) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, RankSelectParamTest,
                         ::testing::Values(0.01, 0.1, 0.5, 0.9, 0.99));

TEST(EliasFano, GetMatchesInput) {
  std::vector<uint64_t> v = {0, 1, 1, 5, 100, 100, 1000000, 1u << 30};
  EliasFano ef(v);
  ASSERT_EQ(ef.size(), v.size());
  for (size_t i = 0; i < v.size(); ++i) EXPECT_EQ(ef.Get(i), v[i]);
}

TEST(EliasFano, EmptySequence) {
  EliasFano ef((std::vector<uint64_t>()));
  EXPECT_EQ(ef.size(), 0u);
  EXPECT_FALSE(ef.NextGeq(0).has_value());
  EXPECT_FALSE(ef.ContainsInRange(0, ~uint64_t{0} >> 1));
}

TEST(EliasFano, NextGeqMatchesSet) {
  SplitMix64 rng(11);
  std::vector<uint64_t> v;
  for (int i = 0; i < 5000; ++i) v.push_back(rng.NextBelow(1u << 26));
  std::sort(v.begin(), v.end());
  EliasFano ef(v);
  std::multiset<uint64_t> ref(v.begin(), v.end());
  for (int i = 0; i < 20000; ++i) {
    const uint64_t x = rng.NextBelow((1u << 26) + 1000);
    const auto it = ref.lower_bound(x);
    const auto got = ef.NextGeq(x);
    if (it == ref.end()) {
      EXPECT_FALSE(got.has_value()) << "x=" << x;
    } else {
      ASSERT_TRUE(got.has_value()) << "x=" << x;
      EXPECT_EQ(ef.Get(*got), *it) << "x=" << x;
    }
  }
}

TEST(EliasFano, ContainsInRange) {
  std::vector<uint64_t> v = {10, 20, 30};
  EliasFano ef(v);
  EXPECT_TRUE(ef.ContainsInRange(10, 10));
  EXPECT_TRUE(ef.ContainsInRange(5, 10));
  EXPECT_TRUE(ef.ContainsInRange(11, 25));
  EXPECT_FALSE(ef.ContainsInRange(11, 19));
  EXPECT_FALSE(ef.ContainsInRange(31, 1000));
  EXPECT_FALSE(ef.ContainsInRange(0, 9));
}

TEST(EliasFano, DenseSequence) {
  // low_bits == 0 path: universe ~ n.
  std::vector<uint64_t> v;
  for (uint64_t i = 0; i < 1000; ++i) v.push_back(i);
  EliasFano ef(v);
  for (uint64_t i = 0; i < 1000; ++i) ASSERT_EQ(ef.Get(i), i);
  EXPECT_EQ(*ef.NextGeq(500), 500u);
}

TEST(SplitMix, DeterministicAndUniformish) {
  SplitMix64 a(1);
  SplitMix64 b(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  SplitMix64 c(2);
  uint64_t below = 0;
  for (int i = 0; i < 10000; ++i) {
    if (c.NextDouble() < 0.25) ++below;
  }
  EXPECT_NEAR(below / 10000.0, 0.25, 0.02);
}

}  // namespace
}  // namespace bbf
