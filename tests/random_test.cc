#include "griddecl/common/random.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace griddecl {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBelow(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextBelowRoughlyUniform) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBelow(10)];
  for (int c : counts) {
    EXPECT_GT(c, n / 10 - n / 50);
    EXPECT_LT(c, n / 10 + n / 50);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(17);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(19);
  double sum = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, NextBoolEdgeProbabilities) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, NextBoolMatchesProbability) {
  Rng rng(29);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(31);
  for (uint32_t n : {0u, 1u, 2u, 10u, 100u}) {
    std::vector<uint32_t> p = rng.Permutation(n);
    ASSERT_EQ(p.size(), n);
    std::sort(p.begin(), p.end());
    for (uint32_t i = 0; i < n; ++i) EXPECT_EQ(p[i], i);
  }
}

TEST(RngTest, PermutationShuffles) {
  Rng rng(37);
  // Probability that two independent 20-element permutations are identical
  // is astronomically small.
  const std::vector<uint32_t> a = rng.Permutation(20);
  const std::vector<uint32_t> b = rng.Permutation(20);
  EXPECT_NE(a, b);
}

TEST(HashStringTest, PinnedOnAFixedName) {
  // Backoff site tokens and FaultyEnv schedules hash file names through
  // this; a changed value would reshuffle every seeded fault replay.
  EXPECT_EQ(HashString(Mix64(0x5e7e5e7eull), "relation-0.data"),
            0x69bfcbbe8ceef602ull);
  EXPECT_EQ(HashString(42, ""), 42u);
  EXPECT_NE(HashString(0, "ab"), HashString(0, "ba"));
}

}  // namespace
}  // namespace griddecl
