#include "griddecl/eval/replica_router.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "griddecl/common/math_util.h"
#include "griddecl/common/random.h"
#include "griddecl/eval/metrics.h"
#include "griddecl/methods/registry.h"
#include "griddecl/query/generator.h"

namespace griddecl {
namespace {

ReplicatedPlacement MakeChained(const char* base_name, const GridSpec& grid,
                                uint32_t m, uint32_t replicas) {
  auto base = CreateMethod(base_name, grid, m).value();
  return ReplicatedPlacement::Create(std::move(base), replicas, 1).value();
}

TEST(ReplicatedPlacementTest, Validation) {
  const GridSpec grid = GridSpec::Create({8, 8}).value();
  EXPECT_FALSE(
      ReplicatedPlacement::Create(nullptr, 2).ok());
  auto base1 = CreateMethod("dm", grid, 4).value();
  EXPECT_FALSE(ReplicatedPlacement::Create(std::move(base1), 5).ok());
  auto base2 = CreateMethod("dm", grid, 4).value();
  EXPECT_FALSE(ReplicatedPlacement::Create(std::move(base2), 0).ok());
  auto base3 = CreateMethod("dm", grid, 4).value();
  // offset 2 with r=3 on M=4: disks {d, d+2, d+4=d} collide.
  EXPECT_FALSE(ReplicatedPlacement::Create(std::move(base3), 3, 2).ok());
  auto base4 = CreateMethod("dm", grid, 4).value();
  EXPECT_TRUE(ReplicatedPlacement::Create(std::move(base4), 2, 2).ok());
}

TEST(ReplicatedPlacementTest, DisksDistinctAndPrimaryFirst) {
  const GridSpec grid = GridSpec::Create({8, 8}).value();
  const ReplicatedPlacement p = MakeChained("hcam", grid, 8, 3);
  const auto base = CreateMethod("hcam", grid, 8).value();
  grid.ForEachBucket([&](const BucketCoords& c) {
    const std::vector<uint32_t> disks = p.DisksOf(c);
    ASSERT_EQ(disks.size(), 3u);
    EXPECT_EQ(disks[0], base->DiskOf(c));
    std::set<uint32_t> unique(disks.begin(), disks.end());
    EXPECT_EQ(unique.size(), 3u);
    for (uint32_t d : disks) EXPECT_LT(d, 8u);
  });
}

TEST(ReplicatedPlacementTest, StorageBlowupIsExactlyR) {
  const GridSpec grid = GridSpec::Create({8, 8}).value();
  const ReplicatedPlacement p = MakeChained("fx", grid, 8, 2);
  uint64_t total = 0;
  for (uint64_t l : p.DiskLoadHistogram()) total += l;
  EXPECT_EQ(total, 2 * grid.num_buckets());
}

TEST(ReplicaRouterTest, SingleReplicaEqualsBaseMetric) {
  // r = 1 leaves no routing freedom: response == the paper's metric.
  const GridSpec grid = GridSpec::Create({16, 16}).value();
  const ReplicatedPlacement p = MakeChained("dm", grid, 8, 1);
  const auto base = CreateMethod("dm", grid, 8).value();
  QueryGenerator gen(grid);
  Rng rng(1);
  const Workload w = gen.SampledPlacements({3, 5}, 40, &rng, "w").value();
  for (const RangeQuery& q : w.queries) {
    const RoutedQuery routed = RouteQuery(p, q).value();
    EXPECT_EQ(routed.response, ResponseTime(*base, q));
  }
}

TEST(ReplicaRouterTest, TwoReplicasNeverWorseOftenBetter) {
  const GridSpec grid = GridSpec::Create({16, 16}).value();
  const ReplicatedPlacement p2 = MakeChained("dm", grid, 8, 2);
  const auto base = CreateMethod("dm", grid, 8).value();
  QueryGenerator gen(grid);
  Rng rng(2);
  const Workload w = gen.SampledPlacements({4, 4}, 60, &rng, "w").value();
  uint64_t strictly_better = 0;
  for (const RangeQuery& q : w.queries) {
    const RoutedQuery routed = RouteQuery(p2, q).value();
    const uint64_t base_rt = ResponseTime(*base, q);
    EXPECT_LE(routed.response, base_rt);
    EXPECT_GE(routed.response, routed.lower_bound);
    strictly_better += routed.response < base_rt ? 1 : 0;
  }
  // DM is far from optimal on 4x4 squares; routing freedom must help on
  // most placements.
  EXPECT_GT(strictly_better, 30u);
}

TEST(ReplicaRouterTest, AssignmentIsConsistent) {
  const GridSpec grid = GridSpec::Create({8, 8}).value();
  const ReplicatedPlacement p = MakeChained("hcam", grid, 4, 2);
  const RangeQuery q =
      RangeQuery::Create(grid, BucketRect::Create({1, 1}, {4, 5}).value())
          .value();
  const RoutedQuery routed = RouteQuery(p, q).value();
  ASSERT_EQ(routed.assignment.size(), q.NumBuckets());
  // Every assigned disk is one of the bucket's replicas; per-disk loads
  // realize the claimed response.
  std::vector<uint64_t> loads(4, 0);
  size_t i = 0;
  q.rect().ForEachBucket([&](const BucketCoords& c) {
    const uint32_t disk = routed.assignment[i++];
    const auto disks = p.DisksOf(c);
    EXPECT_NE(std::find(disks.begin(), disks.end(), disk), disks.end());
    ++loads[disk];
  });
  EXPECT_EQ(*std::max_element(loads.begin(), loads.end()), routed.response);
}

TEST(ReplicaRouterTest, MatchesBruteForceOnTinyQueries) {
  const GridSpec grid = GridSpec::Create({4, 4}).value();
  const ReplicatedPlacement p = MakeChained("random", grid, 3, 2);
  QueryGenerator gen(grid);
  const Workload w = gen.AllPlacements({2, 3}, "w").value();
  for (const RangeQuery& q : w.queries) {
    const RoutedQuery routed = RouteQuery(p, q).value();
    // Brute force over all 2^6 replica choices.
    std::vector<std::vector<uint32_t>> choices;
    q.rect().ForEachBucket(
        [&](const BucketCoords& c) { choices.push_back(p.DisksOf(c)); });
    uint64_t best = q.NumBuckets();
    const size_t n = choices.size();
    for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
      std::vector<uint64_t> loads(3, 0);
      for (size_t b = 0; b < n; ++b) {
        ++loads[choices[b][(mask >> b) & 1]];
      }
      best = std::min(best,
                      *std::max_element(loads.begin(), loads.end()));
    }
    EXPECT_EQ(routed.response, best) << q.ToString();
  }
}

TEST(ReplicaRouterTest, DegradedModeRoutesAroundFailure) {
  const GridSpec grid = GridSpec::Create({16, 16}).value();
  const ReplicatedPlacement p = MakeChained("hcam", grid, 8, 2);
  const RangeQuery q =
      RangeQuery::Create(grid, BucketRect::Create({0, 0}, {7, 7}).value())
          .value();
  std::vector<bool> failed(8, false);
  failed[3] = true;
  const RoutedQuery routed = RouteQuery(p, q, &failed).value();
  // Nothing lands on the failed disk.
  for (uint32_t d : routed.assignment) EXPECT_NE(d, 3u);
  // Cost respects the reduced-parallelism lower bound.
  EXPECT_GE(routed.response, CeilDiv(q.NumBuckets(), 7));
}

TEST(ReplicaRouterTest, UnroutableWhenAllReplicasDead) {
  const GridSpec grid = GridSpec::Create({8, 8}).value();
  const ReplicatedPlacement p = MakeChained("dm", grid, 4, 2);
  const RangeQuery q =
      RangeQuery::Create(grid, BucketRect::Full(grid)).value();
  // Chained r=2 stores bucket on d and d+1: killing disks 0 and 1 makes
  // buckets with primary 0 unroutable.
  std::vector<bool> failed(4, false);
  failed[0] = true;
  failed[1] = true;
  const auto result = RouteQuery(p, q, &failed);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);

  // A single failure is always survivable with r = 2.
  std::vector<bool> one(4, false);
  one[0] = true;
  EXPECT_TRUE(RouteQuery(p, q, &one).ok());
}

TEST(ReplicaRouterTest, ValidationErrors) {
  const GridSpec grid = GridSpec::Create({4, 4}).value();
  const ReplicatedPlacement p = MakeChained("dm", grid, 4, 2);
  const RangeQuery q =
      RangeQuery::Create(grid, BucketRect::Point({0, 0})).value();
  std::vector<bool> wrong_size(3, false);
  EXPECT_FALSE(RouteQuery(p, q, &wrong_size).ok());
  std::vector<bool> all_dead(4, true);
  EXPECT_FALSE(RouteQuery(p, q, &all_dead).ok());
  EXPECT_FALSE(MeanRoutedResponse(p, {}).ok());
}

TEST(ReplicaRouterTest, MeanRoutedResponseAggregates) {
  const GridSpec grid = GridSpec::Create({8, 8}).value();
  const ReplicatedPlacement p = MakeChained("dm", grid, 4, 2);
  QueryGenerator gen(grid);
  const Workload w = gen.AllPlacements({2, 2}, "w").value();
  const RoutedWorkloadSummary s = MeanRoutedResponse(p, w.queries).value();
  EXPECT_GE(s.mean_response, 1.0);
  EXPECT_LE(s.mean_response, 4.0);
  EXPECT_EQ(s.routable, w.size());
  EXPECT_EQ(s.unroutable, 0u);
  EXPECT_DOUBLE_EQ(s.Availability(), 1.0);
}

TEST(ReplicaRouterTest, MeanRoutedResponseDegradesGracefully) {
  const GridSpec grid = GridSpec::Create({8, 8}).value();
  const ReplicatedPlacement p = MakeChained("dm", grid, 4, 2);
  // One full-grid query (loses buckets when disks 0 and 1 die) plus one
  // point query on a surviving pair.
  const RangeQuery whole =
      RangeQuery::Create(grid, BucketRect::Full(grid)).value();
  const RangeQuery point =
      RangeQuery::Create(grid, BucketRect::Point({2, 0})).value();
  std::vector<bool> failed(4, false);
  failed[0] = true;
  failed[1] = true;
  const RoutedWorkloadSummary s =
      MeanRoutedResponse(p, {whole, point}, &failed).value();
  EXPECT_EQ(s.unroutable, 1u);
  EXPECT_EQ(s.routable, 1u);
  EXPECT_DOUBLE_EQ(s.Availability(), 0.5);
  EXPECT_GE(s.mean_response, 1.0);
  // A genuine error (mis-sized mask) still fails the call.
  std::vector<bool> wrong(3, false);
  EXPECT_FALSE(MeanRoutedResponse(p, {whole}, &wrong).ok());
}

TEST(ReplicatedPlacementTest, TableDrivenPlacementOverridesArithmetic) {
  const GridSpec grid = GridSpec::Create({8, 8}).value();
  // An arbitrary (non-arithmetic) table: primary first, mate from the
  // "other half" of the disks.
  std::vector<std::vector<uint32_t>> table;
  for (uint32_t d = 0; d < 4; ++d) {
    table.push_back({d, 3 - d});  // mirror-image mate, never the primary
  }
  auto base = CreateMethod("dm", grid, 4).value();
  const ReplicatedPlacement p =
      ReplicatedPlacement::CreateWithTable(std::move(base), table).value();
  EXPECT_EQ(p.num_replicas(), 2u);
  const auto check = CreateMethod("dm", grid, 4).value();
  grid.ForEachBucket([&](const BucketCoords& c) {
    EXPECT_EQ(p.DisksOf(c), table[check->DiskOf(c)]);
  });
  // DiskLoadHistogram walks the table rows, not the offset arithmetic.
  uint64_t total = 0;
  for (uint64_t l : p.DiskLoadHistogram()) total += l;
  EXPECT_EQ(total, 2 * grid.num_buckets());
}

TEST(ReplicatedPlacementTest, DiskOfCopyMatchesDisksOf) {
  // The serving hot path picks replica disks with DiskOfCopy; it must
  // agree with DisksOf under chained (offset 1), interleaved (offset M/r)
  // and table-driven placements.
  const GridSpec grid = GridSpec::Create({8, 8}).value();
  std::vector<ReplicatedPlacement> placements;
  placements.push_back(
      ReplicatedPlacement::Create(CreateMethod("hcam", grid, 8).value(), 3, 1)
          .value());
  placements.push_back(
      ReplicatedPlacement::Create(CreateMethod("fx", grid, 8).value(), 2, 4)
          .value());
  placements.push_back(ReplicatedPlacement::CreateWithTable(
                           CreateMethod("dm", grid, 4).value(),
                           {{0, 2, 1}, {1, 3, 0}, {2, 0, 3}, {3, 1, 2}})
                           .value());
  for (const ReplicatedPlacement& p : placements) {
    grid.ForEachBucket([&](const BucketCoords& c) {
      const std::vector<uint32_t> disks = p.DisksOf(c);
      const uint32_t primary = p.base().DiskOf(c);
      for (uint32_t copy = 0; copy < p.num_replicas(); ++copy) {
        EXPECT_EQ(p.DiskOfCopy(primary, copy), disks[copy])
            << "offset " << p.offset() << " copy " << copy;
      }
    });
  }
}

TEST(ReplicatedPlacementTest, TableValidation) {
  const GridSpec grid = GridSpec::Create({8, 8}).value();
  auto make = [&] { return CreateMethod("dm", grid, 4).value(); };
  EXPECT_FALSE(
      ReplicatedPlacement::CreateWithTable(nullptr, {{0}, {1}, {2}, {3}})
          .ok());
  // Wrong row count for M=4.
  EXPECT_FALSE(
      ReplicatedPlacement::CreateWithTable(make(), {{0}, {1}}).ok());
  // Row 1 does not start with its primary.
  EXPECT_FALSE(ReplicatedPlacement::CreateWithTable(
                   make(), {{0, 1}, {2, 1}, {2, 3}, {3, 0}})
                   .ok());
  // Duplicate disk within a row.
  EXPECT_FALSE(ReplicatedPlacement::CreateWithTable(
                   make(), {{0, 0}, {1, 2}, {2, 3}, {3, 0}})
                   .ok());
  // Out-of-range disk.
  EXPECT_FALSE(ReplicatedPlacement::CreateWithTable(
                   make(), {{0, 9}, {1, 2}, {2, 3}, {3, 0}})
                   .ok());
  // Ragged rows.
  EXPECT_FALSE(ReplicatedPlacement::CreateWithTable(
                   make(), {{0, 1}, {1}, {2, 3}, {3, 0}})
                   .ok());
  EXPECT_TRUE(ReplicatedPlacement::CreateWithTable(
                  make(), {{0, 2}, {1, 3}, {2, 0}, {3, 1}})
                  .ok());
}

}  // namespace
}  // namespace griddecl
