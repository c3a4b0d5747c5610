#include "core/shard_planner.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/scheduler.h"

namespace pmjoin {
namespace {

/// Builds a cluster over explicit row/col page ids (entries are synthetic
/// but consistent).
Cluster MakeCluster(std::vector<uint32_t> rows, std::vector<uint32_t> cols) {
  Cluster c;
  c.rows = std::move(rows);
  c.cols = std::move(cols);
  std::sort(c.rows.begin(), c.rows.end());
  std::sort(c.cols.begin(), c.cols.end());
  for (uint32_t r : c.rows) {
    for (uint32_t col : c.cols) c.entries.push_back(MatrixEntry{r, col});
  }
  return c;
}

JoinInput TwoFileInput() {
  JoinInput input;
  input.r_file = 0;
  input.s_file = 1;
  input.r_pages = 100;
  input.s_pages = 100;
  return input;
}

/// The §8 Example-2 clusters used by the scheduler tests.
std::vector<Cluster> ExampleClusters() {
  std::vector<Cluster> clusters;
  clusters.push_back(MakeCluster({1, 2}, {2, 4, 5}));
  clusters.push_back(MakeCluster({1, 2, 3}, {2, 3}));
  clusters.push_back(MakeCluster({4, 5}, {3, 6}));
  clusters.push_back(MakeCluster({0, 3, 6}, {1, 6}));
  clusters.push_back(MakeCluster({6}, {0}));
  return clusters;
}

/// A larger pseudo-random instance: `n` clusters over a `pages`-page pair
/// of files, each touching a few nearby row and col pages so the sharing
/// graph is well connected.
std::vector<Cluster> RandomClusters(uint32_t n, uint32_t pages,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<Cluster> clusters;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t base = rng.Uniform(pages - 4);
    std::vector<uint32_t> rows, cols;
    for (uint32_t j = 0; j <= rng.Uniform(3); ++j)
      rows.push_back(base + rng.Uniform(4));
    for (uint32_t j = 0; j <= rng.Uniform(3); ++j)
      cols.push_back(base + rng.Uniform(4));
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    clusters.push_back(MakeCluster(std::move(rows), std::move(cols)));
  }
  return clusters;
}

/// Checks the structural invariants every plan must satisfy.
void CheckPlanInvariants(const ShardPlan& plan,
                         const std::vector<Cluster>& clusters,
                         const JoinInput& input) {
  ASSERT_EQ(plan.owner.size(), clusters.size());
  ASSERT_EQ(plan.shard_clusters.size(), plan.num_shards);
  ASSERT_EQ(plan.shards.size(), plan.num_shards);

  // Every cluster in exactly one shard list, lists ascending and
  // consistent with owner[].
  uint64_t listed = 0;
  for (uint32_t s = 0; s < plan.num_shards; ++s) {
    EXPECT_TRUE(std::is_sorted(plan.shard_clusters[s].begin(),
                               plan.shard_clusters[s].end()));
    for (const uint32_t c : plan.shard_clusters[s]) {
      ASSERT_LT(c, clusters.size());
      EXPECT_EQ(plan.owner[c], s);
      ++listed;
    }
    EXPECT_EQ(plan.shards[s].clusters, plan.shard_clusters[s].size());
  }
  EXPECT_EQ(listed, clusters.size());

  // Cut + kept == total sharing weight, and cut matches owner[].
  const std::vector<SharingEdge> edges =
      BuildSharingGraph(clusters, input, nullptr);
  uint64_t total = 0, cut = 0;
  for (const SharingEdge& e : edges) {
    total += e.weight;
    if (plan.owner[e.a] != plan.owner[e.b]) cut += e.weight;
  }
  EXPECT_EQ(plan.sharing_weight, total);
  EXPECT_EQ(plan.cut_weight, cut);
  EXPECT_LE(plan.cut_weight, plan.sharing_weight);

  // Replication: Σ per-shard distinct pages − global distinct pages.
  uint64_t shard_pages = 0, entries = 0;
  for (const ShardStats& stats : plan.shards) {
    shard_pages += stats.pages;
    entries += stats.entries;
  }
  EXPECT_EQ(plan.replicated_pages, shard_pages - plan.distinct_pages);
  uint64_t marked = 0;
  for (const Cluster& c : clusters) marked += c.entries.size();
  EXPECT_EQ(entries, marked);

  if (!clusters.empty()) {
    EXPECT_GE(plan.balance_ratio, 1.0);
  }
}

TEST(ShardPlannerTest, SingleShardKeepsAllSharing) {
  const std::vector<Cluster> clusters = ExampleClusters();
  const JoinInput input = TwoFileInput();
  const ShardPlan plan = PlanShards(clusters, input, 1);
  CheckPlanInvariants(plan, clusters, input);
  EXPECT_EQ(plan.num_shards, 1u);
  EXPECT_EQ(plan.cut_weight, 0u);
  EXPECT_EQ(plan.replicated_pages, 0u);
  EXPECT_DOUBLE_EQ(plan.balance_ratio, 1.0);
  for (const uint32_t owner : plan.owner) EXPECT_EQ(owner, 0u);
  EXPECT_EQ(plan.shards[0].pages, plan.distinct_pages);
}

TEST(ShardPlannerTest, ZeroShardsMeansOne) {
  const std::vector<Cluster> clusters = ExampleClusters();
  const ShardPlan plan = PlanShards(clusters, TwoFileInput(), 0);
  EXPECT_EQ(plan.num_shards, 1u);
  EXPECT_EQ(plan.cut_weight, 0u);
}

TEST(ShardPlannerTest, TwoShardsPartitionExample) {
  const std::vector<Cluster> clusters = ExampleClusters();
  const JoinInput input = TwoFileInput();
  const ShardPlan plan = PlanShards(clusters, input, 2);
  CheckPlanInvariants(plan, clusters, input);
  EXPECT_EQ(plan.num_shards, 2u);
  // Both shards used: total load 16 entries, cap 8, and no single
  // cluster has 16 entries.
  EXPECT_GT(plan.shards[0].clusters, 0u);
  EXPECT_GT(plan.shards[1].clusters, 0u);
  // The heavy C1–C2 edge (weight 3, the maximum) should be kept inside a
  // shard: the greedy placement assigns the strongest neighborhoods
  // together, so the cut is strictly less than the total weight.
  EXPECT_LT(plan.cut_weight, plan.sharing_weight);
  EXPECT_EQ(plan.owner[0], plan.owner[1]);
}

TEST(ShardPlannerTest, DeterministicAcrossCalls) {
  const std::vector<Cluster> clusters = RandomClusters(60, 40, 7);
  const JoinInput input = TwoFileInput();
  const ShardPlan a = PlanShards(clusters, input, 4);
  const ShardPlan b = PlanShards(clusters, input, 4);
  EXPECT_EQ(a.owner, b.owner);
  EXPECT_EQ(a.cut_weight, b.cut_weight);
  EXPECT_EQ(a.replicated_pages, b.replicated_pages);
  EXPECT_DOUBLE_EQ(a.balance_ratio, b.balance_ratio);
}

TEST(ShardPlannerTest, RandomInstancesSatisfyInvariants) {
  const JoinInput input = TwoFileInput();
  for (const uint32_t num_shards : {2u, 3u, 4u, 8u}) {
    for (const uint64_t seed : {11ull, 12ull, 13ull}) {
      const std::vector<Cluster> clusters = RandomClusters(50, 30, seed);
      const ShardPlan plan = PlanShards(clusters, input, num_shards);
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << num_shards << " seed=" << seed);
      CheckPlanInvariants(plan, clusters, input);
    }
  }
}

TEST(ShardPlannerTest, BalancedCapLimitsLoad) {
  // 16 equal clusters over 4 shards: the cap (4 clusters' entries) is
  // achievable exactly, so the plan must be perfectly balanced.
  std::vector<Cluster> clusters;
  for (uint32_t i = 0; i < 16; ++i)
    clusters.push_back(MakeCluster({i}, {i}));
  const ShardPlan plan = PlanShards(clusters, TwoFileInput(), 4);
  for (const ShardStats& stats : plan.shards) EXPECT_EQ(stats.entries, 4u);
  EXPECT_DOUBLE_EQ(plan.balance_ratio, 1.0);
}

TEST(ShardPlannerTest, MoreShardsThanClusters) {
  const std::vector<Cluster> clusters = ExampleClusters();
  const JoinInput input = TwoFileInput();
  const ShardPlan plan = PlanShards(clusters, input, 8);
  CheckPlanInvariants(plan, clusters, input);
  EXPECT_EQ(plan.num_shards, 8u);
  uint32_t empty = 0;
  for (const ShardStats& stats : plan.shards)
    if (stats.clusters == 0) ++empty;
  EXPECT_EQ(empty, 3u);  // 5 clusters over 8 shards.
}

TEST(ShardPlannerTest, EmptyClusterList) {
  const ShardPlan plan = PlanShards({}, TwoFileInput(), 4);
  EXPECT_EQ(plan.num_shards, 4u);
  EXPECT_TRUE(plan.owner.empty());
  EXPECT_EQ(plan.cut_weight, 0u);
  EXPECT_EQ(plan.distinct_pages, 0u);
  EXPECT_DOUBLE_EQ(plan.balance_ratio, 1.0);
}

TEST(ShardPlannerTest, SelfJoinCollapsesRowColPages) {
  // In a self join a row page and col page with the same index are one
  // physical page; the planner's page accounting must agree with
  // ClusterPageSet.
  JoinInput input;
  input.r_file = 7;
  input.s_file = 7;
  input.r_pages = 10;
  input.s_pages = 10;
  input.self_join = true;
  const std::vector<Cluster> clusters{
      MakeCluster({1}, {1}),  // One physical page.
      MakeCluster({2}, {3}),
  };
  const ShardPlan plan = PlanShards(clusters, input, 2);
  CheckPlanInvariants(plan, clusters, input);
  EXPECT_EQ(plan.distinct_pages, 3u);
}

TEST(ShardSubOrderTest, PartitionsThePermutation) {
  const std::vector<Cluster> clusters = RandomClusters(40, 25, 21);
  const JoinInput input = TwoFileInput();
  const ShardPlan plan = PlanShards(clusters, input, 3);
  const std::vector<uint32_t> order =
      ScheduleClusters(clusters, input, nullptr);

  std::set<uint32_t> seen;
  for (uint32_t s = 0; s < plan.num_shards; ++s) {
    const std::vector<uint32_t> sub = ShardSubOrder(plan, order, s);
    EXPECT_EQ(sub.size(), plan.shard_clusters[s].size());
    // Relative order preserved: sub is a subsequence of order.
    size_t pos = 0;
    for (const uint32_t c : sub) {
      EXPECT_EQ(plan.owner[c], s);
      while (pos < order.size() && order[pos] != c) ++pos;
      ASSERT_LT(pos, order.size());
      ++pos;
      EXPECT_TRUE(seen.insert(c).second);
    }
  }
  EXPECT_EQ(seen.size(), order.size());
}

}  // namespace
}  // namespace pmjoin
