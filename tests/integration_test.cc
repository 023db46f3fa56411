// End-to-end integration tests: the full Section-5/6/7 pipelines on one
// small synthetic dataset, asserting cross-module invariants at every
// stage (dataset -> OD graph -> partitioning -> mining -> ranking, and
// dataset -> table -> rules/tree/clusters).

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "core/episodes.h"
#include "core/interestingness.h"
#include "core/miner.h"
#include "data/generator.h"
#include "data/od_graph.h"
#include "graph/algorithms.h"
#include "iso/vf2.h"
#include "ml/apriori.h"
#include "ml/decision_tree.h"
#include "ml/em.h"
#include "pattern/render.h"
#include "partition/split_graph.h"

namespace tnmine {
namespace {

const data::TransactionDataset& Dataset() {
  static const auto* ds = new data::TransactionDataset(
      data::GenerateTransportData(data::GeneratorConfig::SmallScale()));
  return *ds;
}

TEST(IntegrationTest, StructuralPipelineInvariants) {
  const data::OdGraph od = data::BuildOdTh(Dataset());
  // Stage 1: the OD graph reflects the dataset exactly.
  ASSERT_EQ(od.graph.num_edges(), Dataset().size());

  // Stage 2: partitioning preserves every edge exactly once.
  partition::SplitOptions split;
  split.num_partitions = 30;
  split.seed = 3;
  const auto parts = partition::SplitGraph(od.graph, split);
  std::size_t total = 0;
  for (const auto& p : parts) total += p.num_edges();
  ASSERT_EQ(total, od.graph.num_edges());

  // Stage 3: mining returns patterns genuinely frequent in the partition
  // set (independent VF2 recount), and every pattern is connected.
  core::StructuralMiningOptions options;
  options.num_partitions = 30;
  options.min_support = 10;
  options.max_pattern_edges = 3;
  options.seed = 3;
  const auto result = core::MineStructuralPatterns(od.graph, options);
  ASSERT_FALSE(result.registry.empty());
  const auto sorted = result.registry.SortedBySupport();
  for (std::size_t i = 0; i < std::min<std::size_t>(10, sorted.size());
       ++i) {
    const auto* p = sorted[i];
    EXPECT_TRUE(graph::IsWeaklyConnected(p->graph));
    std::size_t recount = 0;
    for (const auto& part : parts) {
      recount +=
          iso::SubgraphMatcher(p->graph).Contains(graph::GraphView(part));
    }
    EXPECT_GE(recount, options.min_support) << p->code;
  }

  // Stage 4: ranking is total and rendering never crashes.
  const auto ranked = core::RankPatterns(result.registry);
  EXPECT_EQ(ranked.size(), result.registry.size());
  for (const auto* p : ranked) {
    EXPECT_FALSE(pattern::RenderPattern(*p, &od.discretizer).empty());
  }
}

TEST(IntegrationTest, TemporalPipelineInvariants) {
  core::TemporalMiningOptions options;
  options.min_support_fraction = 0.05;
  options.max_pattern_edges = 3;
  const auto result = core::MineTemporalPatterns(Dataset(), options);
  ASSERT_FALSE(result.registry.empty());
  // Every reported tid indexes a real transaction and the pattern is
  // contained in it.
  const auto& txns = result.partition.transactions;
  for (const auto* p : result.registry.SortedBySupport()) {
    for (std::uint32_t tid : p->tids) {
      ASSERT_LT(tid, txns.size());
      EXPECT_TRUE(iso::SubgraphMatcher(p->graph).Contains(
          graph::GraphView(txns[tid])));
    }
  }
  // Episode mining and temporal mining see the same dataset: every
  // periodic weekly route's OD pair really recurs in the raw data.
  core::EpisodeOptions episode_options;
  episode_options.min_occurrences = 5;
  const auto episodes = core::MineRouteEpisodes(Dataset(), episode_options);
  std::set<std::pair<data::LocationKey, data::LocationKey>> od_pairs;
  for (const auto& t : Dataset().transactions()) {
    od_pairs.insert({data::TransactionDataset::OriginKey(t),
                     data::TransactionDataset::DestKey(t)});
  }
  for (const auto& route : episodes.routes) {
    EXPECT_TRUE(od_pairs.contains({route.origin, route.dest}));
  }
}

TEST(IntegrationTest, ConventionalPipelineInvariants) {
  const ml::AttributeTable table =
      ml::AttributeTable::FromTransactions(Dataset());
  ASSERT_EQ(table.num_rows(), Dataset().size());
  const ml::AttributeTable disc = table.Discretized(8, true);

  // Rules' supports are consistent with their own counts.
  ml::AprioriOptions apriori;
  apriori.min_support = 0.1;
  apriori.min_confidence = 0.8;
  apriori.max_itemset_size = 2;
  const auto rules = ml::MineAssociationRules(disc, apriori);
  for (const auto& rule : rules.rules) {
    EXPECT_GE(rule.confidence, 0.8);
    EXPECT_GE(rule.support, 0.1);
    EXPECT_GT(rule.lift, 0.0);
  }

  // Tree and clustering run end to end on the same tables.
  const int cls = disc.AttributeIndex("TRANS_MODE");
  const ml::DecisionTree tree = ml::DecisionTree::Train(disc, cls, {});
  EXPECT_GT(tree.Accuracy(disc), 0.9);

  std::vector<int> numeric = {table.AttributeIndex("TOTAL_DISTANCE"),
                              table.AttributeIndex("MOVE_TRANSIT_HOURS")};
  ml::EmOptions em;
  em.num_clusters = 4;
  const ml::EmResult clusters = ml::FitEm(table, numeric, em);
  std::size_t assigned = 0;
  for (int c = 0; c < clusters.num_clusters; ++c) {
    assigned += ml::ClusterSize(clusters, c);
  }
  EXPECT_EQ(assigned, table.num_rows());
}

}  // namespace
}  // namespace tnmine
