#include "synth/kk_generator.h"
#include "synth/planted.h"
#include "synth/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/random.h"
#include "graph/algorithms.h"
#include "iso/canonical.h"
#include "iso/vf2.h"

namespace tnmine::synth {
namespace {

TEST(KkGeneratorTest, ProducesRequestedTransactionCount) {
  KkOptions options;
  options.num_transactions = 50;
  options.avg_transaction_edges = 12;
  options.seed = 1;
  const KkResult r = GenerateKkTransactions(options);
  EXPECT_EQ(r.transactions.size(), 50u);
  EXPECT_EQ(r.seed_patterns.size(), options.num_seed_patterns);
}

TEST(KkGeneratorTest, TransactionSizesNearTarget) {
  KkOptions options;
  options.num_transactions = 200;
  options.avg_transaction_edges = 20;
  options.seed = 2;
  const KkResult r = GenerateKkTransactions(options);
  double total = 0;
  for (const auto& t : r.transactions) {
    total += static_cast<double>(t.num_edges());
    EXPECT_GE(t.num_edges(), 1u);
  }
  const double avg = total / 200.0;
  EXPECT_GT(avg, 15.0);
  EXPECT_LT(avg, 30.0);
}

TEST(KkGeneratorTest, SeedPatternsConnectedAndLabeledInRange) {
  KkOptions options;
  options.num_seed_patterns = 15;
  options.num_vertex_labels = 5;
  options.num_edge_labels = 3;
  options.seed = 3;
  const KkResult r = GenerateKkTransactions(options);
  for (const auto& p : r.seed_patterns) {
    EXPECT_TRUE(graph::IsWeaklyConnected(p));
    for (graph::VertexId v = 0; v < p.num_vertices(); ++v) {
      EXPECT_GE(p.vertex_label(v), 0);
      EXPECT_LT(p.vertex_label(v), 5);
    }
    p.ForEachEdge([&](graph::EdgeId e) {
      EXPECT_GE(p.edge(e).label, 0);
      EXPECT_LT(p.edge(e).label, 3);
    });
  }
}

TEST(KkGeneratorTest, SeedPatternsActuallyAppearInTransactions) {
  KkOptions options;
  options.num_transactions = 80;
  options.num_seed_patterns = 5;
  options.avg_pattern_edges = 3;
  options.avg_transaction_edges = 15;
  options.num_vertex_labels = 3;
  options.num_edge_labels = 2;
  options.seed = 4;
  const KkResult r = GenerateKkTransactions(options);
  // Each seed pattern should be contained in a healthy share of the
  // transactions (it is planted repeatedly).
  for (const auto& seed : r.seed_patterns) {
    std::size_t hits = 0;
    for (const auto& t : r.transactions) {
      hits += iso::SubgraphMatcher(seed).Contains(graph::GraphView(t));
    }
    EXPECT_GE(hits, 8u) << seed.DebugString();
  }
}

TEST(KkGeneratorTest, MoreLabelsMeanMoreDistinctEdgeTypes) {
  KkOptions few;
  few.num_transactions = 60;
  few.num_vertex_labels = 2;
  few.seed = 5;
  KkOptions many = few;
  many.num_vertex_labels = 60;
  auto count_types = [](const KkResult& r) {
    std::set<std::tuple<graph::Label, graph::Label, graph::Label>> types;
    for (const auto& t : r.transactions) {
      t.ForEachEdge([&](graph::EdgeId e) {
        types.insert({t.vertex_label(t.edge(e).src),
                      t.vertex_label(t.edge(e).dst), t.edge(e).label});
      });
    }
    return types.size();
  };
  EXPECT_GT(count_types(GenerateKkTransactions(many)),
            2 * count_types(GenerateKkTransactions(few)));
}

// --- Degenerate-parameter contract (see KkOptions): the scenario fuzzer
// feeds this generator arbitrary draws, so no combination may abort.

TEST(KkGeneratorTest, ZeroTransactionsStillDrawsSeedPatterns) {
  KkOptions options;
  options.num_transactions = 0;
  options.num_seed_patterns = 7;
  options.seed = 10;
  const KkResult r = GenerateKkTransactions(options);
  EXPECT_TRUE(r.transactions.empty());
  EXPECT_EQ(r.seed_patterns.size(), 7u);
}

TEST(KkGeneratorTest, EmptySeedPoolFallsBackToRandomEdges) {
  KkOptions options;
  options.num_transactions = 20;
  options.num_seed_patterns = 0;
  options.avg_transaction_edges = 8;
  options.seed = 11;
  const KkResult r = GenerateKkTransactions(options);
  EXPECT_TRUE(r.seed_patterns.empty());
  ASSERT_EQ(r.transactions.size(), 20u);
  for (const auto& t : r.transactions) {
    EXPECT_GE(t.num_edges(), 1u);
    EXPECT_TRUE(t.IsDense());
  }
}

TEST(KkGeneratorTest, LabelCardinalityOneAndBelowIsClamped) {
  for (const int labels : {1, 0, -3}) {
    KkOptions options;
    options.num_transactions = 10;
    options.num_vertex_labels = labels;
    options.num_edge_labels = labels;
    options.seed = 12;
    const KkResult r = GenerateKkTransactions(options);
    ASSERT_EQ(r.transactions.size(), 10u);
    for (const auto& t : r.transactions) {
      for (graph::VertexId v = 0; v < t.num_vertices(); ++v) {
        EXPECT_EQ(t.vertex_label(v), 0);
      }
      t.ForEachEdge([&](graph::EdgeId e) { EXPECT_EQ(t.edge(e).label, 0); });
    }
  }
}

TEST(KkGeneratorTest, AllDegenerateParametersAtOnce) {
  KkOptions options;
  options.num_transactions = 0;
  options.num_seed_patterns = 0;
  options.num_vertex_labels = 0;
  options.num_edge_labels = 0;
  options.avg_transaction_edges = 0;
  options.avg_pattern_edges = 0;
  options.seed = 13;
  const KkResult r = GenerateKkTransactions(options);
  EXPECT_TRUE(r.transactions.empty());
  EXPECT_TRUE(r.seed_patterns.empty());
}

TEST(KkGeneratorTest, TextureKnobsOffPreserveTheDefaultStream) {
  // The scenario knobs must be RNG-inert at their defaults: a
  // default-constructed KkOptions produces the byte-identical stream it
  // always has (the statistical tests above depend on it).
  KkOptions plain;
  plain.num_transactions = 30;
  plain.seed = 14;
  KkOptions with_defaults = plain;
  with_defaults.hub_skew = 0.0;
  with_defaults.seasonality_period = 0;
  with_defaults.disruption_rate = 0.0;
  with_defaults.motif_concentration = 0.0;
  const KkResult a = GenerateKkTransactions(plain);
  const KkResult b = GenerateKkTransactions(with_defaults);
  ASSERT_EQ(a.transactions.size(), b.transactions.size());
  for (std::size_t i = 0; i < a.transactions.size(); ++i) {
    EXPECT_EQ(iso::CanonicalCode(a.transactions[i]),
              iso::CanonicalCode(b.transactions[i]));
  }
}

TEST(KkGeneratorTest, TextureKnobsProduceDenseTransactions) {
  KkOptions options;
  options.num_transactions = 40;
  options.avg_transaction_edges = 10;
  options.hub_skew = 1.2;
  options.seasonality_period = 2;
  options.disruption_rate = 0.5;
  options.motif_concentration = 1.0;
  options.seed = 15;
  const KkResult r = GenerateKkTransactions(options);
  ASSERT_EQ(r.transactions.size(), 40u);
  for (const auto& t : r.transactions) {
    EXPECT_TRUE(t.IsDense());
    EXPECT_GE(t.num_edges(), 1u);
  }
}

TEST(KkGeneratorTest, HubSkewConcentratesDegree) {
  KkOptions uniform;
  uniform.num_transactions = 60;
  uniform.num_seed_patterns = 0;  // pure random-edge transactions
  uniform.avg_transaction_edges = 30;
  uniform.seed = 16;
  KkOptions skewed = uniform;
  skewed.hub_skew = 1.5;
  auto max_degree_share = [](const KkResult& r) {
    double total = 0;
    for (const auto& t : r.transactions) {
      std::vector<std::size_t> degree(t.num_vertices(), 0);
      t.ForEachEdge([&](graph::EdgeId e) {
        degree[t.edge(e).src]++;
        degree[t.edge(e).dst]++;
      });
      std::size_t max_degree = 0;
      for (const std::size_t d : degree) max_degree = std::max(max_degree, d);
      total += static_cast<double>(max_degree) /
               static_cast<double>(2 * t.num_edges());
    }
    return total / static_cast<double>(r.transactions.size());
  };
  EXPECT_GT(max_degree_share(GenerateKkTransactions(skewed)),
            max_degree_share(GenerateKkTransactions(uniform)));
}

TEST(PlantedTest, GroundTruthEmbedded) {
  PlantedOptions options;
  options.num_patterns = 4;
  options.pattern_edges = 3;
  options.instances_per_pattern = 10;
  options.noise_vertices = 30;
  options.noise_edges = 40;
  options.seed = 6;
  const PlantedResult r = GeneratePlantedGraph(options);
  ASSERT_EQ(r.patterns.size(), 4u);
  for (const auto& p : r.patterns) {
    // Every planted pattern embeds in the generated graph.
    EXPECT_TRUE(iso::SubgraphMatcher(p).Contains(graph::GraphView(r.graph)));
  }
}

TEST(PlantedTest, PatternsPairwiseNonIsomorphic) {
  PlantedOptions options;
  options.num_patterns = 6;
  options.seed = 7;
  const PlantedResult r = GeneratePlantedGraph(options);
  std::set<std::string> codes;
  for (const auto& p : r.patterns) {
    EXPECT_TRUE(codes.insert(iso::CanonicalCode(p)).second);
  }
}

TEST(PlantedTest, GraphSizeAccounting) {
  PlantedOptions options;
  options.num_patterns = 2;
  options.pattern_edges = 3;
  options.instances_per_pattern = 5;
  options.noise_vertices = 10;
  options.noise_edges = 20;
  options.seed = 8;
  const PlantedResult r = GeneratePlantedGraph(options);
  std::size_t instance_edges = 0;
  for (const auto& p : r.patterns) {
    instance_edges += p.num_edges() * options.instances_per_pattern;
  }
  EXPECT_EQ(r.graph.num_edges(), instance_edges + options.noise_edges);
}

TEST(PlantedTest, RecallMeasure) {
  PlantedOptions options;
  options.num_patterns = 4;
  options.seed = 9;
  const PlantedResult r = GeneratePlantedGraph(options);
  pattern::PatternRegistry mined;
  // Register two of the four truths.
  for (int i = 0; i < 2; ++i) {
    pattern::FrequentPattern p;
    p.graph = r.patterns[static_cast<std::size_t>(i)];
    p.support = 10;
    mined.InsertOrMerge(std::move(p));
  }
  EXPECT_DOUBLE_EQ(PatternRecall(r.patterns, mined), 0.5);
  EXPECT_DOUBLE_EQ(PatternRecall({}, mined), 0.0);
}

// --- Scenario configs (the fuzz-replay artifact format) -------------------

TEST(ScenarioTest, SerializeParseRoundTripsExactly) {
  Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    const ScenarioConfig config = DrawScenario(rng);
    const std::string text = SerializeScenario(config);
    ScenarioConfig parsed;
    std::string error;
    ASSERT_TRUE(ParseScenario(text, &parsed, &error)) << error;
    // Byte-identical re-serialization == every field (doubles included)
    // survived the round trip exactly.
    EXPECT_EQ(SerializeScenario(parsed), text);
  }
}

TEST(ScenarioTest, DrawIsDeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(SerializeScenario(DrawScenario(a)),
            SerializeScenario(DrawScenario(b)));
  EXPECT_NE(SerializeScenario(DrawScenario(a)),
            SerializeScenario(DrawScenario(c)));
}

TEST(ScenarioTest, ParseIgnoresSidecarMetadataLines) {
  Rng rng(100);
  const ScenarioConfig config = DrawScenario(rng);
  const std::string text = "oracle: miner_equiv\ndetail: some prose\n" +
                           SerializeScenario(config) + "not a key line\n";
  ScenarioConfig parsed;
  ASSERT_TRUE(ParseScenario(text, &parsed, nullptr));
  EXPECT_EQ(SerializeScenario(parsed), SerializeScenario(config));
}

TEST(ScenarioTest, ParseRejectsMalformedValues) {
  std::string error;
  EXPECT_FALSE(ParseScenario("min_support: -1\n", nullptr, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseScenario("budget_fraction: nan\n", nullptr, nullptr));
  EXPECT_FALSE(ParseScenario("partitioner: metis\n", nullptr, nullptr));
  EXPECT_FALSE(ParseScenario("num_threads: 0\n", nullptr, nullptr));
}

}  // namespace
}  // namespace tnmine::synth
