#include "fsg/fsg.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "common/random.h"
#include "graph/algorithms.h"
#include "graph/transaction_source.h"
#include "iso/canonical.h"
#include "iso/vf2.h"

namespace tnmine::fsg {
namespace {

using graph::Label;
using graph::LabeledGraph;
using graph::VertexId;

LabeledGraph Edge1(Label a, Label b, Label e) {
  LabeledGraph g;
  const VertexId va = g.AddVertex(a);
  const VertexId vb = g.AddVertex(b);
  g.AddEdge(va, vb, e);
  return g;
}

/// The 2-edge subgraph of `g` formed by edges `a` and `b`.
LabeledGraph EdgePair(const LabeledGraph& g, graph::EdgeId a,
                      graph::EdgeId b) {
  LabeledGraph pair;
  std::map<VertexId, VertexId> ids;
  auto id = [&](VertexId v) {
    const auto [it, fresh] = ids.emplace(v, 0);
    if (fresh) it->second = pair.AddVertex(g.vertex_label(v));
    return it->second;
  };
  for (const graph::EdgeId e : {a, b}) {
    const VertexId src = id(g.edge(e).src);
    pair.AddEdge(src, id(g.edge(e).dst), g.edge(e).label);
  }
  return pair;
}

LabeledGraph Triangle(Label v, Label e) {
  LabeledGraph g;
  const VertexId a = g.AddVertex(v);
  const VertexId b = g.AddVertex(v);
  const VertexId c = g.AddVertex(v);
  g.AddEdge(a, b, e);
  g.AddEdge(b, c, e);
  g.AddEdge(c, a, e);
  return g;
}

TEST(FsgTest, EmptyTransactionsGiveNothing) {
  FsgOptions options;
  options.min_support = 1;
  const FsgResult r = MineFsg({}, options);
  EXPECT_TRUE(r.patterns.empty());
}

TEST(FsgTest, SingleEdgeSupportCounting) {
  std::vector<LabeledGraph> txns = {Edge1(0, 1, 5), Edge1(0, 1, 5),
                                    Edge1(0, 1, 6)};
  FsgOptions options;
  options.min_support = 2;
  const FsgResult r = MineFsg(txns, options);
  ASSERT_EQ(r.patterns.size(), 1u);
  EXPECT_EQ(r.patterns[0].support, 2u);
  EXPECT_EQ(r.patterns[0].tids.ToVector(), (std::vector<std::uint32_t>{0, 1}));
}

TEST(FsgTest, FindsPlantedTriangle) {
  std::vector<LabeledGraph> txns;
  for (int i = 0; i < 4; ++i) txns.push_back(Triangle(0, 1));
  txns.push_back(Edge1(0, 0, 1));  // noise transaction
  FsgOptions options;
  options.min_support = 4;
  const FsgResult r = MineFsg(txns, options);
  // Frequent: single edge (support 5), 2-edge path / 2-in / 2-out shapes
  // from the triangle, and the triangle itself (support 4).
  bool found_triangle = false;
  for (const auto& p : r.patterns) {
    if (p.graph.num_edges() == 3) {
      EXPECT_EQ(p.support, 4u);
      EXPECT_EQ(p.code, iso::CanonicalCode(Triangle(0, 1)));
      found_triangle = true;
    }
  }
  EXPECT_TRUE(found_triangle);
}

TEST(FsgTest, AllReportedPatternsConnected) {
  Rng rng(3);
  std::vector<LabeledGraph> txns;
  for (int t = 0; t < 10; ++t) {
    LabeledGraph g;
    for (int i = 0; i < 6; ++i) {
      g.AddVertex(static_cast<Label>(rng.NextBounded(2)));
    }
    for (int i = 0; i < 8; ++i) {
      g.AddEdge(static_cast<VertexId>(rng.NextBounded(6)),
                static_cast<VertexId>(rng.NextBounded(6)),
                static_cast<Label>(rng.NextBounded(2)));
    }
    txns.push_back(std::move(g));
  }
  FsgOptions options;
  options.min_support = 3;
  options.max_edges = 4;
  const FsgResult r = MineFsg(txns, options);
  for (const auto& p : r.patterns) {
    EXPECT_TRUE(graph::IsWeaklyConnected(p.graph)) << p.graph.DebugString();
  }
}

TEST(FsgTest, SupportsAreExact) {
  // Independent verification: every reported pattern's support must match
  // a from-scratch VF2 scan of all transactions, and no pattern may be
  // reported below min_support.
  auto expect_exact = [](const std::vector<LabeledGraph>& txns,
                         const FsgResult& r, std::size_t min_support) {
    ASSERT_FALSE(r.patterns.empty());
    for (const auto& p : r.patterns) {
      std::vector<std::uint32_t> expect_tids;
      for (std::uint32_t tid = 0; tid < txns.size(); ++tid) {
        if (iso::SubgraphMatcher(p.graph).Contains(
                graph::GraphView(txns[tid]))) {
          expect_tids.push_back(tid);
        }
      }
      EXPECT_EQ(p.tids.ToVector(), expect_tids) << p.graph.DebugString();
      EXPECT_EQ(p.support, expect_tids.size());
      EXPECT_GE(p.support, min_support);
    }
  };
  Rng rng(7);
  std::vector<LabeledGraph> txns;
  for (int t = 0; t < 12; ++t) {
    LabeledGraph g;
    for (int i = 0; i < 5; ++i) {
      g.AddVertex(static_cast<Label>(rng.NextBounded(2)));
    }
    for (int i = 0; i < 7; ++i) {
      g.AddEdge(static_cast<VertexId>(rng.NextBounded(5)),
                static_cast<VertexId>(rng.NextBounded(5)),
                static_cast<Label>(rng.NextBounded(2)));
    }
    txns.push_back(std::move(g));
  }
  FsgOptions options;
  options.min_support = 4;
  options.max_edges = 3;
  expect_exact(txns, MineFsg(txns, options), options.min_support);

  // Hubs: same-type spokes in both directions, a self-loop at the hub, a
  // parallel and an anti-parallel pair — the wedges sharing two vertices
  // (or one vertex twice). The level-2 wedge index must stay exact and
  // complete at every shard cut, and level 3 builds on it.
  std::vector<LabeledGraph> hubs;
  for (int t = 0; t < 6; ++t) {
    LabeledGraph g;
    const VertexId hub = g.AddVertex(0);
    for (int i = 0; i < 3 + t % 3; ++i) {
      const VertexId spoke = g.AddVertex(1);
      if (i % 2 == 0) {
        g.AddEdge(hub, spoke, 0);
      } else {
        g.AddEdge(spoke, hub, 0);
      }
    }
    if (t % 2 == 0) g.AddEdge(hub, hub, 0);  // self-loop
    if (t % 3 != 2) g.AddEdge(hub, 1, 0);    // parallel to hub -> 1
    if (t % 3 != 1) g.AddEdge(hub, 2, 0);    // anti-parallel to 2 -> hub
    hubs.push_back(std::move(g));
  }
  options.min_support = 2;
  // Every frequent 2-edge pattern, found by brute force over edge pairs.
  std::set<std::string> frequent_pairs;
  for (const LabeledGraph& g : hubs) {
    for (graph::EdgeId a = 0; a < g.num_edges(); ++a) {
      for (graph::EdgeId b = a + 1; b < g.num_edges(); ++b) {
        const graph::Edge& x = g.edge(a);
        const graph::Edge& y = g.edge(b);
        if (x.src != y.src && x.src != y.dst && x.dst != y.src &&
            x.dst != y.dst) {
          continue;
        }
        const LabeledGraph pair = EdgePair(g, a, b);
        std::size_t support = 0;
        for (const LabeledGraph& h : hubs) {
          support += iso::SubgraphMatcher(pair).Contains(graph::GraphView(h));
        }
        if (support >= options.min_support) {
          frequent_pairs.insert(iso::CanonicalCode(pair));
        }
      }
    }
  }
  for (std::size_t max_edges : {2u, 3u}) {
    options.max_edges = max_edges;
    for (std::size_t shard_size : {std::size_t{1}, std::size_t{2},
                                   hubs.size()}) {
      SCOPED_TRACE(::testing::Message() << "max_edges " << max_edges
                                        << ", shard size " << shard_size);
      std::vector<graph::GraphView> views;
      for (const LabeledGraph& g : hubs) views.emplace_back(g);
      graph::InMemoryTransactionSource source(std::move(views), shard_size);
      const FsgResult r = MineFsg(source, options);
      EXPECT_EQ(r.levels_completed, max_edges);
      std::set<std::string> mined_pairs;
      bool two_vertex_wedge = false;
      for (const auto& p : r.patterns) {
        if (p.graph.num_edges() != 2) continue;
        mined_pairs.insert(p.code);
        two_vertex_wedge |= p.graph.num_vertices() == 2;
      }
      EXPECT_EQ(mined_pairs, frequent_pairs);
      EXPECT_TRUE(two_vertex_wedge);
      expect_exact(hubs, r, options.min_support);
    }
  }
}

TEST(FsgTest, MaxEdgesBoundsPatternSize) {
  std::vector<LabeledGraph> txns = {Triangle(0, 1), Triangle(0, 1)};
  FsgOptions options;
  options.min_support = 2;
  options.max_edges = 2;
  const FsgResult r = MineFsg(txns, options);
  for (const auto& p : r.patterns) {
    EXPECT_LE(p.graph.num_edges(), 2u);
  }
  EXPECT_EQ(r.levels_completed, 2u);
}

TEST(FsgTest, ParallelEdgePatternsNeedMultiplicity) {
  // One transaction has a doubled edge, two have single edges.
  LabeledGraph doubled = Edge1(0, 1, 5);
  doubled.AddEdge(0, 1, 5);
  std::vector<LabeledGraph> txns = {doubled, Edge1(0, 1, 5), Edge1(0, 1, 5)};
  FsgOptions options;
  options.min_support = 1;
  options.max_edges = 2;
  const FsgResult r = MineFsg(txns, options);
  bool found_parallel = false;
  for (const auto& p : r.patterns) {
    if (p.graph.num_edges() == 2 && p.graph.num_vertices() == 2) {
      // The doubled-edge pattern: supported only by transaction 0.
      bool parallel_same = true;
      p.graph.ForEachEdge([&](graph::EdgeId e) {
        parallel_same = parallel_same && p.graph.edge(e).src == 0 &&
                        p.graph.edge(e).dst == 1 &&
                        p.graph.edge(e).label == 5;
      });
      if (parallel_same) {
        found_parallel = true;
        EXPECT_EQ(p.support, 1u);
        EXPECT_EQ(p.tids.ToVector(), (std::vector<std::uint32_t>{0}));
      }
    }
  }
  EXPECT_TRUE(found_parallel);
}

TEST(FsgTest, MemoryBudgetAborts) {
  Rng rng(11);
  std::vector<LabeledGraph> txns;
  for (int t = 0; t < 8; ++t) {
    LabeledGraph g;
    for (int i = 0; i < 8; ++i) {
      g.AddVertex(static_cast<Label>(rng.NextBounded(4)));
    }
    for (int i = 0; i < 14; ++i) {
      g.AddEdge(static_cast<VertexId>(rng.NextBounded(8)),
                static_cast<VertexId>(rng.NextBounded(8)),
                static_cast<Label>(rng.NextBounded(4)));
    }
    txns.push_back(std::move(g));
  }
  FsgOptions options;
  options.min_support = 2;
  options.max_candidate_bytes = 512;  // absurdly small: must trip
  const FsgResult r = MineFsg(txns, options);
  EXPECT_EQ(r.outcome, common::MiningOutcome::kMemoryBudgetExceeded);
  // Level-1 patterns are still reported (the abort happens at candidate
  // generation, as FSG's real OOM did).
  EXPECT_FALSE(r.patterns.empty());
  EXPECT_GT(r.peak_candidate_bytes, 512u);
}

TEST(FsgTest, LevelDiagnosticsConsistent) {
  std::vector<LabeledGraph> txns = {Triangle(0, 1), Triangle(0, 1),
                                    Triangle(0, 2)};
  FsgOptions options;
  options.min_support = 2;
  const FsgResult r = MineFsg(txns, options);
  ASSERT_EQ(r.candidates_per_level.size(), r.frequent_per_level.size());
  std::size_t total = 0;
  for (std::size_t f : r.frequent_per_level) total += f;
  EXPECT_EQ(total, r.patterns.size());
  for (std::size_t i = 0; i < r.frequent_per_level.size(); ++i) {
    EXPECT_LE(r.frequent_per_level[i], r.candidates_per_level[i]);
  }
}

TEST(FsgTest, SelfLoopPatterns) {
  LabeledGraph loop;
  const VertexId a = loop.AddVertex(3);
  loop.AddEdge(a, a, 9);
  std::vector<LabeledGraph> txns = {loop, loop, Edge1(3, 3, 9)};
  FsgOptions options;
  options.min_support = 2;
  const FsgResult r = MineFsg(txns, options);
  ASSERT_EQ(r.patterns.size(), 1u);
  EXPECT_EQ(r.patterns[0].support, 2u);
  EXPECT_EQ(r.patterns[0].graph.num_vertices(), 1u);
}

}  // namespace
}  // namespace tnmine::fsg
