// Additional cross-module property tests: induced matching against brute
// force, generator calendar texture, partitioning of tombstoned inputs,
// and the equal-frequency binning switches.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <tuple>
#include <vector>

#include "common/date.h"
#include "common/random.h"
#include "data/generator.h"
#include "data/od_graph.h"
#include "iso/vf2.h"
#include "partition/split_graph.h"
#include "partition/temporal.h"

namespace tnmine {
namespace {

using graph::EdgeId;
using graph::Label;
using graph::LabeledGraph;
using graph::VertexId;

/// Brute-force induced-subgraph check: every injective label-preserving
/// assignment where each mapped pair carries exactly the pattern's edges.
bool BruteForceInduced(const LabeledGraph& pattern,
                       const LabeledGraph& target) {
  const std::size_t np = pattern.num_vertices();
  const std::size_t nt = target.num_vertices();
  if (np > nt) return false;
  std::vector<VertexId> assignment(np);
  std::vector<char> used(nt, 0);
  auto edge_counts = [](const LabeledGraph& g, VertexId a, VertexId b) {
    std::map<Label, int> counts;
    g.ForEachOutEdge(a, [&](EdgeId e) {
      if (g.edge(e).dst == b) ++counts[g.edge(e).label];
    });
    return counts;
  };
  std::function<bool(std::size_t)> rec = [&](std::size_t i) -> bool {
    if (i == np) {
      for (VertexId p = 0; p < np; ++p) {
        for (VertexId q = 0; q < np; ++q) {
          if (edge_counts(pattern, p, q) !=
              edge_counts(target, assignment[p], assignment[q])) {
            return false;
          }
        }
      }
      return true;
    }
    for (VertexId t = 0; t < nt; ++t) {
      if (used[t] ||
          target.vertex_label(t) != pattern.vertex_label(
                                        static_cast<VertexId>(i))) {
        continue;
      }
      used[t] = 1;
      assignment[i] = t;
      if (rec(i + 1)) return true;
      used[t] = 0;
    }
    return false;
  };
  return rec(0);
}

class InducedRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InducedRandomTest, MatchesBruteForce) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    LabeledGraph target;
    const std::size_t nt = 4 + rng.NextBounded(2);
    for (std::size_t i = 0; i < nt; ++i) {
      target.AddVertex(static_cast<Label>(rng.NextBounded(2)));
    }
    const std::size_t et = 2 + rng.NextBounded(6);
    for (std::size_t i = 0; i < et; ++i) {
      target.AddEdge(static_cast<VertexId>(rng.NextBounded(nt)),
                     static_cast<VertexId>(rng.NextBounded(nt)),
                     static_cast<Label>(rng.NextBounded(2)));
    }
    LabeledGraph pattern;
    const std::size_t np = 2 + rng.NextBounded(2);
    for (std::size_t i = 0; i < np; ++i) {
      pattern.AddVertex(static_cast<Label>(rng.NextBounded(2)));
    }
    const std::size_t ep = 1 + rng.NextBounded(2);
    for (std::size_t i = 0; i < ep; ++i) {
      pattern.AddEdge(static_cast<VertexId>(rng.NextBounded(np)),
                      static_cast<VertexId>(rng.NextBounded(np)),
                      static_cast<Label>(rng.NextBounded(2)));
    }
    const bool contained = iso::SubgraphMatcher(pattern).Contains(
        graph::GraphView(target), {.induced = true});
    ASSERT_EQ(contained, BruteForceInduced(pattern, target))
        << pattern.DebugString() << target.DebugString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InducedRandomTest,
                         ::testing::Values(51, 52, 53, 54, 55));

TEST(GeneratorCalendarTest, QuietWeekAndWeekendsRunLight) {
  data::GeneratorConfig config = data::GeneratorConfig::SmallScale();
  config.num_days = 70;
  config.seed = 5;
  const auto ds = data::GenerateTransportData(config);
  const std::int64_t start = DayNumberFromCivil(
      {config.start_year, config.start_month, config.start_day_of_month});
  std::map<std::int64_t, std::size_t> pickups_by_day;
  for (const auto& t : ds.transactions()) {
    ++pickups_by_day[t.req_pickup_day];
  }
  double weekday_total = 0, weekday_days = 0;
  double weekend_total = 0, weekend_days = 0;
  for (std::int64_t d = start; d < start + 70; ++d) {
    const std::size_t count =
        pickups_by_day.contains(d) ? pickups_by_day[d] : 0;
    const std::size_t index = static_cast<std::size_t>(d - start);
    const bool quiet_week = index >= 35 && index < 42;  // num_days/2
    if (quiet_week) continue;
    if (DayOfWeek(d) >= 5) {
      weekend_total += static_cast<double>(count);
      ++weekend_days;
    } else {
      weekday_total += static_cast<double>(count);
      ++weekday_days;
    }
  }
  const double weekday_avg = weekday_total / weekday_days;
  const double weekend_avg = weekend_total / weekend_days;
  EXPECT_LT(weekend_avg, 0.4 * weekday_avg);
  // Quiet-week interior days run nearly empty.
  double quiet_total = 0;
  for (std::size_t i = 36; i < 41; ++i) {
    const std::int64_t d = start + static_cast<std::int64_t>(i);
    quiet_total += pickups_by_day.contains(d)
                       ? static_cast<double>(pickups_by_day[d])
                       : 0.0;
  }
  EXPECT_LT(quiet_total / 5.0, 0.2 * weekday_avg);
}

TEST(SplitGraphTest, HandlesTombstonedInput) {
  Rng rng(7);
  LabeledGraph g;
  for (int i = 0; i < 30; ++i) g.AddVertex(0);
  std::vector<EdgeId> edges;
  for (int i = 0; i < 80; ++i) {
    edges.push_back(g.AddEdge(static_cast<VertexId>(rng.NextBounded(30)),
                              static_cast<VertexId>(rng.NextBounded(30)),
                              static_cast<Label>(rng.NextBounded(3))));
  }
  for (int i = 0; i < 20; ++i) {
    g.RemoveEdge(edges[static_cast<std::size_t>(i) * 4]);
  }
  partition::SplitOptions options;
  options.num_partitions = 5;
  const auto parts = partition::SplitGraph(g, options);
  std::size_t total = 0;
  for (const auto& p : parts) total += p.num_edges();
  EXPECT_EQ(total, g.num_edges());  // live edges only, each exactly once
}

TEST(BinningSwitchTest, OdGraphEqualFrequencyFillsBins) {
  const auto ds =
      data::GenerateTransportData(data::GeneratorConfig::SmallScale());
  data::OdGraphOptions ew;
  ew.attribute = data::EdgeAttribute::kGrossWeight;
  ew.num_bins = 7;
  ew.equal_frequency = false;
  data::OdGraphOptions ef = ew;
  ef.equal_frequency = true;
  const auto width_graph = data::BuildOdGraph(ds, ew);
  const auto freq_graph = data::BuildOdGraph(ds, ef);
  // Equal-width on heavy-tailed weights concentrates mass in few labels;
  // equal-frequency populates all seven.
  EXPECT_EQ(freq_graph.graph.CountDistinctEdgeLabels(), 7u);
  EXPECT_LE(width_graph.graph.CountDistinctEdgeLabels(), 7u);
  // Count the share of the most common label under each scheme.
  auto top_share = [](const data::OdGraph& og) {
    std::map<Label, std::size_t> counts;
    og.graph.ForEachEdge(
        [&](EdgeId e) { ++counts[og.graph.edge(e).label]; });
    std::size_t top = 0;
    for (const auto& [label, c] : counts) top = std::max(top, c);
    return static_cast<double>(top) /
           static_cast<double>(og.graph.num_edges());
  };
  EXPECT_GT(top_share(width_graph), top_share(freq_graph));
}

TEST(BinningSwitchTest, TemporalEqualWidthOption) {
  const auto ds =
      data::GenerateTransportData(data::GeneratorConfig::SmallScale());
  partition::TemporalOptions freq;
  freq.equal_frequency = true;
  partition::TemporalOptions width;
  width.equal_frequency = false;
  const auto a = partition::PartitionByActiveDay(ds, freq);
  const auto b = partition::PartitionByActiveDay(ds, width);
  EXPECT_NE(a.discretizer.cut_points(), b.discretizer.cut_points());
}

}  // namespace
}  // namespace tnmine
