#include "fsg/fsg.h"

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "common/budget.h"
#include "common/check.h"
#include "common/failpoint.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "graph/algorithms.h"
#include "graph/graph_view.h"
#include "graph/transaction_source.h"
#include "iso/canonical.h"
#include "iso/vf2.h"
#include "pattern/tid_set.h"

namespace tnmine::fsg {

using graph::Edge;
using graph::EdgeId;
using graph::Label;
using graph::LabeledGraph;
using graph::VertexId;
using pattern::FrequentPattern;
using pattern::TidSet;
using EdgeTypeKey = graph::GraphView::EdgeTypeKey;

namespace {

/// Per-pattern memory footprint used for the OOM budget. The TID set
/// reports its exact heap footprint (DESIGN.md §12); the rest stays a
/// structural estimate.
std::uint64_t EstimateBytes(const FrequentPattern& p) {
  return 64 + 8 * p.graph.num_vertices() + 16 * p.graph.num_edges() +
         p.code.size() + p.tids.MemoryBytes();
}

/// Edge type of `e` in `g`: LabeledGraph for patterns, GraphView for
/// transactions.
template <typename G>
EdgeTypeKey TypeOf(const G& g, const Edge& e) {
  return {g.vertex_label(e.src), g.vertex_label(e.dst), e.label,
          e.src == e.dst};
}

/// Builds the 1-edge pattern graph for an edge type.
LabeledGraph OneEdgePattern(const EdgeTypeKey& t) {
  LabeledGraph g;
  const VertexId a = g.AddVertex(t.src_label);
  if (t.self_loop) {
    g.AddEdge(a, a, t.edge_label);
  } else {
    const VertexId b = g.AddVertex(t.dst_label);
    g.AddEdge(a, b, t.edge_label);
  }
  return g;
}

/// Removes edge `drop` from `g`, drops isolated vertices, and returns the
/// result; used for the downward-closure check.
LabeledGraph WithoutEdge(const LabeledGraph& g, EdgeId drop) {
  LabeledGraph copy = g;
  copy.RemoveEdge(drop);
  return copy.Compact(/*drop_isolated_vertices=*/true);
}

/// Role of vertex v in edge e: 0 = source, 1 = destination, 2 = both
/// (self-loop).
std::uint32_t RoleOf(const Edge& e, VertexId v) {
  if (e.src == v && e.dst == v) return 2;
  return e.src == v ? 0 : 1;
}

/// Signature of a connected 2-edge subgraph: both edge types (src label,
/// dst label, edge label, self-loop flag), the number of shared vertices,
/// then one (label, role in the first edge, role in the second)
/// descriptor per shared vertex, sorted. A one-vertex wedge leaves the
/// last three words zero; the count word keeps it distinct.
using WedgeKey = std::array<std::uint32_t, 15>;

struct WedgeKeyHash {
  std::size_t operator()(const WedgeKey& k) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const std::uint32_t w : k) {
      h = (h ^ w) * 0xff51afd7ed558ccdULL;
      h ^= h >> 32;
    }
    return static_cast<std::size_t>(h);
  }
};

/// The wedge key of (first, second) in that edge order.
template <typename G>
WedgeKey WedgeOrdering(const G& g, EdgeId first, EdgeId second) {
  const Edge& a = g.edge(first);
  const Edge& b = g.edge(second);
  WedgeKey key{};
  std::size_t w = 0;
  for (const Edge* e : {&a, &b}) {
    const EdgeTypeKey t = TypeOf(g, *e);
    key[w++] = static_cast<std::uint32_t>(t.src_label);
    key[w++] = static_cast<std::uint32_t>(t.dst_label);
    key[w++] = static_cast<std::uint32_t>(t.edge_label);
    key[w++] = t.self_loop ? 1 : 0;
  }
  std::array<std::array<std::uint32_t, 3>, 2> desc{};
  std::size_t n = 0;
  const VertexId ends[2] = {a.src, a.dst};
  for (int i = 0; i < (a.src == a.dst ? 1 : 2); ++i) {
    const VertexId v = ends[i];
    if (b.src == v || b.dst == v) {
      desc[n++] = {static_cast<std::uint32_t>(g.vertex_label(v)),
                   RoleOf(a, v), RoleOf(b, v)};
    }
  }
  if (n == 2 && desc[1] < desc[0]) std::swap(desc[0], desc[1]);
  key[w++] = static_cast<std::uint32_t>(n);
  for (const auto& d : desc) {
    for (const std::uint32_t x : d) key[w++] = x;
  }
  return key;
}

/// Canonical signature of the connected 2-edge subgraph {e1, e2} (the
/// edges must share at least one vertex): two such subgraphs get equal
/// signatures iff they are isomorphic. The smaller of the two edge
/// orderings covers the swap ambiguity when both edges have the same
/// type. This is what makes exact level-2 support counting from the
/// per-transaction wedge index possible — see DESIGN.md §12.
template <typename G>
WedgeKey WedgeSignature(const G& g, EdgeId e1, EdgeId e2) {
  return std::min(WedgeOrdering(g, e1, e2), WedgeOrdering(g, e2, e1));
}

/// One level-1 TID index, gathered one shard at a time: each shard's
/// lists hold shard-local ids and are spliced into the global sets with
/// TidSet::SpliceUnion at the shard's base. Shards arrive in ascending
/// base order, so every splice takes the pure append path and the sets
/// come out identical to a flat single-pass build at any shard cut.
template <typename Key>
class ShardedTidIndex {
 public:
  using Frozen = std::map<Key, std::shared_ptr<const TidSet>>;

  /// Records shard-local transaction `tid` under `key`; per key, tids
  /// arrive ascending and at most once.
  void Add(const Key& key, std::uint32_t tid) { local_[key].push_back(tid); }

  /// Splices the current shard's lists in at `base` and starts a new one.
  void EndShard(std::uint32_t base, std::uint32_t size) {
    for (auto& [key, tids] : local_) {
      sets_[key].SpliceUnion(TidSet::FromSorted(std::move(tids), size), base);
    }
    local_.clear();
  }

  /// The finished sets, each rebuilt through FromSorted so its universe
  /// is the full transaction count and its heap footprint a deterministic
  /// function of its contents, shard cut notwithstanding. `*bytes` grows
  /// by every set's footprint.
  Frozen Freeze(std::uint32_t universe, std::uint64_t* bytes) {
    Frozen frozen;
    for (auto& [key, set] : sets_) {
      auto fixed = std::make_shared<const TidSet>(
          TidSet::FromSorted(set.ToVector(), universe));
      *bytes += fixed->MemoryBytes();
      frozen.emplace_hint(frozen.end(), key, std::move(fixed));
    }
    sets_.clear();
    return frozen;
  }

 private:
  std::map<Key, std::vector<std::uint32_t>> local_;
  std::map<Key, TidSet> sets_;
};

/// Exact isomorphism test for the tiny dense pattern graphs extension
/// dedup compares: tries every label-respecting vertex bijection and
/// matches the translated edge multiset. Callers bucket by
/// iso::InvariantHash first, so inputs already agree on counts and
/// degrees; past a handful of vertices it falls back to canonical codes
/// instead of enumerating permutations.
bool SmallGraphsIsomorphic(const LabeledGraph& a, const LabeledGraph& b) {
  const std::size_t n = a.num_vertices();
  if (n != b.num_vertices() || a.num_edges() != b.num_edges()) return false;
  if (n > 8) {
    return iso::CanonicalCodeCached(a) == iso::CanonicalCodeCached(b);
  }
  std::vector<std::tuple<VertexId, VertexId, Label>> b_edges;
  b_edges.reserve(b.num_edges());
  b.ForEachEdge([&](EdgeId e) {
    const Edge& ed = b.edge(e);
    b_edges.emplace_back(ed.src, ed.dst, ed.label);
  });
  std::sort(b_edges.begin(), b_edges.end());
  std::vector<VertexId> perm(n);
  for (std::size_t v = 0; v < n; ++v) perm[v] = static_cast<VertexId>(v);
  std::vector<std::tuple<VertexId, VertexId, Label>> mapped;
  mapped.reserve(a.num_edges());
  do {
    bool labels_ok = true;
    for (std::size_t v = 0; v < n; ++v) {
      if (a.vertex_label(static_cast<VertexId>(v)) !=
          b.vertex_label(perm[v])) {
        labels_ok = false;
        break;
      }
    }
    if (!labels_ok) continue;
    mapped.clear();
    a.ForEachEdge([&](EdgeId e) {
      const Edge& ed = a.edge(e);
      mapped.emplace_back(perm[ed.src], perm[ed.dst], ed.label);
    });
    std::sort(mapped.begin(), mapped.end());
    if (mapped == b_edges) return true;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return false;
}

}  // namespace

FsgResult MineFsg(const std::vector<LabeledGraph>& transactions,
                  const FsgOptions& options) {
  for (const LabeledGraph& t : transactions) {
    TNMINE_CHECK_MSG(t.IsDense(), "transactions must be dense");
  }
  // One flat snapshot per transaction, presented as a single in-memory
  // shard; the source-based core below does all the mining. Keeping the
  // two overloads on one code path is what makes the byte-identity
  // contract between the in-RAM and out-of-core runs checkable.
  std::vector<graph::GraphView> views;
  views.reserve(transactions.size());
  for (const LabeledGraph& t : transactions) views.emplace_back(t);
  graph::InMemoryTransactionSource source(std::move(views));
  return MineFsg(source, options);
}

FsgResult MineFsg(graph::TransactionSource& source,
                  const FsgOptions& raw_options) {
  TNMINE_TRACE_SPAN("fsg/mine");
  TNMINE_COUNTER_ADD("fsg/runs_started", 1);
  // min_support = 0 means the same as 1 (see FsgOptions): clamp once so
  // every comparison below shares the contract with gSpan.
  FsgOptions options = raw_options;
  options.min_support = std::max<std::size_t>(1, options.min_support);
  FsgResult result;
  const auto universe = static_cast<std::uint32_t>(source.num_transactions());

  // Sequential tick ledger: level 1 and candidate generation run on the
  // calling thread, so charging them directly is deterministic. The
  // parallel counting phase is settled post hoc (see below).
  common::BudgetMeter meter(options.budget);

  // ---------------------------------------------------------------------
  // Level 1: frequent single-edge patterns by direct counting, gathered
  // one shard at a time (ShardedTidIndex). A budget stop here returns an
  // empty (but honest) result: partially counted level-1 supports would
  // under-report and cannot be emitted as frequent.
  //
  // The level-1 index lives for the whole mine: every observed edge
  // type's TID set (frequent or not) is retained so candidate generation
  // can intersect a join parent's set with the added edge type's set — a
  // necessary containment condition that shrinks the feasible set before
  // any VF2 call (DESIGN.md §12).
  ShardedTidIndex<EdgeTypeKey>::Frozen type_tids;
  // Transactions with at least k (2 <= k <= kMaxTypeMult) edges of a
  // type: a candidate using a type m > 1 times can only live where the
  // type occurs >= m times, and these sets are far smaller than the
  // plain presence sets. Capped at kMaxTypeMult (higher multiplicities
  // fall back to the >= kMaxTypeMult set — weaker but still exact).
  constexpr std::uint32_t kMaxTypeMult = 4;
  using MultKey = std::pair<EdgeTypeKey, std::uint32_t>;
  ShardedTidIndex<MultKey>::Frozen mult_tids;
  // Wedge index: for every adjacent edge pair of every transaction, the
  // pair's canonical signature is recorded once per transaction. Because
  // the signature identifies a connected 2-edge pattern up to
  // isomorphism, a signature's TID list is the exact support set of that
  // pattern — level 2 is counted from this index with no VF2 at all.
  ShardedTidIndex<WedgeKey>::Frozen wedge_tids;
  // Heap bytes of the three indexes (of the keys, wedge keys only).
  std::uint64_t type_index_bytes = 0;
  {
    TNMINE_TRACE_SPAN("fsg/level1");
    ShardedTidIndex<EdgeTypeKey> type_index;
    ShardedTidIndex<MultKey> mult_index;
    ShardedTidIndex<WedgeKey> wedge_index;
    std::unordered_set<WedgeKey, WedgeKeyHash> txn_sigs;
    std::uint64_t wedge_pairs = 0;
    common::MiningOutcome level1_stop = common::MiningOutcome::kComplete;
    try {
      for (std::size_t s = 0; s < source.num_shards(); ++s) {
        const graph::ShardRef shard = source.Pin(s);
        const auto shard_size =
            static_cast<std::uint32_t>(shard.views.size());
        for (std::uint32_t i = 0; i < shard_size; ++i) {
          const graph::GraphView& t = shard.views[i];
          level1_stop = meter.Charge(1 + t.num_edges());
          if (level1_stop != common::MiningOutcome::kComplete) break;
          // The view's edge-type index is exactly the distinct live edge
          // types of the transaction in key order, and each type's edge
          // list length is its multiplicity.
          for (std::size_t type = 0; type < t.NumEdgeTypes(); ++type) {
            const EdgeTypeKey& key = t.EdgeTypeAt(type);
            type_index.Add(key, i);
            const std::size_t count = std::min<std::size_t>(
                t.EdgesOfType(type).size(), kMaxTypeMult);
            for (std::uint32_t k = 2; k <= count; ++k) {
              mult_index.Add({key, k}, i);
            }
          }
          // Every adjacent pair is visited at each shared vertex; pairs
          // sharing two vertices come up twice and the per-transaction
          // signature set collapses the duplicates (presence is all the
          // index stores).
          txn_sigs.clear();
          auto add_pair = [&](EdgeId x, EdgeId y) {
            ++wedge_pairs;
            const WedgeKey sig = WedgeSignature(t, x, y);
            if (txn_sigs.insert(sig).second) wedge_index.Add(sig, i);
          };
          for (VertexId v = 0; v < t.num_vertices(); ++v) {
            // The edges at v: its out-edges, then its in-edges bar the
            // self-loops (src == v), which the out-edges already hold.
            const std::span<const EdgeId> out = t.OutEdgesById(v);
            const std::span<const EdgeId> in = t.InEdgesById(v);
            for (std::size_t a = 0; a < out.size(); ++a) {
              for (std::size_t b = a + 1; b < out.size(); ++b) {
                add_pair(out[a], out[b]);
              }
              for (const EdgeId y : in) {
                if (t.edge(y).src != v) add_pair(out[a], y);
              }
            }
            for (std::size_t a = 0; a < in.size(); ++a) {
              if (t.edge(in[a]).src == v) continue;
              for (std::size_t b = a + 1; b < in.size(); ++b) {
                if (t.edge(in[b]).src != v) add_pair(in[a], in[b]);
              }
            }
          }
        }
        if (level1_stop != common::MiningOutcome::kComplete) break;
        type_index.EndShard(shard.base, shard_size);
        mult_index.EndShard(shard.base, shard_size);
        wedge_index.EndShard(shard.base, shard_size);
      }
    } catch (const std::bad_alloc&) {
      // A shard pin that could not fit the memory ceiling even after
      // evicting everything else. Level 1 is incomplete, so nothing can
      // be emitted honestly.
      level1_stop = common::MiningOutcome::kMemoryBudgetExceeded;
    }
    TNMINE_COUNTER_ADD("fsg/wedge_pairs", wedge_pairs);
    if (level1_stop != common::MiningOutcome::kComplete) {
      result.outcome = level1_stop;
      result.work_ticks = meter.ticks_spent();
      common::RecordOutcome("fsg", result.outcome);
      return result;
    }
    type_tids = type_index.Freeze(universe, &type_index_bytes);
    mult_tids = mult_index.Freeze(universe, &type_index_bytes);
    wedge_tids = wedge_index.Freeze(universe, &type_index_bytes);
    type_index_bytes += wedge_tids.size() * sizeof(WedgeKey);
  }
  const auto empty_tids = std::make_shared<const TidSet>();
  result.candidates_per_level.push_back(type_tids.size());

  std::vector<FrequentPattern> frontier;
  // Frequent edge types for extension generation, self-loop flag
  // cleared: an extension may place a type's edge between distinct
  // vertices or on one.
  std::vector<EdgeTypeKey> frequent_edges;
  for (const auto& [type, set] : type_tids) {
    if (set->Cardinality() < options.min_support) continue;
    FrequentPattern p;
    p.graph = OneEdgePattern(type);
    p.tids = *set;
    p.support = p.tids.Cardinality();
    p.code = iso::CanonicalCodeCached(p.graph);
    frontier.push_back(std::move(p));
    EdgeTypeKey labels = type;
    labels.self_loop = false;
    if (frequent_edges.empty() || frequent_edges.back() != labels) {
      frequent_edges.push_back(labels);
    }
  }
  result.frequent_per_level.push_back(frontier.size());
  result.levels_completed = 1;
  TNMINE_COUNTER_ADD("fsg/candidates_generated", type_tids.size());
  TNMINE_COUNTER_ADD("fsg/patterns_frequent", frontier.size());

  // TID sets of all frequent patterns at the previous level, keyed by
  // canonical code. Serves the downward-closure prune (membership) and
  // the feasibility intersection (each frequent k-edge sub-pattern's set
  // is a superset of the candidate's support). Shared immutably with the
  // candidates that reference them.
  std::unordered_map<std::string, std::shared_ptr<const TidSet>>
      previous_level_tids;
  // When the previous level holds 2-edge patterns, the same sets keyed
  // by wedge signature: 3-edge extensions then run their closure checks
  // without building sub-graphs or canonical codes.
  std::unordered_map<WedgeKey, std::shared_ptr<const TidSet>, WedgeKeyHash>
      previous_level_sigs;
  auto rebuild_previous = [&](const std::vector<FrequentPattern>& fr) {
    previous_level_tids.clear();
    previous_level_sigs.clear();
    for (const FrequentPattern& p : fr) {
      auto set = std::make_shared<const TidSet>(p.tids);
      previous_level_tids.emplace(p.code, set);
      if (p.graph.num_edges() == 2) {
        previous_level_sigs.emplace(
            WedgeSignature(p.graph, EdgeId{0}, EdgeId{1}), std::move(set));
      }
    }
  };
  rebuild_previous(frontier);

  auto retained_bytes = [&] {
    std::uint64_t bytes = type_index_bytes;
    for (const FrequentPattern& p : frontier) bytes += EstimateBytes(p);
    for (const auto& [code, set] : previous_level_tids) {
      bytes += set->MemoryBytes();
    }
    return bytes;
  };
  std::uint64_t frontier_bytes = retained_bytes();
  result.peak_candidate_bytes = frontier_bytes;

  for (const FrequentPattern& p : frontier) {
    result.patterns.push_back(p);
  }

  // ---------------------------------------------------------------------
  // Levels 2..: extend, dedup, prune, count.
  std::size_t level = 1;  // edges in current frontier patterns
  while (!frontier.empty() &&
         (options.max_edges == 0 || level < options.max_edges)) {
    ++level;
    // Candidate generation.
    struct Candidate {
      FrequentPattern pattern;  // support/tids empty until counted
      // Transactions that can possibly contain the pattern: the join
      // parent's TID set intersected with the added edge type's level-1
      // set and every frequent sub-pattern's set. Shared immutably —
      // when the intersection does not shrink the parent's set, all of
      // the parent's candidates share one copy.
      std::shared_ptr<const TidSet> feasible;
      // True when `feasible` is the candidate's exact support set (the
      // level-2 wedge lookup) rather than an upper bound; counting then
      // takes the set as-is and skips VF2 entirely.
      bool feasible_exact = false;
    };
    std::unordered_map<std::string, Candidate> candidates;
    // Isomorphism classes of 2-edge extensions already seen this level,
    // keyed by wedge signature; dedup happens here so duplicates never
    // reach the canonical-code cache.
    std::unordered_set<WedgeKey, WedgeKeyHash> level2_seen;
    // Same idea for 3+ edge extensions: representatives of the classes
    // already considered, bucketed by invariant hash.
    std::unordered_map<std::uint64_t, std::vector<LabeledGraph>> ext_classes;
    std::uint64_t candidate_bytes = 0;
    bool oom = false;
    common::MiningOutcome level_outcome = common::MiningOutcome::kComplete;
    auto stopped = [&] {
      return oom || level_outcome != common::MiningOutcome::kComplete;
    };
    // Bytes charged against the shared memory ceiling for this level's
    // candidate set, released when the level's scope ends (break or not).
    std::uint64_t level_charged = 0;
    struct MemRelease {
      const common::ResourceBudget* budget;
      const std::uint64_t* bytes;
      ~MemRelease() { budget->ReleaseMemory(*bytes); }
    } release{&options.budget, &level_charged};
    // Level-local telemetry, flushed once per level so the hot extension
    // loop stays free of atomics.
    std::uint64_t extensions_considered = 0;
    std::uint64_t pruned_closure = 0;
    std::uint64_t pruned_by_join = 0;

    TNMINE_TRACE_SPAN("fsg/level");
    try {
      TNMINE_TRACE_SPAN("fsg/generate");
      for (const FrequentPattern& parent : frontier) {
        if (stopped()) break;
        const LabeledGraph& pg = parent.graph;
        // Lazily created shared copy of the parent's TID set, handed to
        // every candidate whose feasibility intersection removes nothing
        // (charged against the memory budget once, not per candidate).
        std::shared_ptr<const TidSet> parent_shared;
        std::vector<std::shared_ptr<const TidSet>> sub_sets;
        std::map<EdgeTypeKey, std::uint32_t> cand_type_counts;
        WedgeKey parent_sig{};
        if (pg.num_edges() == 2) {
          parent_sig = WedgeSignature(pg, EdgeId{0}, EdgeId{1});
        }
        // `extended` is the parent plus one edge, appended last.
        auto consider = [&](LabeledGraph&& extended) {
          if (stopped()) return;
          (void)TNMINE_FAILPOINT("fsg/consider");
          ++extensions_considered;
          // One tick per extension plus one per edge covers the canonical
          // code and closure checks; all of it runs sequentially, so the
          // ledger is deterministic.
          const common::MiningOutcome stop =
              meter.Charge(1 + extended.num_edges());
          if (stop != common::MiningOutcome::kComplete) {
            level_outcome = stop;
            return;
          }
          std::string code;
          std::shared_ptr<const TidSet> feasible;
          bool feasible_exact = false;
          std::uint64_t tid_bytes = 0;
          const std::size_t parent_card = parent.tids.Cardinality();
          if (extended.num_edges() == 2) {
            // Level 2 runs entirely off the level-1 indexes. The wedge
            // signature names the candidate's isomorphism class, so it
            // dedups isomorphic extensions before any canonical-code
            // work (isomorphic extensions serialize differently, and
            // each distinct serialization would pay a full canonical
            // search); the retained edge's level-1 frequency is the
            // whole downward-closure check; and the signature's TID set
            // is the exact support set, inside the parent's by
            // anti-monotonicity (DESIGN.md §12).
            const WedgeKey sig = WedgeSignature(extended, EdgeId{0}, EdgeId{1});
            if (!level2_seen.insert(sig).second) return;  // isomorphic dup
            const auto kept_it =
                type_tids.find(TypeOf(extended, extended.edge(EdgeId{0})));
            if (kept_it == type_tids.end() ||
                kept_it->second->Cardinality() < options.min_support) {
              ++pruned_closure;
              return;
            }
            const auto wit = wedge_tids.find(sig);
            feasible = wit == wedge_tids.end() ? empty_tids : wit->second;
            feasible_exact = true;
            pruned_by_join += parent_card - feasible->Cardinality();
            if (feasible->Cardinality() < options.min_support) {
              // The set is exact, so the candidate is already known
              // infrequent: dropping it here also skips its canonical
              // code entirely.
              return;
            }
            code = iso::CanonicalCodeCached(extended);
          } else {
            // 3+ edge extensions dedup by isomorphism class before any
            // canonical-code work (isomorphic extensions serialize
            // differently, so every distinct serialization used to pay
            // a full canonical search). Classes bucket by the cheap
            // invariant hash and are separated by an exact tiny-graph
            // isomorphism test; only the class representative runs the
            // closure check and — if it survives — the canonical search.
            const std::uint64_t fp = iso::InvariantHash(extended);
            std::vector<LabeledGraph>& bucket = ext_classes[fp];
            for (const LabeledGraph& rep : bucket) {
              if (SmallGraphsIsomorphic(rep, extended)) return;
            }
            bucket.push_back(extended);
            // Downward closure: every connected k-edge sub-pattern must
            // be frequent. Found sub-patterns double as feasibility
            // filters: their TID sets are supersets of the candidate's
            // support.
            bool prunable = false;
            sub_sets.clear();
            // The extension appended its edge last, so dropping it just
            // reconstructs the parent — frequent by construction and
            // already the feasibility base; skip that copy+code
            // round-trip.
            const auto added = static_cast<EdgeId>(extended.num_edges() - 1);
            const std::vector<EdgeId> live = extended.LiveEdges();
            if (extended.num_edges() == 3) {
              // 2-edge subs are checked by wedge signature: no sub-graph
              // copy, no canonical code, and connectivity of the
              // remaining pair is just "do they share a vertex".
              for (EdgeId drop : live) {
                if (drop == added) continue;
                std::array<EdgeId, 2> rest;
                std::size_t r = 0;
                for (EdgeId e : live) {
                  if (e != drop) rest[r++] = e;
                }
                const Edge& ex = extended.edge(rest[0]);
                const Edge& ey = extended.edge(rest[1]);
                if (ex.src != ey.src && ex.src != ey.dst &&
                    ex.dst != ey.src && ex.dst != ey.dst) {
                  continue;  // disconnected sub: not checkable
                }
                const WedgeKey sub_sig =
                    WedgeSignature(extended, rest[0], rest[1]);
                const auto sub_it = previous_level_sigs.find(sub_sig);
                if (sub_it == previous_level_sigs.end()) {
                  prunable = true;
                  break;
                }
                if (sub_sig == parent_sig) continue;  // base set already
                if (std::find(sub_sets.begin(), sub_sets.end(),
                              sub_it->second) == sub_sets.end()) {
                  sub_sets.push_back(sub_it->second);
                }
              }
            } else {
              for (EdgeId drop : live) {
                if (drop == added) continue;
                const LabeledGraph sub = WithoutEdge(extended, drop);
                if (!graph::IsWeaklyConnected(sub)) continue;  // not checkable
                const std::string sub_code = iso::CanonicalCodeCached(sub);
                const auto sub_it = previous_level_tids.find(sub_code);
                if (sub_it == previous_level_tids.end()) {
                  prunable = true;
                  break;
                }
                if (sub_code == parent.code) continue;  // base set already
                if (std::find(sub_sets.begin(), sub_sets.end(),
                              sub_it->second) == sub_sets.end()) {
                  sub_sets.push_back(sub_it->second);
                }
              }
            }
            if (prunable) {
              ++pruned_closure;
              return;
            }
            code = iso::CanonicalCodeCached(extended);
            if (candidates.contains(code)) return;
            // Feasibility: intersect the parent's TID set with the added
            // edge type's level-1 set and each sub-pattern set. Every
            // one is a necessary containment condition — an embedding of
            // the candidate maps the added edge to an edge of identical
            // type — so this only removes transactions that cannot
            // support the candidate; VF2 counting below stays exact.
            const auto type_it =
                type_tids.find(TypeOf(extended, extended.edge(added)));
            if (type_it == type_tids.end()) {
              // The added edge type never occurs: trivially infrequent.
              feasible = empty_tids;
              pruned_by_join += parent_card;
            } else {
              TidSet feas = TidSet::Intersect(parent.tids, *type_it->second);
              for (const auto& sub : sub_sets) feas.IntersectWith(*sub);
              // Repeated edge types: an embedding maps the candidate's
              // edges injectively, so a type used m times needs >= m
              // occurrences in the transaction.
              cand_type_counts.clear();
              extended.ForEachEdge([&](EdgeId e) {
                ++cand_type_counts[TypeOf(extended, extended.edge(e))];
              });
              for (const auto& [key, m] : cand_type_counts) {
                if (m < 2 || feas.Empty()) continue;
                const auto mult_it =
                    mult_tids.find({key, std::min(m, kMaxTypeMult)});
                if (mult_it == mult_tids.end()) {
                  feas.Clear();
                  break;
                }
                feas.IntersectWith(*mult_it->second);
              }
              pruned_by_join += parent_card - feas.Cardinality();
              if (feas.Cardinality() == parent_card) {
                if (!parent_shared) {
                  parent_shared = std::make_shared<const TidSet>(parent.tids);
                  tid_bytes = parent_shared->MemoryBytes();
                }
                feasible = parent_shared;
              } else {
                auto fresh = std::make_shared<const TidSet>(std::move(feas));
                tid_bytes = fresh->MemoryBytes();
                feasible = std::move(fresh);
              }
            }
          }
          Candidate c;
          c.pattern.graph = std::move(extended);
          c.pattern.code = code;
          c.feasible = std::move(feasible);
          c.feasible_exact = feasible_exact;
          const std::uint64_t delta = EstimateBytes(c.pattern) + tid_bytes;
          candidate_bytes += delta;
          result.peak_candidate_bytes =
              std::max(result.peak_candidate_bytes,
                       frontier_bytes + candidate_bytes);
          if (options.max_candidate_bytes != 0 &&
              frontier_bytes + candidate_bytes > options.max_candidate_bytes) {
            oom = true;
            return;
          }
          if (!options.budget.TryChargeMemory(delta)) {
            oom = true;
            return;
          }
          level_charged += delta;
          candidates.emplace(std::move(code), std::move(c));
        };

        for (VertexId u = 0; u < pg.num_vertices(); ++u) {
          const Label lu = pg.vertex_label(u);
          for (const EdgeTypeKey& t : frequent_edges) {
            if (t.src_label == lu) {
              // u -> new vertex.
              {
                LabeledGraph ext = pg;
                const VertexId w = ext.AddVertex(t.dst_label);
                ext.AddEdge(u, w, t.edge_label);
                consider(std::move(ext));
              }
              // u -> existing vertex (including self-loop when labels
              // allow).
              for (VertexId w = 0; w < pg.num_vertices(); ++w) {
                if (pg.vertex_label(w) != t.dst_label) continue;
                LabeledGraph ext = pg;
                ext.AddEdge(u, w, t.edge_label);
                consider(std::move(ext));
              }
            }
            if (t.dst_label == lu) {
              // new vertex -> u. (existing -> u is covered by the outgoing
              // case at that existing vertex.)
              LabeledGraph ext = pg;
              const VertexId w = ext.AddVertex(t.src_label);
              ext.AddEdge(w, u, t.edge_label);
              consider(std::move(ext));
            }
            if (stopped()) break;
          }
          if (stopped()) break;
        }
      }
    } catch (const std::bad_alloc&) {
      // Allocation failure (real or injected) while building the level's
      // candidate set: degrade exactly like the candidate-byte ceiling.
      oom = true;
    }
    result.candidates_per_level.push_back(candidates.size());
    TNMINE_COUNTER_ADD("fsg/extensions_considered", extensions_considered);
    TNMINE_COUNTER_ADD("fsg/candidates_pruned_closure", pruned_closure);
    TNMINE_COUNTER_ADD("fsg/feasible_pruned_by_join", pruned_by_join);
    TNMINE_COUNTER_ADD("fsg/candidates_generated", candidates.size());
    if (oom) {
      result.outcome = common::CombineOutcomes(
          result.outcome, common::MiningOutcome::kMemoryBudgetExceeded);
      break;
    }
    if (level_outcome != common::MiningOutcome::kComplete) {
      // Budget stop mid-generation: the level's candidate set is partial,
      // so none of it can be honestly counted. Keep completed levels.
      result.outcome = common::CombineOutcomes(result.outcome, level_outcome);
      break;
    }

    // Support counting against the candidate's feasible TID set. Each
    // candidate's containment checks are independent, so candidates are
    // counted on parallel lanes; sorting them by canonical code first
    // fixes the counting/output order deterministically (the hash-map
    // iteration order it replaces was implementation-defined).
    std::vector<Candidate> ordered;
    ordered.reserve(candidates.size());
    for (auto& [code, candidate] : candidates) {
      ordered.push_back(std::move(candidate));
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.pattern.code < b.pattern.code;
              });
    struct CountResult {
      std::vector<std::uint32_t> tids;
      std::uint64_t checks = 0;
      common::MiningOutcome aborted = common::MiningOutcome::kComplete;
    };
    TNMINE_TRACE_SPAN("fsg/count_phase");
    std::vector<CountResult> counted = common::ParallelMap<CountResult>(
        options.parallelism, ordered.size(), [&](std::size_t c) {
          CountResult out;
          // Shared stop conditions (cancel/deadline/memory trip) are
          // honored per candidate; tick truncation is settled
          // deterministically after the map, below.
          out.aborted = options.budget.StopReason();
          if (out.aborted != common::MiningOutcome::kComplete) {
            return out;
          }
          const FrequentPattern& p = ordered[c].pattern;
          const TidSet& feasible = *ordered[c].feasible;
          try {
            (void)TNMINE_FAILPOINT("fsg/count");
            // The feasible set's cardinality is already an upper bound
            // on support: skip the matcher entirely when it cannot
            // reach min_support.
            const std::size_t card = feasible.Cardinality();
            if (ordered[c].feasible_exact) {
              // Level-2 candidates carry their exact support set from
              // the wedge index; materialize it without any VF2 work.
              if (card >= options.min_support) out.tids = feasible.ToVector();
            } else if (card >= options.min_support) {
              // One search plan per candidate, reused across every
              // feasible transaction view (the former code rebuilt the
              // matcher per containment check).
              iso::SubgraphMatcher matcher(p.graph);
              iso::MatchOptions match_options;
              match_options.max_search_steps = options.max_match_steps;
              // Per-candidate reader: the feasible set is ascending, so
              // the streaming scan pins each shard it touches once.
              graph::TransactionSource::Reader reader(source);
              std::size_t i = 0;
              for (const std::uint32_t tid : feasible) {
                // Early abort when the remaining transactions cannot
                // reach min_support.
                if (out.tids.size() + (card - i) < options.min_support) {
                  break;
                }
                ++i;
                ++out.checks;
                if (matcher.Contains(reader.View(tid), match_options)) {
                  out.tids.push_back(tid);
                }
              }
            }
          } catch (const std::bad_alloc&) {
            out.aborted = common::MiningOutcome::kMemoryBudgetExceeded;
            out.tids.clear();
          }
          // One flush per candidate: the per-candidate check count is
          // scheduling-independent, so the total is too.
          TNMINE_COUNTER_ADD("fsg/support_checks", out.checks);
          return out;
        });
    // Settle the parallel phase against the tick ledger in sorted
    // candidate order. Each candidate's check count is a deterministic
    // function of the candidate alone, so the prefix that fits the
    // remaining allotment — and therefore the emitted pattern set — is
    // identical at any thread count.
    std::vector<FrequentPattern> next_frontier;
    for (std::size_t c = 0; c < ordered.size(); ++c) {
      if (counted[c].aborted != common::MiningOutcome::kComplete) {
        level_outcome =
            common::CombineOutcomes(level_outcome, counted[c].aborted);
        continue;
      }
      const common::MiningOutcome stop =
          meter.Charge(counted[c].checks > 0 ? counted[c].checks : 1);
      if (stop != common::MiningOutcome::kComplete) {
        level_outcome = common::CombineOutcomes(level_outcome, stop);
        break;
      }
      if (counted[c].tids.size() < options.min_support) continue;
      FrequentPattern& p = ordered[c].pattern;
      p.tids = TidSet::FromSorted(std::move(counted[c].tids), universe);
      p.support = p.tids.Cardinality();
      next_frontier.push_back(std::move(p));
    }
    result.frequent_per_level.push_back(next_frontier.size());
    TNMINE_COUNTER_ADD("fsg/candidates_counted", ordered.size());
    TNMINE_COUNTER_ADD("fsg/patterns_frequent", next_frontier.size());

    rebuild_previous(next_frontier);
    for (const FrequentPattern& p : next_frontier) {
      result.patterns.push_back(p);
    }
    if (level_outcome != common::MiningOutcome::kComplete) {
      // The level was truncated: its surviving prefix is emitted above
      // (every pattern in it was fully counted), but the frontier is
      // incomplete, so deeper levels cannot be mined honestly.
      result.outcome = common::CombineOutcomes(result.outcome, level_outcome);
      break;
    }
    result.levels_completed = level;
    frontier = std::move(next_frontier);
    frontier_bytes = retained_bytes();
  }
  result.work_ticks = meter.ticks_spent();
  common::RecordOutcome("fsg", result.outcome);
  return result;
}

}  // namespace tnmine::fsg
