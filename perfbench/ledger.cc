// Traced-run ledger: turns the span events of one recorded iteration
// into per-span self times, and prints the per-layer table.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "common/random.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "pipebench.h"

namespace pipebench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

std::string Fnv1aHex(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

void SeededShuffle(std::uint64_t seed, std::size_t n,
                   const std::function<void(std::size_t, std::size_t)>& swap) {
  tnmine::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) swap(i - 1, rng.NextBounded(i));
}

bool LookupReference(const Config& config, std::string* reference,
                     std::string* error) {
  // reference.json (perfbench/make_reference.py) is one flat object of
  //   "<workload>/<seed>": "<fingerprint>"  or  "<workload>/*": ...
  reference->clear();
  std::ifstream in(config.reference_path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string body = text.str();
  if (!in || body.find('{') == std::string::npos) {
    *error = "cannot read reference file '" + config.reference_path + "'";
    return false;
  }
  for (const std::string& suffix : {std::to_string(config.seed),
                                    std::string("*")}) {
    const std::string key = "\"" + config.workload + "/" + suffix + "\"";
    const std::size_t at = body.find(key);
    if (at == std::string::npos) continue;
    const std::size_t colon = body.find(':', at + key.size());
    const std::size_t open =
        colon == std::string::npos ? colon : body.find('"', colon + 1);
    const std::size_t close =
        open == std::string::npos ? open : body.find('"', open + 1);
    if (close == std::string::npos || close == open + 1) {
      *error = "malformed entry " + key + " in " + config.reference_path;
      return false;
    }
    *reference = body.substr(open + 1, close - open - 1);
    return true;
  }
  return true;
}

std::uint64_t CounterValue(const std::string& name) {
  return tnmine::telemetry::Registry::Global().GetCounter(name).Value();
}

void ResetTelemetry() { tnmine::telemetry::Registry::Global().ResetAll(); }

namespace {

struct Node {
  const tnmine::trace::SpanEvent* event = nullptr;
  int parent = -1;
  std::vector<int> children;
  std::uint64_t End() const {
    return event->start_nanos + event->duration_nanos;
  }
};

/// Length of the union of `intervals`, clipped to [lo, hi).
std::uint64_t CoveredNanos(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals,
    std::uint64_t lo, std::uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0;
  std::uint64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += end - start;
    cursor = end;
  }
  return covered;
}

}  // namespace

std::vector<SpanLedgerRow> TraceLedger(const std::function<void()>& body) {
  using tnmine::trace::Session;
  Session::Start();
  {
    TNMINE_TRACE_SPAN("bench/iteration");
    body();
  }
  Session::Stop();
  const std::vector<tnmine::trace::SpanEvent> events =
      Session::CollectedEvents();

  std::vector<Node> nodes(events.size());
  std::uint32_t main_tid = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    nodes[i].event = &events[i];
    if (std::string(events[i].name) == "bench/iteration") {
      main_tid = events[i].tid;
    }
  }
  // Same-thread nesting: events arrive in (tid, start) order, and spans
  // nest lexically, so the last open span one level up is the parent.
  std::map<std::uint32_t, std::vector<int>> open_by_depth;
  std::vector<int> order(events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    const auto& ea = events[a];
    const auto& eb = events[b];
    if (ea.tid != eb.tid) return ea.tid < eb.tid;
    if (ea.start_nanos != eb.start_nanos) {
      return ea.start_nanos < eb.start_nanos;
    }
    return ea.depth < eb.depth;
  });
  std::vector<int> main_spans;
  for (int i : order) {
    const auto& e = events[i];
    std::vector<int>& stack = open_by_depth[e.tid];
    stack.resize(e.depth + 1, -1);
    stack[e.depth] = i;
    if (e.depth > 0) nodes[i].parent = stack[e.depth - 1];
    if (e.tid == main_tid) main_spans.push_back(i);
  }
  // Pool-lane roots belong to the innermost calling-thread span that was
  // open when they started (every parallel call is fork-join from there).
  // The calling thread runs items of the same call as a lane too, so a
  // span of the same name is a sibling, never the parent.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto& e = events[i];
    if (e.depth != 0 || e.tid == main_tid) continue;
    int best = -1;
    for (int m : main_spans) {
      const auto& em = events[m];
      if (em.start_nanos <= e.start_nanos && e.start_nanos < nodes[m].End() &&
          std::string(em.name) != e.name &&
          (best < 0 || em.depth > events[best].depth)) {
        best = m;
      }
    }
    nodes[i].parent = best;
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].parent >= 0) {
      nodes[nodes[i].parent].children.push_back(static_cast<int>(i));
    }
  }

  std::vector<SpanLedgerRow> rows;
  std::map<std::string, std::size_t> row_of;
  std::map<std::string, std::map<std::string, std::uint64_t>> parent_votes;
  for (int i : order) {
    const Node& node = nodes[i];
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
    for (int c : node.children) {
      intervals.emplace_back(events[c].start_nanos, nodes[c].End());
    }
    const std::uint64_t covered =
        CoveredNanos(std::move(intervals), node.event->start_nanos,
                     node.End());
    const std::string name = node.event->name;
    auto [it, fresh] = row_of.emplace(name, rows.size());
    if (fresh) rows.push_back(SpanLedgerRow{name, "", 0, 0.0, 0.0});
    SpanLedgerRow& row = rows[it->second];
    row.count += 1;
    row.total_s += static_cast<double>(node.event->duration_nanos) * 1e-9;
    row.self_s +=
        static_cast<double>(node.event->duration_nanos - covered) * 1e-9;
    parent_votes[name][node.parent >= 0 ? events[node.parent].name : ""] +=
        1;
  }
  for (SpanLedgerRow& row : rows) {
    std::uint64_t best = 0;
    for (const auto& [parent, votes] : parent_votes[row.name]) {
      if (votes > best) {
        best = votes;
        row.parent = parent;
      }
    }
  }
  return rows;
}

double LedgerTotal(const std::vector<SpanLedgerRow>& ledger,
                   const std::string& name) {
  for (const SpanLedgerRow& row : ledger) {
    if (row.name == name) return row.total_s;
  }
  return 0.0;
}

double LedgerSelf(const std::vector<SpanLedgerRow>& ledger,
                  const std::string& name) {
  for (const SpanLedgerRow& row : ledger) {
    if (row.name == name) return row.self_s;
  }
  return 0.0;
}

void PrintLedger(const std::vector<SpanLedgerRow>& ledger) {
  const double root = LedgerTotal(ledger, "bench/iteration");
  std::printf("\nper-span ledger (one traced iteration, %.4f s):\n", root);
  std::printf("  %-34s %-30s %7s %10s %10s %8s %8s\n", "span", "parent",
              "count", "total_s", "self_s", "self%", "unattr%");
  std::map<std::string, bool> has_children;
  for (const SpanLedgerRow& row : ledger) has_children[row.parent] = true;
  for (const SpanLedgerRow& row : ledger) {
    // Unattributed share: the part of a parent span no child span covers.
    const bool parent_span = has_children.count(row.name) > 0;
    char unattr[16] = "-";
    if (parent_span && row.total_s > 0) {
      std::snprintf(unattr, sizeof(unattr), "%.1f",
                    100.0 * row.self_s / row.total_s);
    }
    std::printf("  %-34s %-30s %7llu %10.4f %10.4f %8.1f %8s\n",
                row.name.c_str(),
                row.parent.empty() ? "-" : row.parent.c_str(),
                static_cast<unsigned long long>(row.count), row.total_s,
                row.self_s, root > 0 ? 100.0 * row.self_s / root : 0.0,
                unattr);
  }
  std::map<std::string, double> layer_self;
  for (const SpanLedgerRow& row : ledger) {
    layer_self[row.name.substr(0, row.name.find('/'))] += row.self_s;
  }
  std::printf("per-layer self time:\n");
  for (const auto& [layer, self] : layer_self) {
    std::printf("  %-12s %10.4f s %6.1f%%\n", layer.c_str(), self,
                root > 0 ? 100.0 * self / root : 0.0);
  }
}

}  // namespace pipebench
