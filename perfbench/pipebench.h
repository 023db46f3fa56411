// Shared declarations of the paper-scale pipeline benchmark (see
// perfbench/README.md for the workloads and metrics).
#ifndef PERFBENCH_PIPEBENCH_H_
#define PERFBENCH_PIPEBENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace pipebench {

/// Reported metric values by name (units live with the names in
/// EndToEndMetrics / PerLayerMetrics).
using Metrics = std::map<std::string, double>;

/// Command-line configuration of one benchmark process.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Miner lanes: one fixed value for every workload and machine, so
  /// runs on different core counts do the same work (recorded in the
  /// provenance line). Two, not four, on a 4-vCPU machine: at four lanes
  /// serve_mixed's mining, its connection threads and the load generator
  /// overran the CPUs (sweep capacity ~1,200 req/s against ~2,200 at
  /// two), and every fork-join waited on the slowest of four shared vCPUs.
  std::size_t threads = 2;
  /// Directory the generated inputs are written to.
  std::string work_dir;
  /// Per-seed reference fingerprints (perfbench/reference.json).
  std::string reference_path;
  /// Extra agreement checks that do not depend on a stored reference:
  /// the batch pipelines re-run serially and must match the pinned-lane
  /// result. Seeds without a stored reference always get this check;
  /// the flag adds it for every seed (used to establish references).
  bool cross_check = false;
};

/// What a workload hands back to main(): metrics by name, operation
/// counts, and the human-readable check failures (empty = correct).
struct Outcome {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::size_t iterations = 0;
};

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);
/// User + system CPU seconds of this process so far.
double ProcessCpuSeconds();
/// Peak resident set of this process in MiB.
double PeakRssMb();
double Median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> values, double q);
/// FNV-1a 64 over `text`, as 16 hex digits.
std::string Fnv1aHex(const std::string& text);

/// Fisher-Yates shuffle of n items drawn from `seed`, through `swap`.
void SeededShuffle(std::uint64_t seed, std::size_t n,
                   const std::function<void(std::size_t, std::size_t)>& swap);

/// Reads the stored reference fingerprint for (workload, seed) into
/// `reference` ("" when the seed has none). Returns false, with `error`
/// set, when reference.json is missing, unreadable or malformed.
bool LookupReference(const Config& config, std::string* reference,
                     std::string* error);

// --- Traced-run ledger (ledger.cc) -------------------------------------

/// Self time and coverage of one span name, aggregated over a traced
/// iteration. Self time is a span's duration minus the part of its
/// interval that its child spans cover (children on pool lanes are
/// attributed to the innermost calling-thread span open when they start).
struct SpanLedgerRow {
  std::string name;
  std::string parent;  ///< most common parent span name ("" = root)
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Runs `body` inside a recording trace session and returns the ledger of
/// every span it produced, ordered by first appearance.
std::vector<SpanLedgerRow> TraceLedger(const std::function<void()>& body);

/// Totals of one span name in `ledger` (0 when absent).
double LedgerTotal(const std::vector<SpanLedgerRow>& ledger,
                   const std::string& name);
double LedgerSelf(const std::vector<SpanLedgerRow>& ledger,
                  const std::string& name);

/// Prints the per-layer table (self time, share of the root, and the
/// unattributed share of every parent span) to stdout.
void PrintLedger(const std::vector<SpanLedgerRow>& ledger);

/// Current value of a program telemetry counter.
std::uint64_t CounterValue(const std::string& name);
/// Resets every telemetry counter, gauge, histogram and span aggregate.
void ResetTelemetry();

// --- Workloads -----------------------------------------------------------

/// Batch workloads (workloads.cc): structural_paper, temporal_paper,
/// kk_candidates, conventional_paper.
bool IsBatchWorkload(const std::string& name);
Outcome RunBatchWorkload(const Config& config);

/// serve_mixed (serve.cc).
Outcome RunServeWorkload(const Config& config);

/// Names of every metric each mode must print, in BENCHMARK.json order
/// (main.cc fills absent ones with 0 for per-layer metrics).
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace pipebench

#endif  // PERFBENCH_PIPEBENCH_H_
