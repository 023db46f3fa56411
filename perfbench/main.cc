// pipebench — the paper-scale pipeline benchmark binary.
//
//   pipebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> --reference <reference.json>
//             [--cross-check 1]
//
// Runs one workload in this process, checks its outputs, prints the
// provenance, a human-readable report and, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 prints
// the end-to-end metrics; --trace 1 prints the per-layer metrics of a
// separate traced run. Exit code 0 only when every check passed.
// perfbench/run.py builds this binary and supplies the directories.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/telemetry.h"
#include "pipebench.h"

namespace pipebench {

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},           {"run_s", "s"},
      {"peak_rss_mb", "MB"},      {"serve_p50_ms", "ms"},
      {"serve_p99_ms", "ms"},     {"serve_miss_p50_ms", "ms"},
      {"serve_max_rps", "req/s"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"data.load_s", "s"},
      {"data.od_build_s", "s"},
      {"partition.split_s", "s"},
      {"partition.partitions", "count"},
      {"partition.day_s", "s"},
      {"partition.day_graphs", "count"},
      {"fsg.mine_s", "s"},
      {"fsg.mine_self_s", "s"},
      {"fsg.generate_s", "s"},
      {"fsg.count_s", "s"},
      {"fsg.candidates_counted", "count"},
      {"fsg.support_checks", "count"},
      {"fsg.count_yield", "ratio"},
      {"gspan.mine_s", "s"},
      {"gspan.extensions", "count"},
      {"gspan.emit_yield", "ratio"},
      {"gspan.embeddings", "count"},
      {"iso.codes_computed", "count"},
      {"iso.cache_hit_ratio", "ratio"},
      {"tidset.intersect_words", "count"},
      {"tidset.gallop_steps", "count"},
      {"tidset.spliced_tids", "count"},
      {"graph.views_built", "count"},
      {"graph.view_edges", "count"},
      {"proc.cpu_s", "s"},
      {"proc.parallel_eff", "ratio"},
      {"core.structural_self_s", "s"},
      {"core.temporal_self_s", "s"},
      {"ml.table_s", "s"},
      {"ml.apriori_s", "s"},
      {"ml.itemsets", "count"},
      {"ml.rules", "count"},
      {"ml.tree_s", "s"},
      {"ml.tree_nodes", "count"},
      {"ml.em_s", "s"},
      {"ml.em_iterations", "count"},
      {"server.hit_p50_ms", "ms"},
      {"server.ping_p50_ms", "ms"},
      {"server.stats_p50_ms", "ms"},
      {"server.miss_p50_ms", "ms"},
      {"server.cache_hit_ratio", "ratio"},
      {"server.bytes_out", "bytes"},
      {"server.overloaded", "count"},
      {"bench.gen_lag_ms", "ms"},
      {"trace.overhead_frac", "ratio"},
      {"failed_frac", "ratio"},
  };
  return kMetrics;
}

}  // namespace pipebench

namespace {

using namespace pipebench;

int Fail(const char* message) {
  std::fprintf(stderr, "pipebench: %s\n", message);
  return 2;
}

/// Sanitizer and telemetry-off builds are refused: span-based layer
/// metrics read zero there, and sanitizer timings mean nothing.
const char* RefusedBuild() {
#if !TNMINE_TELEMETRY_ENABLED
  return "telemetry-off build (TNMINE_TELEMETRY=OFF)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  if (std::strlen(PIPEBENCH_SANITIZE) > 0) return "sanitizer build";
  return nullptr;
}

void JsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--reference") {
      config.reference_path = value;
    } else if (flag == "--cross-check") {
      config.cross_check = value == "1";
    } else {
      return Fail(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Fail("flags come in --name value pairs");
  if (config.work_dir.empty()) return Fail("--work-dir is required");
  if (!(config.seconds > 0)) return Fail("--seconds must be positive");
  if (const char* refused = RefusedBuild()) return Fail(refused);
  const bool serve = config.workload == "serve_mixed";
  if (!serve && !IsBatchWorkload(config.workload)) {
    return Fail(("unknown workload '" + config.workload + "'").c_str());
  }

  std::printf(
      "provenance: git_sha=%s build_type=%s telemetry=on nproc=%u "
      "miner_threads=%zu seed=%llu seconds=%g trace=%d workload=%s\n",
      tnmine::telemetry::GitSha().c_str(), PIPEBENCH_BUILD_TYPE,
      std::thread::hardware_concurrency(), config.threads,
      static_cast<unsigned long long>(config.seed), config.seconds,
      config.trace ? 1 : 0, config.workload.c_str());
  std::fflush(stdout);

  Outcome out;
  try {
    out = serve ? RunServeWorkload(config) : RunBatchWorkload(config);
  } catch (const std::exception& e) {
    return Fail(e.what());
  }
  std::printf("iterations: %zu\n", out.iterations);
  for (const std::string& failure : out.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct = out.failed == 0 && out.failures.empty();

  // Every metric of this mode, in BENCHMARK.json order. Per-layer
  // metrics a workload does not exercise read 0.
  const auto& names = config.trace ? PerLayerMetrics() : EndToEndMetrics();
  out.metrics["failed_frac"] =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
  std::printf("metrics:\n");
  for (const auto& [name, unit] : names) {
    const double value = out.metrics[name];
    std::printf("  %-26s %16.6f %s\n", name.c_str(), value, unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  bool first = true;
  for (const auto& [name, unit] : names) {
    std::printf("%s", first ? "" : ", ");
    first = false;
    JsonString(name);
    std::printf(": {\"value\": %.9g, \"unit\": ", out.metrics[name]);
    JsonString(unit);
    std::printf("}");
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
