// serve_mixed: an in-process tnmined Server on a small-scale snapshot,
// driven by an open-loop generator from this process over at most
// min(4, nproc) unix-socket connections.
//
// Every request has a due time on a fixed-rate schedule and is timed
// from that due time, so a stall also charges the requests queued behind
// it. The mix interleaves cache-hit mining requests (lookup and
// serialization dominate), fresh-key misses (real mining on pool lanes,
// then a cache insert), pings and stats (which renders the RunReport).
// A reference-rate phase gives the latency metrics; closed-loop bursts
// of the same mix give run_s; a ladder of offered rates gives
// serve_max_rps, the highest rate that meets the p99 limit without a
// growing backlog.

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <thread>

#include "common/trace.h"
#include "data/generator.h"
#include "pipebench.h"
#include "server/json.h"
#include "server/server.h"
#include "server/wire.h"

namespace pipebench {
namespace {

using namespace tnmine;
using server::JsonValue;

/// Offered rate of the reference phase, requests per second. At 200
/// req/s a connection's due times are 20 ms apart, longer than a miss,
/// so a request does not wait behind a miss, and a hit seldom finds the
/// pool lanes busy mining (at 500 req/s that happened to ~40% of hits,
/// and the median latency jumped between a fast and a slow mode).
constexpr double kReferenceRps = 200.0;
/// The sweep offers a ladder of rates, kSweepStartRps times kSweepStep
/// to the k-th power, until a rate fails (or kSweepMaxRps passes); the
/// crossing of the limit is interpolated between the last passing and
/// the first failing rate (see Score).
constexpr double kSweepStartRps = 300.0;
constexpr double kSweepStep = 1.25;
constexpr double kSweepMaxRps = 64000.0;
/// p99 latency limit a sweep rate must meet, milliseconds, and how much
/// the last quarter's median latency may exceed the first quarter's
/// before the backlog counts as growing.
constexpr double kP99LimitMs = 25.0;
constexpr double kBacklogGrowthMs = 10.0;
/// Requests in one closed-loop burst (run_s is the median burst wall),
/// and the untimed bursts' length before the timed ones, seconds.
constexpr std::size_t kBurstRequests = 400;
constexpr std::size_t kMinBursts = 5;
constexpr double kBurstWarmupS = 1.5;
/// Shares of --seconds spent on the reference phase, on the timed
/// bursts, and on each sweep attempt: a short one while the rate is far
/// below its limits (score under kCoarseScore), two long ones otherwise.
constexpr double kReferenceShare = 0.35;
constexpr double kBurstShare = 0.12;
constexpr double kCoarseAttemptShare = 0.012;
constexpr double kFineAttemptShare = 0.035;
constexpr double kCoarseScore = 0.6;
constexpr int kSetupRepeats = 9;
/// The generator spins (instead of sleeping) this long before a due time.
constexpr auto kSpinBeforeDue = std::chrono::microseconds(300);

enum class Kind { kHit, kMiss, kPing, kStats };
const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kHit: return "hit";
    case Kind::kMiss: return "miss";
    case Kind::kPing: return "ping";
    case Kind::kStats: return "stats";
  }
  return "?";
}

/// The repeating 9-request mix: twice the per-client schedule of
/// bench/bench_server_throughput (2 cached mining requests, a ping and a
/// stats call) plus one fresh-key miss. The miss share (1 in 9) is a
/// choice of this benchmark, not a measured traffic ratio.
constexpr Kind kMix[] = {Kind::kHit,  Kind::kHit,   Kind::kPing,
                         Kind::kStats, Kind::kHit,  Kind::kHit,
                         Kind::kPing, Kind::kStats, Kind::kMiss};
constexpr std::size_t kMixSize = std::size(kMix);

/// Number of distinct cached mining requests the hits cycle through.
constexpr int kHitKeys = 8;
/// Result-cache capacity. Misses insert a new entry each, so the cache
/// fills up and then evicts its least recently used entries (old misses,
/// never the hit keys, which are used every few requests): the resident
/// set then does not depend on how many requests the sweep made.
constexpr std::uint64_t kCacheBytes = 1ull << 20;

JsonValue MiningRequest(std::size_t threads, int support, int top,
                        std::int64_t seed) {
  JsonValue::Object params;
  params.emplace("support", JsonValue(support));
  params.emplace("top", JsonValue(top));
  params.emplace("seed", JsonValue(seed));
  params.emplace("threads", JsonValue(static_cast<std::int64_t>(threads)));
  JsonValue request = JsonValue::MakeObject();
  request.Set("op", "structural");
  request.Set("params", JsonValue(std::move(params)));
  return request;
}

JsonValue HitRequest(std::size_t threads, int key) {
  return MiningRequest(threads, 8 + key / 2, key % 2 == 0 ? 3 : 5, 1);
}

JsonValue OpRequest(const char* op) {
  JsonValue request = JsonValue::MakeObject();
  request.Set("op", op);
  return request;
}

struct Sample {
  Kind kind = Kind::kHit;
  int hit_key = 0;
  double due_s = 0.0;   ///< offset from the phase start
  double lag_ms = 0.0;  ///< send time minus due time
  double latency_ms = 0.0;  ///< reply time minus due time
  double done_s = 0.0;
  bool ok = false;
  bool cached = false;
  std::size_t bytes = 0;
  std::string result;  ///< serialized "result" of mining replies
  std::string error;
};

struct Phase {
  double rps = 0.0;
  std::vector<Sample> samples;
  double wall_s = 0.0;  ///< phase start to last reply
};

/// Keeps every virtual CPU out of its idle halt for the workload's
/// lifetime: one busy thread per CPU at SCHED_IDLE, which the kernel runs
/// only when nothing else is runnable there. On a virtual machine waking
/// a halted CPU goes through the host, and that wake-up swamps the
/// server's own sub-millisecond latency: a paced socketpair ping-pong
/// between two threads read a p50 of 27 to 82 us and a p99 of up to 4 ms
/// from run to run on a shared 4-vCPU VM, against 31 to 42 us and
/// ~60 us with these threads running.
class KeepAwake {
 public:
  KeepAwake() {
    const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < cpus; ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
          // Leaves the core's shared resources to a hyperthread sibling.
          __builtin_ia32_pause();
        }
      });
    }
  }
  ~KeepAwake() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

  /// CPU seconds these threads used so far (to leave out of proc.cpu_s).
  double CpuSeconds() {
    double total = 0.0;
    for (std::thread& t : threads_) {
      clockid_t clock;
      timespec ts{};
      if (pthread_getcpuclockid(t.native_handle(), &clock) == 0 &&
          clock_gettime(clock, &ts) == 0) {
        total += static_cast<double>(ts.tv_sec) +
                 static_cast<double>(ts.tv_nsec) * 1e-9;
      }
    }
    return total;
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

class Bench {
 public:
  explicit Bench(const Config& config) : config_(config) {
    connections_ = std::max<std::size_t>(
        1, std::min<std::size_t>(4, std::thread::hardware_concurrency()));
  }

  /// Generate the snapshot CSV, start the server, load it, warm the cache.
  void Setup() {
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    path_ = config_.work_dir + "/serve.csv";
    // Fixed snapshot: every miss then mines the same work, so the
    // latency tail measures the server, not the data (the seed draws the
    // request order instead, see RunPhase).
    std::string error;
    if (!data::GenerateTransportData(data::GeneratorConfig::SmallScale())
             .SaveCsv(path_, &error)) {
      throw std::runtime_error("cannot write " + path_ + ": " + error);
    }
    server_ = StartServer(kCacheBytes);
    server::BlockingClient client;
    if (!client.Connect(server_->address(), &error)) {
      throw std::runtime_error("connect: " + error);
    }
    warm_results_.clear();
    for (int key = 0; key < kHitKeys; ++key) {
      JsonValue response;
      if (!client.Call(HitRequest(config_.threads, key), &response,
                       &error) ||
          !response.Get("ok").AsBool()) {
        throw std::runtime_error("warm-up request failed: " + error +
                                 response.Serialize());
      }
      warm_results_.push_back(response.Get("result").Serialize());
    }
  }

  /// Request kind at schedule position `pos`: each block of kMixSize is
  /// the mix in a seed-drawn order.
  Kind MixAt(std::size_t pos) const {
    Kind block[kMixSize];
    std::copy(std::begin(kMix), std::end(kMix), block);
    SeededShuffle(config_.seed * 1000003 + pos / kMixSize, kMixSize,
                  [&](std::size_t a, std::size_t b) {
                    std::swap(block[a], block[b]);
                  });
    return block[pos % kMixSize];
  }

  /// Runs one open-loop phase of `n` requests at `rps`; with rps 0 the
  /// phase is a closed-loop burst (each connection sends its next request
  /// as soon as the previous reply is in, and latency counts from the
  /// send).
  Phase RunPhase(double rps, std::size_t n) {
    Phase phase;
    phase.rps = rps;
    phase.samples.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      Sample& s = phase.samples[i];
      s.kind = MixAt(schedule_pos_);
      s.hit_key =
          static_cast<int>((config_.seed + schedule_pos_) % kHitKeys);
      s.due_s = rps > 0 ? static_cast<double>(i) / rps : 0.0;
      ++schedule_pos_;
    }
    const std::string address = server_->address();
    std::vector<server::BlockingClient> clients(connections_);
    for (auto& client : clients) {
      std::string error;
      if (!client.Connect(address, &error)) {
        throw std::runtime_error("connect: " + error);
      }
    }
    const Clock::time_point start = Clock::now() +
                                    std::chrono::milliseconds(5);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < connections_; ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t i = c; i < n; i += connections_) {
          Sample& s = phase.samples[i];
          try {
            const JsonValue request =
                s.kind == Kind::kHit ? HitRequest(config_.threads, s.hit_key)
                : s.kind == Kind::kMiss
                    ? MiningRequest(config_.threads, 10,
                                    100 + static_cast<int>(next_miss_top_++),
                                    1)
                : s.kind == Kind::kPing ? OpRequest("ping")
                                        : OpRequest("stats");
            const Clock::time_point due =
                rps > 0 ? start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(s.due_s))
                        : std::max(start, Clock::now());
            // Sleep to just before the due time, then spin, so the
            // generator's wake-up delay stays out of the latencies.
            std::this_thread::sleep_until(due - kSpinBeforeDue);
            while (Clock::now() < due) {
            }
            const Clock::time_point sent = Clock::now();
            JsonValue response;
            {
              TNMINE_TRACE_SPAN("server/BlockingClient::Call");
              s.ok = clients[c].Call(request, &response, &s.error) &&
                     response.Get("ok").AsBool();
            }
            const Clock::time_point done = Clock::now();
            s.lag_ms = std::chrono::duration<double, std::milli>(sent - due)
                           .count();
            s.latency_ms =
                std::chrono::duration<double, std::milli>(done - due).count();
            s.done_s = std::chrono::duration<double>(done - start).count();
            s.cached = response.Get("cached").AsBool();
            s.bytes = response.Serialize().size();
            if (s.kind == Kind::kHit || s.kind == Kind::kMiss) {
              s.result = response.Get("result").Serialize();
            }
            if (!s.ok && s.error.empty()) s.error = response.Serialize();
          } catch (const std::exception& e) {
            s.ok = false;
            s.error = e.what();
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const Sample& s : phase.samples) {
      phase.wall_s = std::max(phase.wall_s, s.done_s);
    }
    return phase;
  }

  /// Checks of one phase: every reply ok, hit/miss exactly as scheduled
  /// (reply flags and server cache counters), hits byte-identical to the
  /// warm-up mine of their key.
  void CheckPhase(const Phase& phase, std::uint64_t hits_before,
                  std::uint64_t misses_before, Outcome* out) {
    std::uint64_t expected_hits = 0;
    std::uint64_t expected_misses = 0;
    for (const Sample& s : phase.samples) {
      ++out->attempted;
      std::string failure;
      if (!s.ok) {
        failure = std::string(KindName(s.kind)) + " request failed: " +
                  s.error;
      } else if (s.kind == Kind::kHit &&
                 (!s.cached || s.result != warm_results_[s.hit_key])) {
        failure = "hit reply not cached or differs from its fresh mine";
      } else if (s.kind == Kind::kMiss && s.cached) {
        failure = "fresh-key request was served from the cache";
      }
      expected_hits += s.kind == Kind::kHit;
      expected_misses += s.kind == Kind::kMiss;
      if (!failure.empty()) {
        ++out->failed;
        if (out->failures.size() < 20) out->failures.push_back(failure);
      }
    }
    const std::uint64_t hits = server_->cache().hits() - hits_before;
    const std::uint64_t misses = server_->cache().misses() - misses_before;
    ++out->attempted;
    if (hits != expected_hits || misses != expected_misses) {
      ++out->failed;
      out->failures.push_back(
          "cache counters " + std::to_string(hits) + " hits / " +
          std::to_string(misses) + " misses, schedule says " +
          std::to_string(expected_hits) + " / " +
          std::to_string(expected_misses));
    }
  }

  /// An open-loop phase of `duration_s` at `rps`, checked.
  Phase CheckedPhase(double rps, double duration_s, Outcome* out) {
    return CheckedRun(
        rps, std::max<std::size_t>(
                 4 * kMixSize, static_cast<std::size_t>(rps * duration_s)),
        out);
  }

  /// A closed-loop burst of kBurstRequests, checked.
  Phase CheckedBurst(Outcome* out) { return CheckedRun(0, kBurstRequests, out); }

  Phase CheckedRun(double rps, std::size_t n, Outcome* out) {
    const std::uint64_t hits = server_->cache().hits();
    const std::uint64_t misses = server_->cache().misses();
    Phase phase = RunPhase(rps, n);
    CheckPhase(phase, hits, misses, out);
    return phase;
  }

  /// A sampled cached reply must equal a fresh mine on a cache-less
  /// server loaded from the same file.
  void CheckFreshMine(Outcome* out) {
    std::unique_ptr<server::Server> fresh = StartServer(0);
    server::BlockingClient client;
    std::string error;
    JsonValue response;
    const int key = static_cast<int>(config_.seed % kHitKeys);
    ++out->attempted;
    const bool ok = client.Connect(fresh->address(), &error) &&
                    client.Call(HitRequest(config_.threads, key), &response,
                                &error) &&
                    response.Get("ok").AsBool() &&
                    !response.Get("cached").AsBool();
    fresh->Stop();
    if (!ok || response.Get("result").Serialize() != warm_results_[key]) {
      ++out->failed;
      out->failures.push_back("cached reply differs from a fresh mine " +
                              error);
    }
  }

  std::size_t connections() const { return connections_; }
  void Stop() {
    if (server_ != nullptr) server_->Stop();
  }

 private:
  std::unique_ptr<server::Server> StartServer(std::uint64_t cache_bytes) {
    server::ServerOptions options;
    options.listen = "unix:" + config_.work_dir + "/serve.sock";
    options.snapshot_path = path_;
    options.cache_bytes = cache_bytes;
    // As many admission slots as connections: each connection has at
    // most one request in flight, so nothing is refused by design and
    // any "overloaded" reply is a defect.
    options.max_inflight = connections_;
    options.parallelism = common::Parallelism{config_.threads};
    auto srv = std::make_unique<server::Server>(options);
    std::string error;
    if (!srv->Start(&error)) {
      throw std::runtime_error("server start: " + error);
    }
    return srv;
  }

  const Config& config_;
  std::size_t connections_ = 1;
  std::string path_;
  std::unique_ptr<server::Server> server_;
  std::vector<std::string> warm_results_;
  std::size_t schedule_pos_ = 0;
  /// A miss asks for the same mining as hit key 4 under a "top" no
  /// request used before: a fresh cache key, identical mining work.
  std::atomic<std::uint32_t> next_miss_top_{0};
};

std::vector<double> Latencies(const Phase& phase, const Kind* only) {
  std::vector<double> out;
  for (const Sample& s : phase.samples) {
    if (only == nullptr || s.kind == *only) out.push_back(s.latency_ms);
  }
  return out;
}

double KindP50(const Phase& phase, Kind kind) {
  return Median(Latencies(phase, &kind));
}

/// How far an offered rate is from its limits: the larger of p99 over
/// kP99LimitMs and the backlog growth (the last quarter's median latency
/// minus the first quarter's) over kBacklogGrowthMs. The rate passes when
/// the score is at most 1. The score rises steeply at the knee, so the
/// rate at which it crosses 1 moves far less than the latencies do.
double Score(const Phase& phase) {
  const std::vector<double> all = Latencies(phase, nullptr);
  const double p99 = Percentile(all, 0.99);
  const std::size_t q = all.size() / 4;
  const std::vector<double> first(all.begin(), all.begin() + q);
  const std::vector<double> last(all.end() - q, all.end());
  return std::max(p99 / kP99LimitMs,
                  (Median(last) - Median(first)) / kBacklogGrowthMs);
}

void PrintPhase(const char* label, const Phase& phase) {
  std::printf("%s: %.0f req/s offered, %zu requests, %.3f s, p50 %.3f ms, "
              "p99 %.3f ms, hit/ping/stats/miss p50 %.3f/%.3f/%.3f/%.3f ms, "
              "gen lag p99 %.3f ms\n",
              label, phase.rps, phase.samples.size(), phase.wall_s,
              Median(Latencies(phase, nullptr)),
              Percentile(Latencies(phase, nullptr), 0.99),
              KindP50(phase, Kind::kHit), KindP50(phase, Kind::kPing),
              KindP50(phase, Kind::kStats), KindP50(phase, Kind::kMiss),
              [&] {
                std::vector<double> lag;
                for (const Sample& s : phase.samples) lag.push_back(s.lag_ms);
                return Percentile(lag, 0.99);
              }());
}

}  // namespace

Outcome RunServeWorkload(const Config& config) {
  Outcome out;
  KeepAwake keep_awake;
  Bench bench(config);
  std::vector<double> setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const Clock::time_point t0 = Clock::now();
    bench.Setup();
    setup.push_back(SecondsSince(t0));
  }
  std::printf("open loop: %zu connections, mix of %zu = 4 hit / 2 ping / "
              "2 stats / 1 miss, p99 limit %.0f ms, backlog growth limit "
              "%.0f ms\n",
              bench.connections(), kMixSize, kP99LimitMs, kBacklogGrowthMs);

  Metrics& m = out.metrics;
  const double reference_s =
      config.seconds * (config.trace ? 0.5 : kReferenceShare);
  // The latency metrics are percentiles over the whole reference phase
  // (2,100 requests at --seconds 30, so its p99 has more than ten samples
  // beyond it).
  const double cpu0 = ProcessCpuSeconds() - keep_awake.CpuSeconds();
  const Phase reference =
      bench.CheckedPhase(kReferenceRps, reference_s, &out);
  const double cpu_s =
      ProcessCpuSeconds() - keep_awake.CpuSeconds() - cpu0;
  PrintPhase("reference", reference);
  out.iterations = 1;

  if (!config.trace) {
    const std::vector<double> all = Latencies(reference, nullptr);
    m["setup_s"] = Median(setup);
    m["serve_p50_ms"] = Median(all);
    m["serve_p99_ms"] = Percentile(all, 0.99);
    m["serve_miss_p50_ms"] = KindP50(reference, Kind::kMiss);

    // Closed-loop bursts of the same mix give run_s: the median time to
    // serve kBurstRequests over every connection under sustained load.
    // A virtual CPU can run ~1.5x slower for up to a second after idling
    // (as after the light reference phase), so bursts of the first
    // kBurstWarmupS are checked but not timed.
    std::vector<double> bursts;
    Clock::time_point bursts_start = Clock::now();
    while (SecondsSince(bursts_start) < kBurstWarmupS) {
      bench.CheckedBurst(&out);
    }
    bursts_start = Clock::now();
    while (bursts.size() < kMinBursts ||
           SecondsSince(bursts_start) < config.seconds * kBurstShare) {
      bursts.push_back(bench.CheckedBurst(&out).wall_s);
    }
    m["run_s"] = Median(bursts);
    std::printf("closed-loop bursts of %zu requests, wall (s):",
                kBurstRequests);
    for (double b : bursts) std::printf(" %.4f", b);
    std::printf("\n");
    out.iterations = bursts.size();

    // Sweep: far below the limits one short attempt settles a rate; near
    // them a rate's score is the lower of two long attempts, so one stall
    // of a shared machine does not decide capacity. The ladder stops at
    // the second failing rate in a row, so a rate that fails alone below
    // the knee does not end it either. Every attempt's replies are checked
    // like the reference phase. serve_max_rps is the rate at which the
    // score crosses 1, interpolated on log rate against log score between
    // the highest passing rate and the failing one above it (a ladder that
    // never fails reports its highest rate).
    auto attempt = [&](double rps, double share) {
      const Phase step = bench.CheckedPhase(rps, config.seconds * share, &out);
      const double s = Score(step);
      std::printf("sweep score %.3f: ", s);
      PrintPhase(s <= 1.0 ? "pass" : "FAIL", step);
      return s;
    };
    auto score = [&](double rps) {
      const double coarse = attempt(rps, kCoarseAttemptShare);
      if (coarse < kCoarseScore) return coarse;
      return std::min(attempt(rps, kFineAttemptShare),
                      attempt(rps, kFineAttemptShare));
    };
    double lo = 0.0;  // highest passing offered rate
    double lo_score = 0.0;
    double hi = 0.0;  // the failing rate above it
    double hi_score = 0.0;
    int failures_in_a_row = 0;
    for (double rps = kSweepStartRps;
         rps <= kSweepMaxRps && failures_in_a_row < 2; rps *= kSweepStep) {
      const double s = score(rps);
      if (s <= 1.0) {
        lo = rps;
        lo_score = s;
        hi = 0.0;
        failures_in_a_row = 0;
        continue;
      }
      if (failures_in_a_row++ == 0) {
        hi = rps;
        hi_score = s;
      }
    }
    double max_rps = lo;
    if (lo > 0.0 && hi > 0.0) {
      const double t = -std::log(lo_score) /
                       (std::log(hi_score) - std::log(lo_score));
      max_rps = lo * std::pow(hi / lo, t);
    }
    ++out.attempted;
    if (lo == 0.0) {
      ++out.failed;
      out.failures.push_back("no offered rate passed the sweep");
    }
    m["serve_max_rps"] = max_rps;
    std::printf("sweep: highest passing offered rate %.1f req/s (score "
                "%.3f), failing above it %.1f req/s (score %.3f), limit "
                "crossed at %.1f req/s\n",
                lo, lo_score, hi, hi_score, max_rps);
    bench.CheckFreshMine(&out);
    m["peak_rss_mb"] = PeakRssMb();
    bench.Stop();
    return out;
  }

  // Traced run: the same reference phase again with a trace session on.
  Phase traced;
  ResetTelemetry();
  const std::vector<SpanLedgerRow> ledger = TraceLedger([&] {
    traced = bench.CheckedPhase(kReferenceRps, reference_s, &out);
  });
  PrintPhase("traced reference", traced);
  PrintLedger(ledger);
  bench.CheckFreshMine(&out);
  bench.Stop();
  auto set = [&](const char* name, double value) { m[name] = value; };
  set("server.hit_p50_ms", KindP50(traced, Kind::kHit));
  set("server.ping_p50_ms", KindP50(traced, Kind::kPing));
  set("server.stats_p50_ms", KindP50(traced, Kind::kStats));
  set("server.miss_p50_ms", KindP50(traced, Kind::kMiss));
  double hits = 0;
  double mining = 0;
  double bytes = 0;
  std::vector<double> lag;
  for (const Sample& s : traced.samples) {
    hits += s.cached;
    mining += s.kind == Kind::kHit || s.kind == Kind::kMiss;
    bytes += static_cast<double>(s.bytes);
    lag.push_back(s.lag_ms);
  }
  set("server.cache_hit_ratio", mining > 0 ? hits / mining : 0.0);
  set("server.bytes_out", bytes);
  set("server.overloaded",
      static_cast<double>(CounterValue("server/admission_rejected")));
  set("bench.gen_lag_ms", Percentile(lag, 0.99));
  set("proc.cpu_s", cpu_s);
  set("proc.parallel_eff",
      cpu_s / (reference.wall_s * static_cast<double>(config.threads)));
  set("trace.overhead_frac", Median(Latencies(traced, nullptr)) /
                                 Median(Latencies(reference, nullptr)) -
                             1.0);
  // Mining layers under the server, from the same traced phase.
  set("fsg.mine_s", LedgerTotal(ledger, "fsg/mine"));
  set("fsg.mine_self_s", LedgerSelf(ledger, "fsg/mine"));
  set("gspan.mine_s", LedgerTotal(ledger, "gspan/mine"));
  set("partition.split_s", LedgerTotal(ledger, "partition/split_graph"));
  set("core.structural_self_s", LedgerSelf(ledger, "core/structural_mine"));
  return out;
}

}  // namespace pipebench
