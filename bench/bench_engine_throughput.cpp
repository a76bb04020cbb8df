// Serving-engine throughput: QPS of batched multi-threaded SearchBatch vs
// the paper's sequential single-query Search, swept over thread count and
// batch size at equal recall (same index and estimator; the per-query seed
// streams differ only in the randomized query rounding, which the recall
// column shows is noise), plus a sharded scatter-gather sweep reporting
// build time, query QPS and concurrent-writer mutation throughput per
// shard count. Emits one JSON object for dashboard scraping (the --json
// flag is accepted for symmetry with bench_kernels; output is always JSON).
// A "stages" series traces every query (sample period 1) through
// SubmitAsync and reports the per-stage latency histograms (queue wait,
// preprocess, probe order, scan, rerank, merge) plus the estimator-health
// gauges out of the engine's metrics registry. A "metric":"ip" pair of
// series re-runs the sequential and batched-engine protocols under
// Metric::kInnerProduct so the non-L2 estimate path has its own dashboard
// trajectory.
//
//   ./bench_engine_throughput [--shards S] [--json]
//                                            (sharded sweep runs {1, S};
//                                             default S = 4)
//
// Environment knobs:
//   RABITQ_BENCH_SCALE    dataset size multiplier (default 1.0 -> N = 20000)
//   RABITQ_BENCH_QUERIES  number of distinct query vectors (default 256)
//   RABITQ_BENCH_THREADS  comma-free max thread count (default hardware)
//   RABITQ_BENCH_REPEAT   times the query set is replayed per series
//                         (default 4; raise for stabler numbers)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "engine/search_engine.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "index/ivf.h"
#include "index/sharded.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/server.h"
#include "util/prng.h"
#include "util/timer.h"

namespace rabitq {
namespace bench {
namespace {

constexpr std::uint64_t kSeedBase = 2024;

Matrix Clustered(std::size_t n, std::size_t dim, std::size_t clusters,
                 std::uint64_t seed) {
  Rng rng(seed);
  Matrix centers(clusters, dim);
  for (std::size_t i = 0; i < centers.size(); ++i) {
    centers.data()[i] = static_cast<float>(rng.Gaussian()) * 8.0f;
  }
  Matrix data(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = rng.UniformInt(clusters);
    for (std::size_t j = 0; j < dim; ++j) {
      data.At(i, j) = centers.At(c, j) + static_cast<float>(rng.Gaussian());
    }
  }
  return data;
}

double RecallOf(const GroundTruth& gt,
                const std::vector<std::vector<Neighbor>>& results,
                std::size_t k) {
  double recall = 0.0;
  for (std::size_t q = 0; q < results.size(); ++q) {
    recall += RecallAtK(gt, q, results[q], k);
  }
  return results.empty() ? 0.0 : recall / static_cast<double>(results.size());
}

std::size_t EnvSize(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const long parsed = std::atol(value);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

// Runs rows [begin, begin + count) of `queries` through the engine as one
// request batch (seed QuerySeed(kSeedBase, row), optional shared filter)
// and moves the neighbor lists into (*all)[row].
void RunRequestBatch(SearchEngine* engine, const Matrix& queries,
                     std::size_t begin, std::size_t count,
                     const SearchOptions& params, const IdFilter& filter,
                     std::vector<std::vector<Neighbor>>* all) {
  std::vector<SearchRequest> requests(count);
  for (std::size_t i = 0; i < count; ++i) {
    requests[i].query = queries.Row(begin + i);
    requests[i].options = params;
    requests[i].options.seed = SearchEngine::QuerySeed(kSeedBase, begin + i);
    requests[i].options.filter = filter;
  }
  std::vector<SearchResponse> responses;
  CheckOk(engine->SearchBatch(requests.data(), count, &responses),
          "SearchBatch");
  for (std::size_t i = 0; i < count; ++i) {
    (*all)[begin + i] = std::move(responses[i].neighbors);
  }
}

}  // namespace

int Run(int argc, char** argv) {
  const std::size_t n = static_cast<std::size_t>(20000 * EnvScale());
  const std::size_t dim = 96;
  const std::size_t num_queries = EnvQueryCap(256);
  const std::size_t repeat = EnvSize("RABITQ_BENCH_REPEAT", 4);
  const std::size_t hw = std::max<std::size_t>(
      1, std::thread::hardware_concurrency());
  const std::size_t max_threads = EnvSize("RABITQ_BENCH_THREADS", hw);

  Matrix data = Clustered(n, dim, 64, 11);
  Matrix queries = Clustered(num_queries, dim, 64, 12);

  SearchOptions params;
  params.k = 10;
  params.nprobe = 32;

  IvfRabitqIndex index;
  IvfConfig ivf;
  ivf.num_lists = 256;
  CheckOk(index.Build(data, ivf, RabitqConfig{}), "Build");
  GroundTruth gt;
  CheckOk(ComputeGroundTruth(data, queries, params.k, &gt), "GroundTruth");

  std::printf("{\"bench\":\"engine_throughput\",\"n\":%zu,\"dim\":%zu,"
              "\"queries\":%zu,\"repeat\":%zu,\"k\":%zu,\"nprobe\":%zu,"
              "\"hardware_threads\":%zu,\"series\":[\n",
              n, dim, num_queries, repeat, params.k, params.nprobe, hw);

  // Baseline: the paper's protocol -- sequential, single-query, one thread.
  double sequential_qps = 0.0;
  {
    std::vector<std::vector<Neighbor>> results(num_queries);
    WallTimer timer;
    for (std::size_t r = 0; r < repeat; ++r) {
      for (std::size_t i = 0; i < num_queries; ++i) {
        SearchRequest request{queries.Row(i), params};
        request.options.seed = SearchEngine::QuerySeed(kSeedBase, i);
        SearchResponse response = index.Search(request);
        CheckOk(response.status, "Search");
        results[i] = std::move(response.neighbors);
      }
    }
    const double seconds = timer.ElapsedSeconds();
    sequential_qps =
        static_cast<double>(num_queries * repeat) / std::max(seconds, 1e-9);
    std::printf("  {\"mode\":\"sequential\",\"threads\":1,\"batch\":1,"
                "\"qps\":%.1f,\"recall\":%.4f}",
                sequential_qps, RecallOf(gt, results, params.k));
  }

  std::vector<std::size_t> thread_counts;
  for (std::size_t t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);
  if (thread_counts.back() != max_threads) thread_counts.push_back(max_threads);
  const std::size_t batch_sizes[] = {8, 32, 128};

  // Each engine owns its index; clone the built one through Save/Load
  // instead of re-running kmeans per series.
  const char* tmp_path = "bench_engine_throughput.tmp.idx";
  CheckOk(index.Save(tmp_path), "Save");

  for (const std::size_t threads : thread_counts) {
    EngineConfig config;
    config.num_threads = threads;
    IvfRabitqIndex engine_index;
    CheckOk(engine_index.Load(tmp_path), "Load");
    SearchEngine engine(std::move(engine_index), config);
    for (const std::size_t batch : batch_sizes) {
      engine.ResetStats();
      std::vector<std::vector<Neighbor>> all(num_queries);
      WallTimer timer;
      for (std::size_t r = 0; r < repeat; ++r) {
        for (std::size_t begin = 0; begin < num_queries; begin += batch) {
          const std::size_t count = std::min(batch, num_queries - begin);
          RunRequestBatch(&engine, queries, begin, count, params, IdFilter{},
                          &all);
        }
      }
      const double seconds = timer.ElapsedSeconds();
      const double qps =
          static_cast<double>(num_queries * repeat) / std::max(seconds, 1e-9);
      const EngineStatsSnapshot stats = engine.Stats();
      std::printf(",\n  {\"mode\":\"engine\",\"threads\":%zu,\"batch\":%zu,"
                  "\"qps\":%.1f,\"recall\":%.4f,\"speedup\":%.2f,"
                  "\"p50_us\":%.1f,\"p99_us\":%.1f,\"codes_filtered\":%llu}",
                  threads, batch, qps, RecallOf(gt, all, params.k),
                  qps / std::max(sequential_qps, 1e-9),
                  stats.latency_p50_us, stats.latency_p99_us,
                  static_cast<unsigned long long>(stats.codes_filtered));
    }
  }

  // ---- Filtered serving: the same query stream with a per-query IdFilter
  // at several selectivities (fraction of ids allowed). The filter is pushed
  // into the fused kernel's survivors mask, so QPS tracks the allowed
  // fraction instead of paying full-scan cost plus a post-filter.
  {
    EngineConfig config;
    config.num_threads = max_threads;
    IvfRabitqIndex engine_index;
    CheckOk(engine_index.Load(tmp_path), "Load");
    SearchEngine engine(std::move(engine_index), config);
    Rng filter_rng(77);
    for (const double selectivity : {1.0, 0.5, 0.1}) {
      std::vector<std::uint64_t> bitmap((n + 63) / 64, 0);
      std::size_t allowed = 0;
      for (std::size_t id = 0; id < n; ++id) {
        if (filter_rng.UniformInt(1000) <
            static_cast<std::size_t>(selectivity * 1000)) {
          bitmap[id >> 6] |= std::uint64_t{1} << (id & 63);
          ++allowed;
        }
      }
      const IdFilter filter = IdFilter::AllowBitmap(bitmap.data(), n);
      engine.ResetStats();
      std::vector<std::vector<Neighbor>> all(num_queries);
      WallTimer timer;
      for (std::size_t r = 0; r < repeat; ++r) {
        for (std::size_t begin = 0; begin < num_queries; begin += 32) {
          const std::size_t count =
              std::min<std::size_t>(32, num_queries - begin);
          RunRequestBatch(&engine, queries, begin, count, params, filter,
                          &all);
        }
      }
      const double seconds = timer.ElapsedSeconds();
      const EngineStatsSnapshot stats = engine.Stats();
      std::printf(",\n  {\"mode\":\"filtered\",\"threads\":%zu,"
                  "\"selectivity\":%.2f,\"allowed\":%zu,\"qps\":%.1f,"
                  "\"codes_filtered\":%llu}",
                  max_threads, selectivity, allowed,
                  static_cast<double>(num_queries * repeat) /
                      std::max(seconds, 1e-9),
                  static_cast<unsigned long long>(stats.codes_filtered));
    }
  }

  // ---- Per-stage breakdown: a dedicated engine traces EVERY query
  // (trace_sample_period = 1) and is driven through SubmitAsync so the
  // queue-wait span is real queueing, not zero. Stage histograms and the
  // estimator-health gauges come straight out of the metrics registry --
  // the same series a production scrape would see via obs::Export.
  {
    EngineConfig config;
    config.num_threads = max_threads;
    config.trace_sample_period = 1;
    IvfRabitqIndex engine_index;
    CheckOk(engine_index.Load(tmp_path), "Load");
    SearchEngine engine(std::move(engine_index), config);
    engine.ResetStats();
    for (std::size_t r = 0; r < repeat; ++r) {
      std::vector<std::future<SearchResponse>> futures;
      futures.reserve(num_queries);
      for (std::size_t i = 0; i < num_queries; ++i) {
        SearchRequest request{queries.Row(i), params};
        request.options.seed = SearchEngine::QuerySeed(kSeedBase, i);
        futures.push_back(engine.SubmitAsync(request));
      }
      for (auto& f : futures) CheckOk(f.get().status, "SubmitAsync");
    }
    const obs::MetricsSnapshot metrics = engine.SnapshotMetrics();
    std::printf(",\n  {\"mode\":\"stages\",\"threads\":%zu,"
                "\"trace_sample_period\":1,\"stages\":{",
                max_threads);
    for (int s = 0; s < obs::kNumStages; ++s) {
      const char* stage = obs::StageName(static_cast<obs::Stage>(s));
      const obs::MetricValue* mv =
          metrics.Find(std::string("rabitq_stage_") + stage + "_us");
      const obs::HistogramSnapshot hist =
          mv != nullptr ? mv->hist : obs::HistogramSnapshot{};
      std::printf("%s\"%s\":{\"count\":%llu,\"mean_us\":%.2f,"
                  "\"p50_us\":%.2f,\"p99_us\":%.2f}",
                  s == 0 ? "" : ",", stage,
                  static_cast<unsigned long long>(hist.count), hist.Mean(),
                  hist.Quantile(0.50), hist.Quantile(0.99));
    }
    const EngineStatsSnapshot stats = engine.Stats();
    std::printf("},\"estimator_health\":{\"eps0_violation_rate\":%.5f,"
                "\"signed_rel_err_mean\":%.5f,\"bound_tightness_mean\":%.4f,"
                "\"samples\":%llu}}",
                stats.eps0_violation_rate, stats.rerank_signed_err_mean,
                stats.rerank_bound_tightness_mean,
                static_cast<unsigned long long>(stats.rerank_health_samples));
  }
  // ---- Open-loop overload: offered load is PACED (1ms ticks), not closed
  // loop, so pushing past saturation actually overloads the engine instead
  // of self-throttling. Every request carries a 20ms budget and the queue
  // is bounded, so past saturation the engine degrades by design: excess
  // work is rejected at admission or shed when its deadline lapses in the
  // queue, while goodput stays near saturation and the served-query p99
  // stays bounded by the deadline instead of growing with the backlog.
  {
    EngineConfig config;
    config.num_threads = max_threads;
    config.max_batch = 32;
    config.max_queue_depth = 256;
    IvfRabitqIndex engine_index;
    CheckOk(engine_index.Load(tmp_path), "Load");
    SearchEngine engine(std::move(engine_index), config);

    // Saturation estimate: closed-loop batched throughput on this engine.
    double saturation_qps = 0.0;
    {
      std::vector<std::vector<Neighbor>> all(num_queries);
      WallTimer timer;
      for (std::size_t r = 0; r < repeat; ++r) {
        for (std::size_t begin = 0; begin < num_queries; begin += 32) {
          const std::size_t count =
              std::min<std::size_t>(32, num_queries - begin);
          RunRequestBatch(&engine, queries, begin, count, params, IdFilter{},
                          &all);
        }
      }
      saturation_qps = static_cast<double>(num_queries * repeat) /
                       std::max(timer.ElapsedSeconds(), 1e-9);
    }

    constexpr std::uint64_t kBudgetUs = 20000;
    for (const double load_factor : {0.5, 1.0, 2.0}) {
      const double rate = saturation_qps * load_factor;
      std::size_t total = static_cast<std::size_t>(rate * 0.75);
      total = std::max<std::size_t>(256, std::min<std::size_t>(total, 50000));

      engine.ResetStats();
      std::vector<std::future<SearchResponse>> futures;
      futures.reserve(total);
      std::size_t submitted = 0;
      auto next_tick = std::chrono::steady_clock::now();
      WallTimer timer;
      while (submitted < total) {
        next_tick += std::chrono::milliseconds(1);
        const double target_cumulative =
            rate * std::max(timer.ElapsedSeconds(), 1e-9);
        const std::size_t target = std::min(
            total, static_cast<std::size_t>(target_cumulative) + 1);
        while (submitted < target) {
          SearchRequest request{queries.Row(submitted % num_queries), params};
          request.options.seed =
              SearchEngine::QuerySeed(kSeedBase, submitted % num_queries);
          request.options.timeout_us = kBudgetUs;
          futures.push_back(engine.SubmitAsync(request));
          ++submitted;
        }
        std::this_thread::sleep_until(next_tick);
      }
      std::size_t good = 0, rejected = 0, deadline = 0, other = 0;
      for (auto& f : futures) {
        const SearchResponse response = f.get();
        if (response.ok()) {
          ++good;
        } else if (response.status.code() == StatusCode::kResourceExhausted) {
          ++rejected;
        } else if (response.status.code() == StatusCode::kDeadlineExceeded) {
          ++deadline;
        } else {
          ++other;
        }
      }
      const double seconds = std::max(timer.ElapsedSeconds(), 1e-9);
      const EngineStatsSnapshot stats = engine.Stats();
      std::printf(",\n  {\"mode\":\"overload\",\"threads\":%zu,"
                  "\"load_factor\":%.1f,\"queue_depth\":%zu,"
                  "\"timeout_us\":%llu,\"offered_qps\":%.0f,"
                  "\"submitted\":%zu,\"goodput_qps\":%.0f,\"served\":%zu,"
                  "\"rejected\":%zu,\"deadline_exceeded\":%zu,"
                  "\"errors\":%zu,\"shed\":%llu,\"p99_us\":%.1f}",
                  max_threads, load_factor, config.max_queue_depth,
                  static_cast<unsigned long long>(kBudgetUs),
                  static_cast<double>(submitted) / seconds, submitted,
                  static_cast<double>(good) / seconds, good, rejected,
                  deadline, other,
                  static_cast<unsigned long long>(stats.queries_shed),
                  stats.latency_p99_us);
    }
  }
  std::remove(tmp_path);

  // ---- Bits-per-dim ablation: the multi-bit code path (B in {1,2,4,8})
  // across an nprobe sweep, batched engine at max threads, under three
  // settings per width:
  //   * kErrorBound at the paper's eps0 = 1.9 -- the two-stage scan
  //     (sign-plane prune, survivors refined with the B-bit estimate)
  //     feeding exact re-rank; the refined bound prunes more, so
  //     candidates_reranked drops with B at a small recall cost (two
  //     pruning stages, two chances for a bound violation);
  //   * kErrorBound at eps0 = 2.5 -- the setting the tighter multi-bit
  //     half-width buys: a more conservative confidence level recovers the
  //     violation-pruned recall while still re-ranking far fewer
  //     candidates than B = 1, which is where B > 1 takes the
  //     recall-vs-QPS frontier at equal recall >= 0.95;
  //   * kNone -- rank by the B-bit estimate alone, no exact re-rank
  //     (recall tracks estimate quality: the 1-bit estimate saturates
  //     under 0.5 here, the 8-bit estimate near the query-quantization
  //     ceiling).
  struct AblationSetting {
    RerankPolicy policy;
    float eps0;  // epsilon0_override; -1 keeps the config default (1.9)
    const char* tag;
  };
  constexpr AblationSetting kAblationSettings[] = {
      {RerankPolicy::kErrorBound, -1.0f, "error_bound"},
      {RerankPolicy::kErrorBound, 2.5f, "error_bound_eps2.5"},
      {RerankPolicy::kNone, -1.0f, "none"},
  };
  for (const std::size_t bits : {std::size_t{1}, std::size_t{2},
                                 std::size_t{4}, std::size_t{8}}) {
    IvfConfig bits_ivf;
    bits_ivf.num_lists = 256;
    RabitqConfig bits_rabitq;
    bits_rabitq.bits_per_dim = bits;
    IvfRabitqIndex bits_index;
    CheckOk(bits_index.Build(data, bits_ivf, bits_rabitq), "bits Build");
    EngineConfig config;
    config.num_threads = max_threads;
    SearchEngine engine(std::move(bits_index), config);
    for (const AblationSetting& setting : kAblationSettings) {
      for (const std::size_t nprobe : {std::size_t{4}, std::size_t{8},
                                       std::size_t{16}, std::size_t{32}}) {
        SearchOptions bparams = params;
        bparams.policy = setting.policy;
        bparams.epsilon0_override = setting.eps0;
        bparams.nprobe = nprobe;
        engine.ResetStats();
        std::vector<std::vector<Neighbor>> all(num_queries);
        WallTimer timer;
        for (std::size_t r = 0; r < repeat; ++r) {
          for (std::size_t begin = 0; begin < num_queries; begin += 32) {
            const std::size_t count =
                std::min<std::size_t>(32, num_queries - begin);
            RunRequestBatch(&engine, queries, begin, count, bparams,
                            IdFilter{}, &all);
          }
        }
        const double seconds = timer.ElapsedSeconds();
        const EngineStatsSnapshot stats = engine.Stats();
        std::printf(",\n  {\"mode\":\"bits_ablation\",\"bits\":%zu,"
                    "\"policy\":\"%s\",\"threads\":%zu,\"nprobe\":%zu,"
                    "\"qps\":%.1f,\"recall\":%.4f,\"codes_refined\":%llu,"
                    "\"candidates_reranked\":%llu}",
                    bits, setting.tag, max_threads, nprobe,
                    static_cast<double>(num_queries * repeat) /
                        std::max(seconds, 1e-9),
                    RecallOf(gt, all, params.k),
                    static_cast<unsigned long long>(stats.codes_refined),
                    static_cast<unsigned long long>(
                        stats.candidates_reranked));
      }
    }
  }

  // ---- Inner-product serving: the same vectors and queries scored under
  // Metric::kInnerProduct (halved cross factor, IP error half-width, exact
  // -<a,q> re-rank). Sequential vs batched engine at max threads, recall
  // against an IP oracle -- so the dashboard tracks the non-L2 estimate
  // path's throughput next to the L2 series above.
  {
    IvfRabitqIndex ip_index;
    IvfConfig ip_ivf;
    ip_ivf.num_lists = 256;
    ip_ivf.metric = Metric::kInnerProduct;
    CheckOk(ip_index.Build(data, ip_ivf, RabitqConfig{}), "ip Build");
    GroundTruth ip_gt;
    CheckOk(ComputeGroundTruth(data, queries, params.k,
                               Metric::kInnerProduct, &ip_gt),
            "ip GroundTruth");

    double ip_sequential_qps = 0.0;
    {
      std::vector<std::vector<Neighbor>> results(num_queries);
      WallTimer timer;
      for (std::size_t r = 0; r < repeat; ++r) {
        for (std::size_t i = 0; i < num_queries; ++i) {
          SearchRequest request{queries.Row(i), params};
          request.options.seed = SearchEngine::QuerySeed(kSeedBase, i);
          SearchResponse response = ip_index.Search(request);
          CheckOk(response.status, "ip Search");
          results[i] = std::move(response.neighbors);
        }
      }
      ip_sequential_qps = static_cast<double>(num_queries * repeat) /
                          std::max(timer.ElapsedSeconds(), 1e-9);
      std::printf(",\n  {\"mode\":\"sequential\",\"metric\":\"ip\","
                  "\"threads\":1,\"batch\":1,\"qps\":%.1f,\"recall\":%.4f}",
                  ip_sequential_qps, RecallOf(ip_gt, results, params.k));
    }

    EngineConfig config;
    config.num_threads = max_threads;
    SearchEngine engine(std::move(ip_index), config);
    std::vector<std::vector<Neighbor>> all(num_queries);
    WallTimer timer;
    for (std::size_t r = 0; r < repeat; ++r) {
      for (std::size_t begin = 0; begin < num_queries; begin += 32) {
        const std::size_t count = std::min<std::size_t>(32, num_queries - begin);
        RunRequestBatch(&engine, queries, begin, count, params, IdFilter{},
                        &all);
      }
    }
    const double seconds = timer.ElapsedSeconds();
    const double qps =
        static_cast<double>(num_queries * repeat) / std::max(seconds, 1e-9);
    std::printf(",\n  {\"mode\":\"engine\",\"metric\":\"ip\",\"threads\":%zu,"
                "\"batch\":32,\"qps\":%.1f,\"recall\":%.4f,\"speedup\":%.2f}",
                max_threads, qps, RecallOf(ip_gt, all, params.k),
                qps / std::max(ip_sequential_qps, 1e-9));
  }

  // ---- Sharded scatter-gather sweep: per shard count, the parallel build
  // time (independent per-shard clustering, lists split across shards so
  // the clustering work scales down with S), batched query QPS, and the
  // mutation throughput of concurrent writers -- the per-shard writer
  // mutexes are what turns S writers from serialized into parallel.
  const std::size_t max_shards = ParseShards(argc, argv, 4);
  std::vector<std::size_t> shard_counts = {1};
  if (max_shards > 1) shard_counts.push_back(max_shards);
  for (const std::size_t shards : shard_counts) {
    ShardedConfig scfg;
    scfg.num_shards = shards;
    scfg.clustering = ShardClustering::kPerShard;
    scfg.ivf.num_lists = std::max<std::size_t>(1, 256 / shards);
    ShardedIndex sharded;
    WallTimer build_timer;
    CheckOk(sharded.Build(data, scfg), "sharded Build");
    const double build_s = build_timer.ElapsedSeconds();

    EngineConfig config;
    config.num_threads = max_threads;
    SearchEngine engine(std::move(sharded), config);
    SearchOptions sparams = params;
    sparams.nprobe = std::max<std::size_t>(1, params.nprobe / shards);

    std::vector<std::vector<Neighbor>> all(num_queries);
    WallTimer query_timer;
    for (std::size_t r = 0; r < repeat; ++r) {
      for (std::size_t begin = 0; begin < num_queries; begin += 32) {
        const std::size_t count = std::min<std::size_t>(32, num_queries - begin);
        RunRequestBatch(&engine, queries, begin, count, sparams, IdFilter{},
                        &all);
      }
    }
    const double query_s = query_timer.ElapsedSeconds();

    // Concurrent writers: each thread owns a disjoint id slice (updates)
    // and also appends fresh vectors; ops hash across every shard. Writer
    // count is independent of the engine pool -- these are caller threads,
    // and per-shard writer mutexes are what they contend on.
    const std::size_t writers = 4;
    const std::size_t ops_per_writer =
        std::max<std::size_t>(200, n / 8 / std::max<std::size_t>(writers, 1));
    std::atomic<std::size_t> mutations{0};
    std::vector<std::thread> writer_threads;
    WallTimer mutation_timer;
    for (std::size_t w = 0; w < writers; ++w) {
      writer_threads.emplace_back([&, w] {
        Rng rng(900 + w);
        std::vector<float> vec(dim);
        std::uint32_t owned = static_cast<std::uint32_t>(w);
        for (std::size_t op = 0; op < ops_per_writer; ++op) {
          for (auto& v : vec) v = static_cast<float>(rng.Gaussian()) * 8.0f;
          if (op % 2 == 0) {
            CheckOk(engine.Insert(vec.data(), nullptr), "sharded Insert");
          } else {
            CheckOk(engine.Update(owned, vec.data()), "sharded Update");
            owned = static_cast<std::uint32_t>((owned + writers) % n);
          }
          mutations.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : writer_threads) t.join();
    const double mutation_s = mutation_timer.ElapsedSeconds();

    std::printf(",\n  {\"mode\":\"sharded\",\"shards\":%zu,\"threads\":%zu,"
                "\"build_s\":%.3f,\"qps\":%.1f,\"recall\":%.4f,"
                "\"mutation_writers\":%zu,\"mutation_ops_per_s\":%.0f}",
                shards, max_threads, build_s,
                static_cast<double>(num_queries * repeat) /
                    std::max(query_s, 1e-9),
                RecallOf(gt, all, params.k), writers,
                static_cast<double>(mutations.load()) /
                    std::max(mutation_s, 1e-9));
  }

  // ---- Wire serving: the same engine behind the TCP server, driven by N
  // closed-loop blocking clients over localhost (one Client per thread --
  // the shape the client library is built for). The sweep doubles the
  // client count to find saturation QPS with client-observed round-trip
  // p50/p99. The closing point is the overload drill: a second server with
  // an overload-tuned engine template (shallow admission queue, tiny
  // batches) takes 2x the saturating client count, each query carrying a
  // 20 ms budget -- so the answer to overload is fast kResourceExhausted /
  // kDeadlineExceeded responses and a bounded served p99, not unbounded
  // queueing.
  {
    using server::Client;
    using server::Server;
    using server::ServerConfig;
    using server::WireCollectionSpec;

    WireCollectionSpec spec;
    spec.dim = static_cast<std::uint32_t>(dim);
    spec.metric = Metric::kL2;
    spec.bits_per_dim = 1;
    spec.num_shards = 1;
    spec.num_lists = 256;

    struct WirePoint {
      double wall_s = 0.0;
      std::size_t served = 0;
      std::size_t rejected = 0;
      std::size_t deadline = 0;
      std::size_t errors = 0;
      double p50_us = 0.0;
      double p99_us = 0.0;
      double qps() const {
        return static_cast<double>(served) / std::max(wall_s, 1e-9);
      }
    };

    auto percentile = [](std::vector<double>* sorted, double p) {
      if (sorted->empty()) return 0.0;
      const std::size_t idx =
          static_cast<std::size_t>(p * static_cast<double>(sorted->size() - 1));
      return (*sorted)[idx];
    };

    // Runs `clients` closed-loop threads against the collection "bench" on
    // `port` for ~`seconds`, each request carrying `timeout_us` (0 = no
    // deadline). Outcomes are tallied per status code; latency quantiles
    // cover the SERVED responses only.
    auto drive = [&](std::uint16_t port, std::size_t clients, double seconds,
                     std::uint64_t timeout_us) {
      std::atomic<bool> stop{false};
      std::vector<WirePoint> tallies(clients);
      std::vector<std::vector<double>> latencies(clients);
      std::vector<std::thread> threads;
      threads.reserve(clients);
      WallTimer wall;
      for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          Client client;
          if (!client.Connect("127.0.0.1", port).ok()) return;
          std::size_t i = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            const std::size_t qi = (c * 7919 + i) % num_queries;
            SearchOptions options = params;
            options.seed = SearchEngine::QuerySeed(kSeedBase, qi);
            options.timeout_us = timeout_us;
            WallTimer rt;
            const SearchResponse response =
                client.Search("bench", queries.Row(qi), dim, options);
            const double us = rt.ElapsedSeconds() * 1e6;
            if (response.status.ok()) {
              ++tallies[c].served;
              latencies[c].push_back(us);
            } else if (response.status.code() ==
                       StatusCode::kResourceExhausted) {
              ++tallies[c].rejected;
              // Well-behaved clients back off after an admission rejection;
              // without this the rejection fast path turns the closed loop
              // into a retry storm that starves the queue it is probing.
              std::this_thread::sleep_for(std::chrono::microseconds(500));
            } else if (response.status.code() ==
                       StatusCode::kDeadlineExceeded) {
              ++tallies[c].deadline;
            } else {
              ++tallies[c].errors;
              if (!client.connected() &&
                  !client.Connect("127.0.0.1", port).ok()) {
                break;
              }
            }
            ++i;
          }
        });
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
      stop.store(true, std::memory_order_relaxed);
      for (auto& t : threads) t.join();

      WirePoint point;
      point.wall_s = wall.ElapsedSeconds();
      std::vector<double> merged;
      for (std::size_t c = 0; c < clients; ++c) {
        point.served += tallies[c].served;
        point.rejected += tallies[c].rejected;
        point.deadline += tallies[c].deadline;
        point.errors += tallies[c].errors;
        merged.insert(merged.end(), latencies[c].begin(), latencies[c].end());
      }
      std::sort(merged.begin(), merged.end());
      point.p50_us = percentile(&merged, 0.50);
      point.p99_us = percentile(&merged, 0.99);
      return point;
    };

    // Saturation sweep: production-shaped engine template.
    double saturation_qps = 0.0;
    std::size_t saturation_clients = 1;
    {
      ServerConfig serve_config;
      serve_config.port = 0;
      serve_config.collections.engine.num_threads = max_threads;
      Server wire_server(serve_config);
      CheckOk(wire_server.Start(), "wire Start");
      {
        Client admin;
        CheckOk(admin.Connect("127.0.0.1", wire_server.port()),
                "wire Connect");
        CheckOk(admin.CreateCollection("bench", spec, data), "wire Create");
      }
      const std::size_t client_cap = std::max<std::size_t>(8, 2 * max_threads);
      for (std::size_t clients = 1; clients <= client_cap; clients *= 2) {
        const WirePoint point = drive(wire_server.port(), clients, 0.6, 0);
        std::printf(",\n  {\"mode\":\"server\",\"clients\":%zu,"
                    "\"threads\":%zu,\"qps\":%.1f,\"p50_us\":%.0f,"
                    "\"p99_us\":%.0f,\"served\":%zu,\"errors\":%zu}",
                    clients, max_threads, point.qps(), point.p50_us,
                    point.p99_us, point.served, point.errors);
        if (point.qps() > saturation_qps) {
          saturation_qps = point.qps();
          saturation_clients = clients;
        }
      }
      wire_server.Stop();
      wire_server.Wait();
    }

    // Overload drill: 2x the saturating client count against the
    // overload-tuned template. The shallow queue turns excess concurrency
    // into immediate kResourceExhausted; the 20 ms budget sheds whatever
    // still queues too long -- both counted below, with the engine-side
    // shed/partial tallies read straight off the collection.
    {
      ServerConfig overload_config;
      overload_config.port = 0;
      overload_config.collections.engine.num_threads = max_threads;
      overload_config.collections.engine.max_batch = 4;
      // Sized so 2x the saturating concurrency cannot all fit: the excess
      // is the measured rejection rate rather than invisible queueing.
      overload_config.collections.engine.max_queue_depth =
          std::max<std::size_t>(2, saturation_clients / 2);
      Server overload_server(overload_config);
      CheckOk(overload_server.Start(), "wire overload Start");
      {
        Client admin;
        CheckOk(admin.Connect("127.0.0.1", overload_server.port()),
                "wire overload Connect");
        CheckOk(admin.CreateCollection("bench", spec, data),
                "wire overload Create");
      }
      const std::size_t overload_clients =
          std::min<std::size_t>(2 * saturation_clients, 128);
      const std::uint64_t kBudgetUs = 20000;
      const WirePoint point =
          drive(overload_server.port(), overload_clients, 0.8, kBudgetUs);
      EngineStatsSnapshot engine_stats;
      if (const auto collection =
              overload_server.collections()->Get("bench")) {
        engine_stats = collection->engine->Stats();
      }
      std::printf(
          ",\n  {\"mode\":\"server_overload\",\"clients\":%zu,"
          "\"load\":\"2x\",\"saturation_qps\":%.1f,\"timeout_us\":%llu,"
          "\"goodput_qps\":%.1f,\"p50_us\":%.0f,\"p99_us\":%.0f,"
          "\"served\":%zu,\"rejected\":%zu,\"deadline_exceeded\":%zu,"
          "\"shed\":%llu,\"partial\":%llu,\"errors\":%zu}",
          overload_clients, saturation_qps,
          static_cast<unsigned long long>(kBudgetUs), point.qps(),
          point.p50_us, point.p99_us, point.served, point.rejected,
          point.deadline,
          static_cast<unsigned long long>(engine_stats.queries_shed),
          static_cast<unsigned long long>(engine_stats.partial_responses),
          point.errors);
      overload_server.Stop();
      overload_server.Wait();
    }
  }

  std::printf("\n]}\n");
  return 0;
}

}  // namespace bench
}  // namespace rabitq

int main(int argc, char** argv) { return rabitq::bench::Run(argc, argv); }
