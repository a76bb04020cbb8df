// End-to-end demo of the serving stack. Two modes:
//
//   * Default (wire): starts the network server in-process on an ephemeral
//     port, creates a "demo" collection over the wire (training vectors ride
//     the create_collection frame), then drives it like a real deployment:
//     N closed-loop producer clients searching, a writer client churning the
//     live collection (add / delete / update), a metrics scraper polling the
//     stats endpoint. --metrics-out periodically rewrites the file with the
//     collection's Prometheus exposition FETCHED OVER THE WIRE -- the same
//     text the in-process exporter used to write, so existing scrape
//     tooling keeps working. Ends with a filtered search (allow-bitmap
//     pushed down through the protocol), a drain request and a clean server
//     shutdown.
//
//   * --in-process: the pre-server demo, linking SearchEngine directly --
//     SubmitAsync futures, micro-batching, background compaction, the
//     predicate IdFilter (which cannot cross the wire) and sampled query
//     traces.
//
//   ./serve_demo [num_producers] [queries_per_producer] [--shards S]
//               [--metric l2|ip|cosine] [--metrics-out PATH] [--in-process]

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/search_engine.h"
#include "index/ivf.h"
#include "index/sharded.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/server.h"
#include "util/prng.h"

using rabitq::EngineConfig;
using rabitq::EngineStatsSnapshot;
using rabitq::IdFilter;
using rabitq::Matrix;
using rabitq::Rng;
using rabitq::SearchEngine;
using rabitq::SearchOptions;
using rabitq::SearchRequest;
using rabitq::SearchResponse;
using rabitq::ShardedConfig;
using rabitq::ShardedIndex;
using rabitq::Status;

namespace {

Matrix GaussianClusters(std::size_t n, std::size_t dim, std::size_t clusters,
                        std::uint64_t seed) {
  Rng rng(seed);
  Matrix centers(clusters, dim);
  for (std::size_t i = 0; i < centers.size(); ++i) {
    centers.data()[i] = static_cast<float>(rng.Gaussian()) * 6.0f;
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

void WriteFileAtomic(const char* path, const std::string& text) {
  const std::string tmp = std::string(path) + ".tmp";
  if (std::FILE* f = std::fopen(tmp.c_str(), "w")) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::rename(tmp.c_str(), path);
  }
}

struct DemoArgs {
  std::size_t num_producers = 4;
  std::size_t queries_per_producer = 200;
  std::size_t num_shards = 1;
  rabitq::Metric metric = rabitq::Metric::kL2;
  const char* metrics_out = nullptr;
  bool in_process = false;
};

// ------------------------------------------------------------ wire mode ---

int RunWire(const DemoArgs& args) {
  using rabitq::server::Client;
  using rabitq::server::Server;
  using rabitq::server::ServerConfig;
  using rabitq::server::WireCollectionSpec;

  const std::size_t n = 20000, dim = 64;
  std::printf("starting rabitq server (in-process, ephemeral port)...\n");
  ServerConfig server_config;
  server_config.port = 0;
  server_config.collections.root_dir =
      "/tmp/serve_demo_" + std::to_string(::getpid());
  server_config.collections.engine.compaction_tombstone_ratio = 0.10f;
  server_config.collections.engine.compaction_min_dead = 8;
  Server server(server_config);
  Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  const std::uint16_t port = server.port();

  std::printf("creating collection 'demo' over the wire: %zu x %zu vectors "
              "(%zu shard%s, metric %s)...\n",
              n, dim, args.num_shards, args.num_shards == 1 ? "" : "s",
              rabitq::MetricName(args.metric));
  const Matrix data = GaussianClusters(n, dim, 32, 1);
  WireCollectionSpec spec;
  spec.dim = dim;
  spec.metric = args.metric;
  spec.bits_per_dim = 1;
  spec.num_shards = static_cast<std::uint32_t>(args.num_shards);
  // Split the list budget across the shards so the total probe work stays
  // comparable as --shards grows.
  spec.num_lists = static_cast<std::uint32_t>(
      std::max<std::size_t>(1, 128 / args.num_shards));

  Client admin;
  status = admin.Connect("127.0.0.1", port);
  if (status.ok()) status = admin.CreateCollection("demo", spec, data);
  if (!status.ok()) {
    std::fprintf(stderr, "create_collection failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  SearchOptions options;
  options.k = 10;
  options.nprobe = std::max<std::size_t>(1, 16 / args.num_shards);

  // Metrics scraper: polls the stats endpoint over the wire and atomically
  // rewrites --metrics-out with the collection's Prometheus exposition --
  // the same unlabeled text the in-process exporter wrote, so scrape
  // tooling (and the CI greps) see an unchanged format.
  std::atomic<bool> stop_exporter{false};
  std::thread exporter;
  if (args.metrics_out != nullptr) {
    exporter = std::thread([&] {
      Client scraper;
      if (!scraper.Connect("127.0.0.1", port).ok()) return;
      while (!stop_exporter.load(std::memory_order_relaxed)) {
        std::string text;
        if (scraper.Stats("demo", /*format=*/1, &text).ok()) {
          WriteFileAtomic(args.metrics_out, text);
        }
        for (int i = 0; i < 10 && !stop_exporter.load(); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
      }
    });
    std::printf("metrics scraper: polling stats -> %s every 1s\n",
                args.metrics_out);
  }

  // Producers: one closed-loop client connection each. Concurrent requests
  // from different connections coalesce in the server's micro-batching
  // queue exactly like in-process SubmitAsync producers.
  const Matrix queries = GaussianClusters(
      args.num_producers * args.queries_per_producer, dim, 32, 2);
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < args.num_producers; ++p) {
    producers.emplace_back([&, p] {
      Client client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        std::fprintf(stderr, "producer %zu: connect failed\n", p);
        return;
      }
      std::size_t ok = 0;
      float nearest = -1.0f;
      for (std::size_t i = 0; i < args.queries_per_producer; ++i) {
        const SearchResponse response = client.Search(
            "demo", queries.Row(p * args.queries_per_producer + i), dim,
            options);
        if (response.status.ok()) {
          ++ok;
          if (!response.neighbors.empty()) {
            nearest = response.neighbors[0].first;
          }
        }
      }
      std::printf("producer %zu: %zu/%zu ok (last top-1 dist^2 %.3f)\n", p,
                  ok, args.queries_per_producer, nearest);
    });
  }

  // Writer client: churns the live collection over the wire -- a fresh add,
  // a delete and an in-place update per round, against live search traffic.
  std::thread writer([&] {
    Client client;
    if (!client.Connect("127.0.0.1", port).ok()) return;
    const Matrix fresh = GaussianClusters(256, dim, 32, 3);
    Rng rng(4);
    std::vector<bool> deleted(n, false);
    std::size_t adds = 0, deletes = 0, updates = 0;
    for (std::size_t i = 0; i < fresh.rows(); ++i) {
      std::uint32_t id = 0;
      if (!client.Add("demo", fresh.Row(i), dim, &id).ok()) continue;
      ++adds;
      const std::uint32_t victim = static_cast<std::uint32_t>(i * 7 % n);
      if (!deleted[victim] && client.Delete("demo", victim).ok()) {
        deleted[victim] = true;
        ++deletes;
      }
      const std::uint32_t moved = static_cast<std::uint32_t>(i * 13 % n);
      if (!deleted[moved]) {
        std::vector<float> vec(dim);
        for (auto& v : vec) v = static_cast<float>(rng.Gaussian()) * 6.0f;
        if (client.Update("demo", moved, vec.data(), dim).ok()) ++updates;
      }
    }
    std::printf("writer: +%zu -%zu ~%zu over the wire\n", adds, deletes,
                updates);
  });

  for (auto& t : producers) t.join();
  writer.join();

  // Filtered search over the wire: an allow-bitmap rides the request frame
  // and is pushed down into the per-shard scans server-side. (Predicate
  // filters have no wire form -- see --in-process for that path.)
  {
    std::vector<std::uint64_t> bitmap((n + 63) / 64, 0);
    for (const std::uint32_t id : {2001u, 9999u, 15000u}) {  // churn survivors
      bitmap[id >> 6] |= std::uint64_t{1} << (id & 63u);
    }
    SearchOptions pinned = options;
    pinned.seed = 42;  // explicit seed: reproducible across runs
    pinned.filter = IdFilter::AllowBitmap(bitmap.data(), n);
    pinned.nprobe = ~std::size_t{0};  // probe every list for a 3-id allowlist
    const SearchResponse response =
        admin.Search("demo", queries.Row(0), dim, pinned);
    std::printf("\nfiltered search over the wire (3-id allowlist): hits =");
    for (const auto& nb : response.neighbors) {
      std::printf(" %u(d^2=%.2f)", nb.second, nb.first);
    }
    std::printf("\n");
  }

  // Final scrapes: the per-collection JSON and the server-wide exposition
  // (server counters + collection="demo" labeled engine series).
  std::string collection_json;
  if (admin.Stats("demo", /*format=*/0, &collection_json).ok()) {
    std::printf("\ncollection metrics (JSON over the wire):\n%s\n",
                collection_json.c_str());
  }
  std::string server_stats;
  if (admin.Stats("", /*format=*/1, &server_stats).ok()) {
    std::printf("\nserver-wide exposition: %zu bytes "
                "(rabitq_server_* + collection-labeled series)\n",
                server_stats.size());
  }

  if (exporter.joinable()) {
    stop_exporter.store(true);
    exporter.join();
    // One final scrape so the file reflects the full run.
    std::string text;
    if (admin.Stats("demo", /*format=*/1, &text).ok()) {
      WriteFileAtomic(args.metrics_out, text);
    }
  }

  const Status drain_status = admin.Drain();
  server.Wait();
  if (!drain_status.ok()) {
    std::fprintf(stderr, "drain failed: %s\n",
                 drain_status.ToString().c_str());
    return 1;
  }
  std::printf("\nserver drained cleanly\n");
  return 0;
}

// ------------------------------------------------------ in-process mode ---

int RunInProcess(const DemoArgs& args) {
  const std::size_t num_producers = args.num_producers;
  const std::size_t queries_per_producer = args.queries_per_producer;
  const std::size_t num_shards = args.num_shards;
  const rabitq::Metric metric = args.metric;
  const char* metrics_out = args.metrics_out;
  const std::size_t n = 20000, dim = 64;

  std::printf("building IVF+RaBitQ index over %zu x %zu vectors (%zu shard%s, "
              "metric %s)...\n",
              n, dim, num_shards, num_shards == 1 ? "" : "s",
              rabitq::MetricName(metric));
  Matrix data = GaussianClusters(n, dim, 32, 1);
  ShardedIndex index;
  ShardedConfig sharded_config;
  sharded_config.num_shards = num_shards;
  sharded_config.ivf.metric = metric;
  // Split the list budget across the shards so the total probe work stays
  // comparable as --shards grows.
  sharded_config.ivf.num_lists =
      std::max<std::size_t>(1, 128 / num_shards);
  Status status = index.Build(data, sharded_config);
  if (!status.ok()) {
    std::fprintf(stderr, "Build failed: %s\n", status.ToString().c_str());
    return 1;
  }

  EngineConfig config;
  config.max_batch = 32;
  config.batch_linger_us = 200;
  // Compact a list as soon as 10% of its entries are tombstones, so the
  // short demo run actually exercises the background compactor.
  config.compaction_tombstone_ratio = 0.10f;
  config.compaction_min_dead = 8;
  SearchOptions params;
  params.k = 10;
  params.nprobe = std::max<std::size_t>(1, 16 / num_shards);  // per shard

  // Trace sink: every 64th query (the default sample period) delivers its
  // per-stage span breakdown here. Keep the first few and print them at the
  // end -- a stand-in for shipping traces to a real collector.
  struct TraceRecord {
    std::uint64_t seed;
    double us[rabitq::obs::kNumStages];
  };
  std::mutex trace_mutex;
  std::vector<TraceRecord> trace_records;
  config.trace_sink = [&](std::uint64_t seed,
                          const rabitq::obs::QueryTrace& trace) {
    std::lock_guard<std::mutex> lock(trace_mutex);
    if (trace_records.size() >= 5) return;
    TraceRecord rec;
    rec.seed = seed;
    for (int s = 0; s < rabitq::obs::kNumStages; ++s) {
      rec.us[s] = trace.Micros(static_cast<rabitq::obs::Stage>(s));
    }
    trace_records.push_back(rec);
  };

  SearchEngine engine(std::move(index), config);
  std::printf("engine up: %zu worker thread(s), %zu shard(s), max_batch=%zu\n",
              engine.num_threads(), engine.num_shards(), config.max_batch);

  // Metrics exporter: periodically rewrite --metrics-out with the Prometheus
  // text format (write to a temp file then rename, so scrapers never see a
  // torn exposition).
  std::atomic<bool> stop_exporter{false};
  std::thread exporter;
  if (metrics_out != nullptr) {
    exporter = std::thread([&] {
      while (!stop_exporter.load(std::memory_order_relaxed)) {
        WriteFileAtomic(metrics_out,
                        rabitq::obs::ExportPrometheus(engine.SnapshotMetrics()));
        for (int i = 0; i < 10 && !stop_exporter.load(); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
      }
    });
    std::printf("metrics exporter: writing Prometheus text to %s every 1s\n",
                metrics_out);
  }

  // Producers: each thread submits its queries and immediately waits on the
  // returned futures -- the scheduler gathers concurrent submissions into
  // shared batches behind the scenes.
  Matrix queries =
      GaussianClusters(num_producers * queries_per_producer, dim, 32, 2);
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < num_producers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<std::future<SearchResponse>> futures;
      futures.reserve(queries_per_producer);
      for (std::size_t i = 0; i < queries_per_producer; ++i) {
        futures.push_back(engine.SubmitAsync(
            SearchRequest{queries.Row(p * queries_per_producer + i), params}));
      }
      std::size_t ok = 0;
      float nearest = -1.0f;
      for (auto& f : futures) {
        SearchResponse result = f.get();
        if (result.status.ok()) {
          ++ok;
          if (!result.neighbors.empty()) nearest = result.neighbors[0].first;
        }
      }
      std::printf("producer %zu: %zu/%zu ok (last top-1 dist^2 %.3f)\n", p,
                  ok, queries_per_producer, nearest);
    });
  }

  // A writer churns the serving index concurrently: a fresh insert, a
  // delete and an in-place update per round -- live traffic never stops.
  // The writer tracks its own deletions rather than peeking at
  // engine.index() mid-flight: reading index internals while the
  // background compactor commits is outside the documented contract.
  std::thread writer([&] {
    Matrix fresh = GaussianClusters(256, dim, 32, 3);
    Rng rng(4);
    std::vector<bool> deleted(n, false);
    for (std::size_t i = 0; i < fresh.rows(); ++i) {
      std::uint32_t id = 0;
      if (!engine.Insert(fresh.Row(i), &id).ok()) continue;
      const std::uint32_t victim = static_cast<std::uint32_t>(i * 7 % n);
      if (!deleted[victim] && engine.Delete(victim).ok()) {
        deleted[victim] = true;
      }
      const std::uint32_t moved = static_cast<std::uint32_t>(i * 13 % n);
      if (!deleted[moved]) {
        std::vector<float> vec(dim);
        for (auto& v : vec) v = static_cast<float>(rng.Gaussian()) * 6.0f;
        engine.Update(moved, vec.data());
      }
      if ((i + 1) % 64 == 0) {
        const EngineStatsSnapshot s = engine.Stats();
        std::printf("writer: +%llu -%llu ~%llu | live %llu, tombstones %llu,"
                    " compactions %llu, epoch %llu\n",
                    static_cast<unsigned long long>(s.inserts),
                    static_cast<unsigned long long>(s.deletes),
                    static_cast<unsigned long long>(s.updates),
                    static_cast<unsigned long long>(s.live_vectors),
                    static_cast<unsigned long long>(s.tombstones),
                    static_cast<unsigned long long>(s.compactions),
                    static_cast<unsigned long long>(s.epoch));
      }
    }
  });

  for (auto& t : producers) t.join();
  writer.join();

  // Drain whatever tombstones the background pass has not claimed yet.
  const Status compact_status = engine.CompactNow();
  if (!compact_status.ok()) {
    std::fprintf(stderr, "CompactNow failed: %s\n",
                 compact_status.ToString().c_str());
  }

  // --- Filtered search: the same serving path with a per-query IdFilter.
  // The filter is pushed down into the fused scan (it joins the tombstone
  // bits in the kernel's survivors mask), so excluded ids never reach exact
  // re-ranking and there is no post-filtering pass. Here: a predicate
  // admitting only even ids, then an allow-bitmap pinned to three ids --
  // the "search within this user's documents" shape.
  if (queries.rows() > 0) {
    SearchRequest request{queries.Row(0), params};
    request.options.seed = 42;  // explicit seed: reproducible across runs
    request.options.filter = IdFilter::FromPredicate(
        [](void*, std::uint32_t id) { return id % 2 == 0; }, nullptr);
    const SearchResponse even = engine.Search(request);
    bool all_even = even.ok();
    for (const auto& nb : even.neighbors) all_even &= nb.second % 2 == 0;
    std::printf("\nfiltered search (even ids only): %zu hits, all even: %s, "
                "codes filtered in-scan: %zu\n",
                even.neighbors.size(), all_even ? "yes" : "NO",
                even.stats.codes_filtered);

    std::vector<std::uint64_t> bitmap((n + 63) / 64, 0);
    for (const std::uint32_t id : {2001u, 9999u, 15000u}) {  // churn survivors
      bitmap[id >> 6] |= std::uint64_t{1} << (id & 63u);
    }
    request.options.filter = IdFilter::AllowBitmap(bitmap.data(), n);
    // Probe every list: with only three candidate ids in the whole index,
    // an IVF subset probe would usually miss their lists entirely.
    request.options.nprobe = ~std::size_t{0};
    const SearchResponse pinned = engine.Search(request);
    std::printf("filtered search (3-id allowlist): top hits =");
    for (const auto& nb : pinned.neighbors) {
      std::printf(" %u(d^2=%.2f)", nb.second, nb.first);
    }
    std::printf("\n");
  }

  const EngineStatsSnapshot stats = engine.Stats();
  std::printf(
      "\nserved %llu queries in %llu batches (mean batch %.1f)\n"
      "qps %.0f | latency p50 %.0fus p99 %.0fus max %.0fus\n"
      "codes estimated %llu | candidates re-ranked %llu | lists probed %llu"
      " | codes filtered %llu\n"
      "inserts %llu, deletes %llu, updates %llu, lists compacted %llu\n"
      "epoch %llu | ids %zu, live %llu, tombstones %llu\n",
      static_cast<unsigned long long>(stats.queries),
      static_cast<unsigned long long>(stats.batches), stats.mean_batch_size,
      stats.qps, stats.latency_p50_us, stats.latency_p99_us,
      stats.latency_max_us,
      static_cast<unsigned long long>(stats.codes_estimated),
      static_cast<unsigned long long>(stats.candidates_reranked),
      static_cast<unsigned long long>(stats.lists_probed),
      static_cast<unsigned long long>(stats.codes_filtered),
      static_cast<unsigned long long>(stats.inserts),
      static_cast<unsigned long long>(stats.deletes),
      static_cast<unsigned long long>(stats.updates),
      static_cast<unsigned long long>(stats.compactions),
      static_cast<unsigned long long>(stats.epoch), engine.size(),
      static_cast<unsigned long long>(stats.live_vectors),
      static_cast<unsigned long long>(stats.tombstones));
  std::printf(
      "estimator health: eps0 violation rate %.4f | signed rel-err mean "
      "%+.4f | bound tightness %.3f (%llu samples)\n",
      stats.eps0_violation_rate, stats.rerank_signed_err_mean,
      stats.rerank_bound_tightness_mean,
      static_cast<unsigned long long>(stats.rerank_health_samples));

  {
    std::lock_guard<std::mutex> lock(trace_mutex);
    std::printf("\nsampled query traces (first %zu):\n", trace_records.size());
    for (const TraceRecord& rec : trace_records) {
      std::printf("  seed %llu:", static_cast<unsigned long long>(rec.seed));
      for (int s = 0; s < rabitq::obs::kNumStages; ++s) {
        std::printf(" %s=%.1fus",
                    rabitq::obs::StageName(static_cast<rabitq::obs::Stage>(s)),
                    rec.us[s]);
      }
      std::printf("\n");
    }
  }

  if (exporter.joinable()) {
    stop_exporter.store(true);
    exporter.join();
    // One final write so the file reflects the full run.
    WriteFileAtomic(metrics_out,
                    rabitq::obs::ExportPrometheus(engine.SnapshotMetrics()));
  }
  std::printf("\nmetrics snapshot (JSON):\n%s\n",
              rabitq::obs::ExportJson(engine.SnapshotMetrics()).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  DemoArgs args;
  std::vector<std::size_t> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0) {
      if (i + 1 >= argc || std::atol(argv[i + 1]) < 1) {
        std::fprintf(stderr,
                     "usage: serve_demo [num_producers] "
                     "[queries_per_producer] [--shards S>=1] "
                     "[--metric l2|ip|cosine] [--metrics-out PATH] "
                     "[--in-process]\n");
        return 1;
      }
      args.num_shards = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--metric") == 0) {
      if (i + 1 >= argc || !rabitq::ParseMetricName(argv[i + 1], &args.metric)) {
        std::fprintf(stderr, "--metric needs one of l2|ip|cosine\n");
        return 1;
      }
      ++i;
    } else if (std::strcmp(argv[i], "--metrics-out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--metrics-out needs a file path\n");
        return 1;
      }
      args.metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--in-process") == 0) {
      args.in_process = true;
    } else {
      positional.push_back(static_cast<std::size_t>(std::atol(argv[i])));
    }
  }
  if (positional.size() > 0) args.num_producers = positional[0];
  if (positional.size() > 1) args.queries_per_producer = positional[1];

  return args.in_process ? RunInProcess(args) : RunWire(args);
}
