// End-to-end demo of the serving stack: starts the network server
// in-process on an ephemeral port, creates a "demo" collection over the wire
// (training vectors ride the create_collection frame), then drives it like a
// real deployment: N closed-loop producer clients searching, a writer client
// churning the live collection (add / delete / update), a metrics scraper
// polling the stats endpoint. --metrics-out periodically rewrites the file
// with the collection's Prometheus exposition FETCHED OVER THE WIRE -- the
// same text obs::ExportPrometheus renders for an engine, so scrape tooling
// reads one format. Ends with a filtered search (allow-bitmap pushed down
// through the protocol), a drain request and a clean server shutdown.
//
//   ./serve_demo [num_producers] [queries_per_producer] [--shards S]
//               [--metric l2|ip|cosine] [--metrics-out PATH]

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/server.h"
#include "util/prng.h"

using rabitq::IdFilter;
using rabitq::Matrix;
using rabitq::Rng;
using rabitq::SearchOptions;
using rabitq::SearchResponse;
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
};

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
  // the same unlabeled text obs::ExportPrometheus renders for an engine, so
  // scrape tooling (and the CI greps) read one format.
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
  // queue exactly like in-process SubmitAsync producers. The query set has
  // at least one row: the filtered search below probes with row 0.
  const Matrix queries = GaussianClusters(
      std::max<std::size_t>(1, args.num_producers * args.queries_per_producer),
      dim, 32, 2);
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
  // filters have no wire form.)
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

}  // namespace

int main(int argc, char** argv) {
  DemoArgs args;
  std::vector<std::size_t> positional;
  const auto usage = [] {
    std::fprintf(stderr,
                 "usage: serve_demo [num_producers] [queries_per_producer] "
                 "[--shards S>=1] [--metric l2|ip|cosine] "
                 "[--metrics-out PATH]\n");
    return 1;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0) {
      if (i + 1 >= argc || std::atol(argv[i + 1]) < 1) return usage();
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
    } else if (argv[i][0] == '-') {
      return usage();  // an unknown flag must not parse as a count of 0
    } else {
      positional.push_back(static_cast<std::size_t>(std::atol(argv[i])));
    }
  }
  if (positional.size() > 0) args.num_producers = positional[0];
  if (positional.size() > 1) args.queries_per_producer = positional[1];

  return RunWire(args);
}
