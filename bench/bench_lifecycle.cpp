// Index-lifecycle bench: insert/delete/update/compaction throughput of the
// mutable IVF+RaBitQ index, plus evidence that single-vector inserts are
// amortized O(1) -- the per-insert cost is reported per chunk of the insert
// stream and must stay flat as the index grows (the pre-chunked-storage code
// copied the full raw-vector matrix per insert, so this curve was linear).
// Emits one JSON object for dashboard scraping.
//
//   ./bench_lifecycle [--shards S]   (sharded churn series runs {1, S};
//                                     default S = 4)
//
// Environment knobs:
//   RABITQ_BENCH_SCALE    dataset size multiplier (default 1.0 -> N = 20000)
//   RABITQ_BENCH_QUERIES  queries for the serving-during-churn series
//                         (default 128)

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "engine/search_engine.h"
#include "index/ivf.h"
#include "index/sharded.h"
#include "util/prng.h"
#include "util/timer.h"

namespace rabitq {
namespace bench {
namespace {

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

}  // namespace

int Run(int argc, char** argv) {
  const std::size_t base_n = static_cast<std::size_t>(20000 * EnvScale());
  const std::size_t insert_n = base_n;  // double the index by single inserts
  const std::size_t dim = 96;
  const std::size_t num_queries = EnvQueryCap(128);

  Matrix data = Clustered(base_n, dim, 64, 21);
  Matrix extra = Clustered(insert_n, dim, 64, 22);
  Matrix queries = Clustered(num_queries, dim, 64, 23);

  IvfRabitqIndex index;
  IvfConfig ivf;
  ivf.num_lists = 256;
  CheckOk(index.Build(data, ivf, RabitqConfig{}), "Build");

  std::printf("{\"bench\":\"lifecycle\",\"n\":%zu,\"dim\":%zu,"
              "\"inserts\":%zu,\"series\":[\n",
              base_n, dim, insert_n);

  // --- Insert throughput, reported per chunk: flat curve == amortized O(1).
  const std::size_t chunks = 8;
  const std::size_t per_chunk = insert_n / chunks;
  double insert_total_s = 0.0;
  std::printf("  {\"op\":\"insert\",\"per_chunk_us\":[");
  for (std::size_t c = 0; c < chunks; ++c) {
    WallTimer timer;
    for (std::size_t i = c * per_chunk; i < (c + 1) * per_chunk; ++i) {
      CheckOk(index.Add(extra.Row(i), nullptr), "Add");
    }
    const double seconds = timer.ElapsedSeconds();
    insert_total_s += seconds;
    std::printf("%s%.3f", c == 0 ? "" : ",",
                1e6 * seconds / static_cast<double>(per_chunk));
  }
  std::printf("],\"ops_per_s\":%.0f}",
              static_cast<double>(chunks * per_chunk) /
                  std::max(insert_total_s, 1e-9));

  // --- Delete throughput (tombstoning is O(1) per op).
  const std::size_t delete_n = index.size() / 2;
  {
    WallTimer timer;
    for (std::uint32_t id = 0; id < delete_n; ++id) {
      CheckOk(index.Delete(2 * id), "Delete");
    }
    std::printf(",\n  {\"op\":\"delete\",\"count\":%zu,\"ops_per_s\":%.0f}",
                delete_n,
                static_cast<double>(delete_n) /
                    std::max(timer.ElapsedSeconds(), 1e-9));
  }

  // --- Update throughput (tombstone + re-encode + O(1) repack).
  {
    Rng rng(31);
    std::vector<float> vec(dim);
    const std::size_t update_n = delete_n / 4;
    WallTimer timer;
    for (std::uint32_t i = 0; i < update_n; ++i) {
      for (auto& v : vec) v = static_cast<float>(rng.Gaussian()) * 8.0f;
      CheckOk(index.Update(2 * i + 1, vec.data()), "Update");
    }
    std::printf(",\n  {\"op\":\"update\",\"count\":%zu,\"ops_per_s\":%.0f}",
                update_n,
                static_cast<double>(update_n) /
                    std::max(timer.ElapsedSeconds(), 1e-9));
  }

  // --- Compaction: drain every tombstone, report reclaimed entries/s.
  {
    const std::size_t tombstones = index.num_tombstones();
    WallTimer timer;
    CheckOk(index.Compact(), "Compact");
    const double seconds = timer.ElapsedSeconds();
    std::printf(",\n  {\"op\":\"compact\",\"tombstones\":%zu,"
                "\"seconds\":%.4f,\"reclaimed_per_s\":%.0f}",
                tombstones, seconds,
                static_cast<double>(tombstones) / std::max(seconds, 1e-9));
  }

  // --- Serving during churn: queries flow through the engine while one
  // writer thread mutates; background compaction enabled.
  {
    // Snapshot liveness BEFORE handing the index to the engine: the churn
    // below never deletes, so this stays accurate, and it avoids reading
    // index internals while the background compactor commits.
    const std::size_t pre_size = index.size();
    std::vector<bool> was_deleted(pre_size);
    for (std::uint32_t id = 0; id < pre_size; ++id) {
      was_deleted[id] = index.IsDeleted(id);
    }
    EngineConfig config;
    config.compaction_tombstone_ratio = 0.2f;
    config.compaction_min_dead = 64;
    SearchEngine engine(std::move(index), config);
    SearchOptions params;
    params.k = 10;
    params.nprobe = 32;

    std::atomic<bool> stop{false};
    std::thread writer([&] {
      Rng rng(47);
      std::vector<float> vec(dim);
      std::uint32_t id = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        for (auto& v : vec) v = static_cast<float>(rng.Gaussian()) * 8.0f;
        if (rng.UniformInt(2) == 0) {
          CheckOk(engine.Insert(vec.data(), nullptr), "engine Insert");
        } else if (!was_deleted[id]) {
          CheckOk(engine.Update(id, vec.data()), "engine Update");
        }
        id += 2;
        if (id >= pre_size) id = 1;
      }
    });
    std::size_t served = 0;
    WallTimer timer;
    for (std::size_t round = 0; round < 4; ++round) {
      std::vector<SearchRequest> requests(num_queries);
      for (std::size_t i = 0; i < num_queries; ++i) {
        requests[i].query = queries.data() + i * dim;
        requests[i].options = params;
        requests[i].options.seed = SearchEngine::QuerySeed(round, i);
      }
      std::vector<SearchResponse> responses;
      CheckOk(engine.SearchBatch(requests.data(), num_queries, &responses),
              "SearchBatch");
      served += num_queries;
    }
    const double seconds = timer.ElapsedSeconds();
    stop.store(true, std::memory_order_relaxed);
    writer.join();
    const EngineStatsSnapshot stats = engine.Stats();
    std::printf(",\n  {\"op\":\"serve_during_churn\",\"qps\":%.0f,"
                "\"mutations\":%llu,\"compactions\":%llu,"
                "\"tombstones_left\":%llu}",
                static_cast<double>(served) / std::max(seconds, 1e-9),
                static_cast<unsigned long long>(stats.inserts + stats.updates +
                                                stats.deletes),
                static_cast<unsigned long long>(stats.compactions),
                static_cast<unsigned long long>(stats.tombstones));
  }

  // --- Sharded mutation throughput: the same concurrent churn (4 writer
  // threads, mixed insert/update/delete) against 1 shard vs S shards. The
  // per-shard writer mutexes are the whole story: with one shard every
  // mutation serializes, with S shards writers collide only when their ids
  // hash to the same shard.
  const std::size_t max_shards = ParseShards(argc, argv, 4);
  for (const std::size_t shards :
       std::vector<std::size_t>{1, max_shards > 1 ? max_shards : 0}) {
    if (shards == 0) continue;
    ShardedConfig scfg;
    scfg.num_shards = shards;
    scfg.clustering = ShardClustering::kPerShard;
    scfg.ivf.num_lists = std::max<std::size_t>(1, 256 / shards);
    ShardedIndex sharded;
    CheckOk(sharded.Build(data, scfg), "sharded Build");
    EngineConfig config;
    config.compaction_tombstone_ratio = 0.2f;
    config.compaction_min_dead = 64;
    SearchEngine engine(std::move(sharded), config);

    const std::size_t writers = 4;
    const std::size_t ops_per_writer = base_n / 8;
    std::atomic<std::size_t> ops{0};
    std::vector<std::thread> writer_threads;
    WallTimer timer;
    for (std::size_t w = 0; w < writers; ++w) {
      writer_threads.emplace_back([&, w] {
        Rng rng(700 + w);
        std::vector<float> vec(dim);
        // Disjoint id slices per writer; deletes walk forward so an id is
        // deleted at most once.
        std::uint32_t owned = static_cast<std::uint32_t>(w);
        for (std::size_t op = 0; op < ops_per_writer; ++op) {
          const std::uint64_t dice = rng.UniformInt(3);
          if (dice == 0 && owned < base_n) {
            CheckOk(engine.Delete(owned), "sharded engine Delete");
            owned += static_cast<std::uint32_t>(writers);
          } else if (dice == 1 && owned < base_n) {
            for (auto& v : vec) v = static_cast<float>(rng.Gaussian()) * 8.0f;
            CheckOk(engine.Update(owned, vec.data()), "sharded engine Update");
          } else {
            for (auto& v : vec) v = static_cast<float>(rng.Gaussian()) * 8.0f;
            CheckOk(engine.Insert(vec.data(), nullptr),
                    "sharded engine Insert");
          }
          ops.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : writer_threads) t.join();
    const double seconds = timer.ElapsedSeconds();
    const EngineStatsSnapshot stats = engine.Stats();
    std::printf(",\n  {\"op\":\"sharded_churn\",\"shards\":%zu,\"writers\":%zu,"
                "\"ops\":%zu,\"ops_per_s\":%.0f,\"compactions\":%llu}",
                shards, writers, ops.load(),
                static_cast<double>(ops.load()) / std::max(seconds, 1e-9),
                static_cast<unsigned long long>(stats.compactions));
  }

  std::printf("\n]}\n");
  return 0;
}

}  // namespace bench
}  // namespace rabitq

int main(int argc, char** argv) { return rabitq::bench::Run(argc, argv); }
