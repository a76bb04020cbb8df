// Lifecycle tests for the mutable IVF+RaBitQ index: delete/update/compaction
// correctness cross-checked against brute force over the live set, recall
// parity between a mutated index and a fresh rebuild of the same live
// vectors, the amortized-O(1) single-vector append regression, and a
// multi-threaded churn stress (interleaved Search/Insert/Delete/Update plus
// background compaction through SearchEngine).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include "engine/search_engine.h"
#include "index/brute_force.h"
#include "index/ivf.h"
#include "linalg/vector_ops.h"
#include "util/prng.h"

namespace rabitq {
namespace {

Matrix ClusteredData(std::size_t n, std::size_t dim, std::size_t clusters,
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

IvfRabitqIndex BuildIndex(const Matrix& data, std::size_t num_lists) {
  IvfRabitqIndex index;
  IvfConfig ivf;
  ivf.num_lists = num_lists;
  EXPECT_TRUE(index.Build(data, ivf, RabitqConfig{}).ok());
  return index;
}

// Exact top-k over the rows of `data` whose id passes `alive`.
std::vector<Neighbor> BruteForceLive(const Matrix& data, const float* query,
                                     std::size_t k,
                                     const std::vector<bool>& alive) {
  TopKHeap heap(k);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    if (!alive[i]) continue;
    heap.Push(L2SqrDistance(data.Row(i), query, data.cols()),
              static_cast<std::uint32_t>(i));
  }
  return heap.ExtractSorted();
}

double RecallAgainst(const std::vector<Neighbor>& got,
                     const std::vector<Neighbor>& truth) {
  std::set<std::uint32_t> truth_ids;
  for (const Neighbor& n : truth) truth_ids.insert(n.second);
  std::size_t hit = 0;
  for (const Neighbor& n : got) hit += truth_ids.count(n.second);
  return truth.empty() ? 1.0
                       : static_cast<double>(hit) /
                             static_cast<double>(truth.size());
}

class LifecycleTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 2000;
  static constexpr std::size_t kDim = 32;
  static constexpr std::size_t kLists = 20;
  static constexpr std::size_t kNumQueries = 32;
  static constexpr std::size_t kK = 10;

  void SetUp() override {
    data_ = ClusteredData(kN, kDim, 10, 7);
    queries_ = ClusteredData(kNumQueries, kDim, 10, 8);
    params_.k = kK;
    params_.nprobe = kLists;  // full probe: isolates lifecycle effects
  }

  void RunEngineChurnStress(std::size_t num_shards);

  Matrix data_;
  Matrix queries_;
  SearchOptions params_;
};

TEST_F(LifecycleTest, DeleteHidesVectorImmediately) {
  IvfRabitqIndex index = BuildIndex(data_, kLists);
  ASSERT_EQ(index.live_size(), kN);

  // The vector nearest to itself is its own top-1; after Delete it vanishes.
  SearchRequest request{data_.Row(5), params_};
  request.options.seed = 1;
  SearchResponse out = index.Search(request);
  ASSERT_TRUE(out.ok());
  ASSERT_FALSE(out.neighbors.empty());
  EXPECT_EQ(out.neighbors[0].second, 5u);

  ASSERT_TRUE(index.Delete(5).ok());
  EXPECT_TRUE(index.IsDeleted(5));
  EXPECT_EQ(index.live_size(), kN - 1);
  EXPECT_EQ(index.num_tombstones(), 1u);

  out = index.Search(request);
  ASSERT_TRUE(out.ok());
  for (const Neighbor& n : out.neighbors) EXPECT_NE(n.second, 5u);

  // Double delete and out-of-range ids are rejected.
  EXPECT_EQ(index.Delete(5).code(), StatusCode::kNotFound);
  EXPECT_EQ(index.Delete(kN + 17).code(), StatusCode::kNotFound);
}

TEST_F(LifecycleTest, HalfDeletedMatchesBruteForceOverLiveSet) {
  IvfRabitqIndex index = BuildIndex(data_, kLists);
  std::vector<bool> alive(kN, true);
  for (std::uint32_t id = 0; id < kN; id += 2) {
    ASSERT_TRUE(index.Delete(id).ok());
    alive[id] = false;
  }
  ASSERT_EQ(index.live_size(), kN / 2);

  double recall_sum = 0.0;
  SearchOptions params = params_;
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    params.seed = 100 + q;
    const SearchResponse got = index.Search({queries_.Row(q), params});
    ASSERT_TRUE(got.ok());
    const auto truth = BruteForceLive(data_, queries_.Row(q), kK, alive);
    for (const Neighbor& n : got.neighbors) {
      EXPECT_TRUE(alive[n.second]) << "deleted id " << n.second << " returned";
    }
    recall_sum += RecallAgainst(got.neighbors, truth);
  }
  // Full probe + error-bound re-ranking is near-exact over the live set.
  EXPECT_GE(recall_sum / kNumQueries, 0.99);
}

TEST_F(LifecycleTest, SearchSkipsDeletedUnderAllRerankPolicies) {
  IvfRabitqIndex index = BuildIndex(data_, kLists);
  std::vector<bool> alive(kN, true);
  Rng pick(42);
  for (std::size_t i = 0; i < kN / 3; ++i) {
    const std::uint32_t id = static_cast<std::uint32_t>(pick.UniformInt(kN));
    if (!alive[id]) continue;
    ASSERT_TRUE(index.Delete(id).ok());
    alive[id] = false;
  }
  for (const RerankPolicy policy :
       {RerankPolicy::kErrorBound, RerankPolicy::kFixedCandidates,
        RerankPolicy::kNone}) {
    SearchOptions params = params_;
    params.policy = policy;
    for (std::size_t q = 0; q < 8; ++q) {
      params.seed = 7 + q;
      const SearchResponse got = index.Search({queries_.Row(q), params});
      ASSERT_TRUE(got.ok());
      ASSERT_FALSE(got.neighbors.empty());
      for (const Neighbor& n : got.neighbors) {
        EXPECT_TRUE(alive[n.second])
            << "policy " << static_cast<int>(policy) << " returned deleted id";
      }
    }
  }
}

TEST_F(LifecycleTest, UpdateRelocatesVectorKeepingItsId) {
  IvfRabitqIndex index = BuildIndex(data_, kLists);
  // Move id 10 far away from everything, beyond any existing cluster.
  std::vector<float> moved(kDim, 100.0f);
  ASSERT_TRUE(index.Update(10, moved.data()).ok());
  EXPECT_EQ(index.live_size(), kN);
  EXPECT_GE(index.num_tombstones(), 1u);
  EXPECT_FALSE(index.IsDeleted(10));

  // Searching the new location finds the id at ~zero distance...
  SearchOptions one = params_;
  one.k = 1;
  one.seed = 3;
  SearchResponse out = index.Search({moved.data(), one});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.neighbors.size(), 1u);
  EXPECT_EQ(out.neighbors[0].second, 10u);
  EXPECT_NEAR(out.neighbors[0].first, 0.0f, 1e-3f);

  // ...and the old location no longer returns it.
  SearchRequest old_location{data_.Row(10), params_};
  old_location.options.seed = 4;
  out = index.Search(old_location);
  ASSERT_TRUE(out.ok());
  for (const Neighbor& n : out.neighbors) EXPECT_NE(n.second, 10u);

  // Updating a deleted id is rejected.
  ASSERT_TRUE(index.Delete(11).ok());
  EXPECT_EQ(index.Update(11, moved.data()).code(), StatusCode::kNotFound);
}

TEST_F(LifecycleTest, CompactionDropsTombstonesAndPreservesResults) {
  IvfRabitqIndex index = BuildIndex(data_, kLists);
  std::vector<bool> alive(kN, true);
  for (std::uint32_t id = 0; id < kN; id += 2) {
    ASSERT_TRUE(index.Delete(id).ok());
    alive[id] = false;
  }

  std::vector<SearchRequest> requests(kNumQueries);
  std::vector<SearchResponse> before(kNumQueries);
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    requests[q] = {queries_.Row(q), params_};
    requests[q].options.seed = 500 + q;
    before[q] = index.Search(requests[q]);
    ASSERT_TRUE(before[q].ok());
  }

  ASSERT_TRUE(index.Compact().ok());
  EXPECT_EQ(index.num_tombstones(), 0u);
  EXPECT_EQ(index.live_size(), kN / 2);
  for (std::size_t l = 0; l < index.num_lists(); ++l) {
    EXPECT_EQ(index.list_tombstones(l), 0u);
    EXPECT_EQ(index.list_ids(l).size(), index.list_codes(l).size());
  }

  // Same seeds after compaction: the live candidate sequence is unchanged
  // (compaction preserves relative order), so results are bit-identical.
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    const SearchResponse after = index.Search(requests[q]);
    ASSERT_TRUE(after.ok());
    ASSERT_EQ(after.neighbors.size(), before[q].neighbors.size());
    for (std::size_t i = 0; i < after.neighbors.size(); ++i) {
      EXPECT_EQ(after.neighbors[i].second, before[q].neighbors[i].second);
      EXPECT_EQ(after.neighbors[i].first, before[q].neighbors[i].first);
    }
  }

  // A deleted vector stays findable-by-absence after its raw row is reused
  // as tombstone-free storage: deleted ids remain deleted.
  EXPECT_TRUE(index.IsDeleted(0));
}

// Acceptance criterion of the lifecycle tentpole: recall@10 of a 50%-deleted
// then compacted index matches a fresh rebuild over the same live vectors
// within 0.5 pt.
TEST_F(LifecycleTest, CompactedIndexMatchesFreshRebuildRecall) {
  IvfRabitqIndex mutated = BuildIndex(data_, kLists);
  std::vector<bool> alive(kN, true);
  Rng pick(1234);
  std::size_t deleted = 0;
  while (deleted < kN / 2) {
    const std::uint32_t id = static_cast<std::uint32_t>(pick.UniformInt(kN));
    if (!alive[id]) continue;
    ASSERT_TRUE(mutated.Delete(id).ok());
    alive[id] = false;
    ++deleted;
  }
  ASSERT_TRUE(mutated.Compact().ok());

  // Fresh index over the live vectors only; fresh id f maps to original id.
  Matrix live_data(kN / 2, kDim);
  std::vector<std::uint32_t> fresh_to_orig;
  for (std::size_t i = 0; i < kN; ++i) {
    if (!alive[i]) continue;
    std::copy_n(data_.Row(i), kDim, live_data.Row(fresh_to_orig.size()));
    fresh_to_orig.push_back(static_cast<std::uint32_t>(i));
  }
  IvfRabitqIndex fresh = BuildIndex(live_data, kLists);

  // Full probe + a conservative eps0: both searches re-rank essentially
  // every bound-plausible candidate, so any recall gap comes from the
  // lifecycle machinery (wrong tombstones, corrupted codes) rather than
  // from estimator tail noise -- which is what this criterion is about.
  SearchOptions params = params_;
  params.epsilon0_override = 2.5f;
  const std::size_t queries = kNumQueries;
  double recall_mutated = 0.0, recall_fresh = 0.0;
  for (std::size_t q = 0; q < queries; ++q) {
    const auto truth = BruteForceLive(data_, queries_.Row(q), kK, alive);
    params.seed = 900 + q;
    const SearchResponse got_mutated =
        mutated.Search({queries_.Row(q), params});
    SearchResponse got_fresh = fresh.Search({queries_.Row(q), params});
    ASSERT_TRUE(got_mutated.ok());
    ASSERT_TRUE(got_fresh.ok());
    for (Neighbor& n : got_fresh.neighbors) n.second = fresh_to_orig[n.second];
    recall_mutated += RecallAgainst(got_mutated.neighbors, truth);
    recall_fresh += RecallAgainst(got_fresh.neighbors, truth);
  }
  recall_mutated /= queries;
  recall_fresh /= queries;
  EXPECT_NEAR(recall_mutated, recall_fresh, 0.005)
      << "mutated=" << recall_mutated << " fresh=" << recall_fresh;
}

// The O(N^2)-append regression guard: 10k single-vector Adds must complete
// within a generous wall budget (chunked storage + incremental fast-scan
// repack make each one O(dim + B/4) amortized; the old full-matrix copy
// plus full-list repack took minutes at this scale).
TEST_F(LifecycleTest, TenThousandSingleInsertsStayCheap) {
  IvfRabitqIndex index = BuildIndex(ClusteredData(500, kDim, 10, 3), 16);
  const Matrix extra = ClusteredData(10000, kDim, 10, 4);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < extra.rows(); ++i) {
    std::uint32_t id = 0;
    ASSERT_TRUE(index.Add(extra.Row(i), &id).ok());
    ASSERT_EQ(id, 500 + i);
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(index.size(), 10500u);
  EXPECT_EQ(index.live_size(), 10500u);
  // Measured ~0.1 s on a dev box; 20 s keeps slow CI safe while still
  // failing hard on any quadratic regression.
  EXPECT_LT(seconds, 20.0);

  // Spot-check correctness: the last insert is its own nearest neighbor.
  SearchOptions one;
  one.k = 1;
  one.nprobe = index.num_lists();
  one.seed = 11;
  const SearchResponse out = index.Search({extra.Row(9999), one});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.neighbors.size(), 1u);
  EXPECT_EQ(out.neighbors[0].second, 10499u);
}

// Shard count for the sharded variants of the stress tests; the CI matrix
// sweeps it (SHARDS=1 and SHARDS=4).
std::size_t EnvShards(std::size_t fallback) {
  const char* value = std::getenv("SHARDS");
  if (value == nullptr) return fallback;
  const long parsed = std::atol(value);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

// Interleaved Search/Insert/Delete/Update from many threads through the
// engine, with an aggressive compaction trigger so background compactions
// overlap the churn. Asserts no failures, consistent final accounting
// (aggregated across shards), and post-quiesce searchability of the
// survivors. Runs both unsharded (num_shards == 1) and sharded, where
// mutators hash across shards and contend on different writer mutexes.
void LifecycleTest::RunEngineChurnStress(std::size_t num_shards) {
  EngineConfig config;
  config.num_threads = 4;
  config.compaction_tombstone_ratio = 0.10f;
  config.compaction_min_dead = 4;
  ShardedIndex sharded;
  ShardedConfig sharded_config;
  sharded_config.num_shards = num_shards;
  sharded_config.ivf.num_lists = kLists;
  ASSERT_TRUE(sharded.Build(data_, sharded_config).ok());
  SearchEngine engine(std::move(sharded), config);
  ASSERT_EQ(engine.num_shards(), num_shards);

  constexpr std::size_t kMutators = 2;
  constexpr std::size_t kSearchers = 3;
  constexpr std::size_t kOpsPerMutator = 300;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> searches{0};
  std::atomic<std::size_t> deletes_done{0}, updates_done{0}, inserts_done{0};

  std::vector<std::thread> searchers;
  for (std::size_t t = 0; t < kSearchers; ++t) {
    searchers.emplace_back([&, t] {
      std::size_t i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        SearchResponse r =
            engine.SubmitAsync({queries_.Row(i % kNumQueries), params_}).get();
        ASSERT_TRUE(r.status.ok()) << r.status.ToString();
        searches.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }

  // Mutator m owns ids congruent to m (mod kMutators) so two threads never
  // race to delete the same id; inserts create fresh ids owned by no one.
  std::vector<std::thread> mutators;
  for (std::size_t m = 0; m < kMutators; ++m) {
    mutators.emplace_back([&, m] {
      Rng rng(1000 + m);
      std::uint32_t next_owned = static_cast<std::uint32_t>(m);
      for (std::size_t op = 0; op < kOpsPerMutator; ++op) {
        const std::uint64_t dice = rng.UniformInt(3);
        if (dice == 0 && next_owned < kN) {
          ASSERT_TRUE(engine.Delete(next_owned).ok());
          deletes_done.fetch_add(1, std::memory_order_relaxed);
          next_owned += kMutators;
        } else if (dice == 1 && next_owned < kN) {
          std::vector<float> vec(kDim);
          for (auto& v : vec) v = static_cast<float>(rng.Gaussian()) * 8.0f;
          ASSERT_TRUE(engine.Update(next_owned, vec.data()).ok());
          updates_done.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::vector<float> vec(kDim);
          for (auto& v : vec) v = static_cast<float>(rng.Gaussian()) * 8.0f;
          ASSERT_TRUE(engine.Insert(vec.data()).ok());
          inserts_done.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : mutators) t.join();
  // Keep serving a little while after the churn, then quiesce. Deadline-
  // bounded so a searcher regression fails the count check instead of
  // hanging the test.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (searches.load(std::memory_order_relaxed) < 50 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : searchers) t.join();
  // The background compactor is a writer too: stop it, so the per-shard
  // reads below race with no commit (CompactNow still runs synchronously).
  engine.Drain();

  const EngineStatsSnapshot stats = engine.Stats();
  EXPECT_EQ(stats.inserts, inserts_done.load());
  EXPECT_EQ(stats.deletes, deletes_done.load());
  EXPECT_EQ(stats.updates, updates_done.load());
  EXPECT_EQ(stats.search_errors, 0u);
  EXPECT_EQ(stats.live_vectors,
            kN + inserts_done.load() - deletes_done.load());
  EXPECT_EQ(engine.size(), kN + inserts_done.load());
  EXPECT_EQ(engine.live_size(), kN + inserts_done.load() - deletes_done.load());

  // Lifecycle gauges must be exact AGGREGATES over the shards: writers are
  // quiesced, so summing per-shard accounting has to reproduce both the
  // engine stats and the global counts.
  const ShardedIndex& index = engine.index();
  ASSERT_EQ(index.num_shards(), num_shards);
  std::size_t shard_live = 0, shard_tombstones = 0, shard_ids = 0;
  for (std::size_t s = 0; s < index.num_shards(); ++s) {
    shard_live += index.shard(s).live_size();
    shard_tombstones += index.shard(s).num_tombstones();
    shard_ids += index.shard(s).size();
  }
  EXPECT_EQ(shard_live, stats.live_vectors);
  EXPECT_EQ(shard_tombstones, stats.tombstones);
  EXPECT_EQ(shard_ids, engine.size());
  EXPECT_EQ(stats.num_shards, num_shards);

  // Drain every remaining tombstone, then verify the index agrees with
  // itself: every live id is its own nearest neighbor at full probe.
  ASSERT_TRUE(engine.CompactNow().ok());
  const EngineStatsSnapshot after = engine.Stats();
  EXPECT_EQ(after.tombstones, 0u);
  for (std::size_t s = 0; s < index.num_shards(); ++s) {
    EXPECT_EQ(index.shard(s).num_tombstones(), 0u) << "shard " << s;
  }
  SearchOptions one = params_;
  one.k = 1;
  one.nprobe = index.num_lists();
  Rng rng(77);
  for (std::uint32_t id = 0; id < index.size(); ++id) {
    if (index.IsDeleted(id)) continue;
    if (rng.UniformInt(10) != 0) continue;  // sample 10% for speed
    one.seed = 5000 + id;
    const SearchResponse out = index.Search({index.vector(id), one});
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out.neighbors.size(), 1u);
    EXPECT_EQ(out.neighbors[0].second, id);
    EXPECT_NEAR(out.neighbors[0].first, 0.0f, 1e-3f);
  }
}

TEST_F(LifecycleTest, EngineChurnStress) { RunEngineChurnStress(1); }

TEST_F(LifecycleTest, EngineChurnStressSharded) {
  RunEngineChurnStress(EnvShards(4));
}

// Background compaction actually fires on its own when the tombstone ratio
// crosses the configured threshold.
TEST_F(LifecycleTest, BackgroundCompactionTriggers) {
  EngineConfig config;
  config.compaction_tombstone_ratio = 0.20f;
  config.compaction_min_dead = 8;
  SearchEngine engine(BuildIndex(data_, kLists), config);

  for (std::uint32_t id = 0; id < kN / 2; ++id) {
    ASSERT_TRUE(engine.Delete(id).ok());
  }
  // The compactor runs asynchronously; give it a bounded grace period.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.Stats().compactions == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const EngineStatsSnapshot stats = engine.Stats();
  EXPECT_GT(stats.compactions, 0u) << "background compactor never fired";
  // Whatever the compactor already drained, accounting must balance.
  EXPECT_EQ(stats.live_vectors, kN / 2);
  EXPECT_EQ(stats.deletes, kN / 2);
}

}  // namespace
}  // namespace rabitq
