// Scatter-gather sharding tests: bit-identical result parity between a
// ShardedIndex (any shard count, shared clustering) and the single-shard
// IvfRabitqIndex, exact-mode agreement with the brute-force oracle under
// deletes and duplicate-distance ties, engine SearchBatch parity, round-
// robin id placement, and the sharded snapshot (manifest + per-shard blob)
// round trip including single-file v1/v2 fallback. The shard count of the
// "sharded" variants honors the SHARDS env var so the CI matrix can sweep
// it (SHARDS=1 and SHARDS=4).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "engine/search_engine.h"
#include "index/brute_force.h"
#include "index/ivf.h"
#include "index/sharded.h"
#include "linalg/vector_ops.h"
#include "util/prng.h"

namespace rabitq {
namespace {

std::size_t EnvShards(std::size_t fallback) {
  const char* value = std::getenv("SHARDS");
  if (value == nullptr) return fallback;
  const long parsed = std::atol(value);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

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

// Data with exact duplicate rows, so distance ties are guaranteed: the last
// `dupes` rows copy the first `dupes` rows verbatim.
Matrix DataWithDuplicates(std::size_t n, std::size_t dim, std::size_t dupes,
                          std::uint64_t seed) {
  Matrix data = ClusteredData(n, dim, 10, seed);
  for (std::size_t i = 0; i < dupes; ++i) {
    std::copy_n(data.Row(i), dim, data.Row(n - dupes + i));
  }
  return data;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& a,
                         const std::vector<Neighbor>& b,
                         const char* what = "") {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].second, b[i].second) << what << " rank " << i;
    EXPECT_EQ(a[i].first, b[i].first) << what << " rank " << i;
  }
}

// Every IvfSearchStats field, the double sums bit for bit.
void ExpectSameStats(const IvfSearchStats& a, const IvfSearchStats& b,
                     const char* what) {
  EXPECT_EQ(a.codes_estimated, b.codes_estimated) << what;
  EXPECT_EQ(a.candidates_reranked, b.candidates_reranked) << what;
  EXPECT_EQ(a.lists_probed, b.lists_probed) << what;
  EXPECT_EQ(a.codes_filtered, b.codes_filtered) << what;
  EXPECT_EQ(a.codes_refined, b.codes_refined) << what;
  EXPECT_EQ(a.rerank_bound_violations, b.rerank_bound_violations) << what;
  EXPECT_EQ(a.rerank_health_samples, b.rerank_health_samples) << what;
  EXPECT_EQ(a.rerank_signed_err_sum, b.rerank_signed_err_sum) << what;
  EXPECT_EQ(a.rerank_tightness_sum, b.rerank_tightness_sum) << what;
}

// The whole response of a complete fan-out over `num_shards` shards: the
// same status, neighbors and stats as `want`, no shard lost.
void ExpectSameResponse(const SearchResponse& got, const SearchResponse& want,
                        std::size_t num_shards, const char* what) {
  EXPECT_EQ(got.status.code(), want.status.code()) << what;
  ExpectSameNeighbors(got.neighbors, want.neighbors, what);
  ExpectSameStats(got.stats, want.stats, what);
  EXPECT_FALSE(got.partial) << what;
  EXPECT_EQ(got.shards_ok, num_shards) << what;
  EXPECT_EQ(got.shards_failed, 0u) << what;
}

// Exact top-k over the live rows, with the library's (dist, id) tie order.
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

class ShardedTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 700;
  static constexpr std::size_t kDim = 24;
  static constexpr std::size_t kLists = 12;
  static constexpr std::size_t kDupes = 60;
  static constexpr std::size_t kNumQueries = 16;

  void SetUp() override {
    data_ = DataWithDuplicates(kN, kDim, kDupes, 31);
    queries_ = ClusteredData(kNumQueries, kDim, 10, 32);
  }

  ShardedIndex BuildSharded(std::size_t num_shards,
                            ShardClustering clustering,
                            const Matrix& data) {
    ShardedIndex index;
    ShardedConfig config;
    config.num_shards = num_shards;
    config.clustering = clustering;
    config.ivf.num_lists = kLists;
    EXPECT_TRUE(index.Build(data, config).ok());
    return index;
  }

  IvfRabitqIndex BuildSingle(const Matrix& data) {
    IvfRabitqIndex index;
    IvfConfig ivf;
    ivf.num_lists = kLists;
    EXPECT_TRUE(index.Build(data, ivf, RabitqConfig{}).ok());
    return index;
  }

  Matrix data_;
  Matrix queries_;
};

// The tentpole acceptance criterion: under shared clustering, scatter-gather
// search over any shard count returns BIT-IDENTICAL results to the plain
// single-shard index -- same ids, same distances -- for every re-rank
// policy, duplicate-distance ties included.
TEST_F(ShardedTest, MatchesSingleShardBitIdenticallyAllPolicies) {
  const IvfRabitqIndex single = BuildSingle(data_);
  std::vector<SearchOptions> param_sets;
  for (const RerankPolicy policy :
       {RerankPolicy::kErrorBound, RerankPolicy::kFixedCandidates,
        RerankPolicy::kNone}) {
    SearchOptions params;
    params.k = 10;
    params.nprobe = 6;
    params.policy = policy;
    params.rerank_candidates = 40;  // < candidate pool: budget split matters
    param_sets.push_back(params);
  }

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{3}, EnvShards(4)}) {
    const ShardedIndex sharded =
        BuildSharded(shards, ShardClustering::kShared, data_);
    ASSERT_EQ(sharded.num_shards(), shards);
    ASSERT_EQ(sharded.size(), single.size());
    for (const SearchOptions& params : param_sets) {
      for (std::size_t q = 0; q < kNumQueries; ++q) {
        SearchRequest request{queries_.Row(q), params};
        request.options.seed = 9000 + q;
        const SearchResponse want = single.Search(request);
        const SearchResponse got = sharded.Search(request);
        ASSERT_TRUE(want.ok());
        ASSERT_TRUE(got.ok());
        ExpectSameNeighbors(want.neighbors, got.neighbors, "sharded-vs-single");
      }
    }
  }
}

// Property test: random shard counts and random deletes (mirrored into the
// single-shard index), exhaustive settings -> sharded results equal BOTH
// the single-shard index and the brute-force oracle over the live set,
// under the exact policies; kNone additionally matches single-shard and
// never returns a deleted id.
TEST_F(ShardedTest, DeletesAndTiesMatchSingleShardAndOracle) {
  Rng pick(77);
  for (const std::size_t shards :
       {std::size_t{2}, EnvShards(4), std::size_t{5}}) {
    IvfRabitqIndex single = BuildSingle(data_);
    ShardedIndex sharded = BuildSharded(shards, ShardClustering::kShared, data_);
    std::vector<bool> alive(kN, true);
    for (std::size_t i = 0; i < kN / 3; ++i) {
      const std::uint32_t id = static_cast<std::uint32_t>(pick.UniformInt(kN));
      if (!alive[id]) continue;
      ASSERT_TRUE(single.Delete(id).ok());
      ASSERT_TRUE(sharded.Delete(id).ok());
      alive[id] = false;
    }
    ASSERT_EQ(sharded.live_size(), single.live_size());
    ASSERT_EQ(sharded.num_tombstones(), single.num_tombstones());

    // Exhaustive settings: full probe, never prune (huge eps0 override) /
    // re-rank everything -- the result must be the exact live top-k.
    SearchOptions bound;
    bound.k = 10;
    bound.nprobe = kLists;
    bound.epsilon0_override = 50.0f;
    SearchOptions fixed = bound;
    fixed.policy = RerankPolicy::kFixedCandidates;
    fixed.rerank_candidates = kN;
    SearchOptions none = bound;
    none.policy = RerankPolicy::kNone;

    for (std::size_t q = 0; q < kNumQueries; ++q) {
      bound.seed = fixed.seed = none.seed = 400 + q;
      const auto oracle = BruteForceLive(data_, queries_.Row(q), 10, alive);
      for (const SearchOptions* params : {&bound, &fixed}) {
        const SearchResponse got = sharded.Search({queries_.Row(q), *params});
        const SearchResponse want = single.Search({queries_.Row(q), *params});
        ASSERT_TRUE(got.ok());
        ASSERT_TRUE(want.ok());
        ExpectSameNeighbors(want.neighbors, got.neighbors,
                            "exhaustive sharded-vs-single");
        ExpectSameNeighbors(oracle, got.neighbors,
                            "exhaustive sharded-vs-oracle");
      }
      const SearchResponse got = sharded.Search({queries_.Row(q), none});
      const SearchResponse want = single.Search({queries_.Row(q), none});
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(want.ok());
      ExpectSameNeighbors(want.neighbors, got.neighbors,
                          "kNone sharded-vs-single");
      for (const Neighbor& nb : got.neighbors) {
        EXPECT_TRUE(alive[nb.second]) << "deleted id returned";
      }
    }
  }
}

// Independent per-shard clustering cannot be bit-identical to the single
// index (different centroids), but exhaustive exact re-ranking still has to
// reproduce the oracle exactly.
TEST_F(ShardedTest, PerShardClusteringExhaustiveMatchesOracle) {
  const ShardedIndex sharded =
      BuildSharded(EnvShards(4), ShardClustering::kPerShard, data_);
  std::vector<bool> alive(kN, true);
  SearchOptions params;
  params.k = 10;
  params.nprobe = kLists;
  params.epsilon0_override = 50.0f;
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    const auto oracle = BruteForceLive(data_, queries_.Row(q), 10, alive);
    params.seed = 600 + q;
    const SearchResponse got = sharded.Search({queries_.Row(q), params});
    ASSERT_TRUE(got.ok());
    ExpectSameNeighbors(oracle, got.neighbors, "per-shard exhaustive");
  }
}

// Engine parity: SearchBatch, Search and SubmitAsync over a sharded engine
// return the whole response of the sequential ShardedIndex::Search at the
// same seeds (status, neighbors, stats, shard tallies), the neighbors are
// (under shared clustering) those of the single-shard sequential reference,
// and the engine's work counters are the sums over its responses.
TEST_F(ShardedTest, EngineSearchBatchMatchesSequential) {
  constexpr std::uint64_t kSeedBase = 121;
  const IvfRabitqIndex single = BuildSingle(data_);
  const std::size_t num_shards = EnvShards(4);
  ShardedIndex sharded =
      BuildSharded(num_shards, ShardClustering::kShared, data_);

  SearchOptions params;
  params.k = 10;
  params.nprobe = 6;

  std::vector<SearchRequest> requests(kNumQueries);
  std::vector<SearchResponse> reference(kNumQueries);
  for (std::size_t i = 0; i < kNumQueries; ++i) {
    requests[i] = {queries_.Row(i), params};
    requests[i].options.seed = SearchEngine::QuerySeed(kSeedBase, i);
    reference[i] = sharded.Search(requests[i]);
    ASSERT_TRUE(reference[i].ok());
    EXPECT_FALSE(reference[i].partial);
    EXPECT_EQ(reference[i].shards_ok, num_shards);
    EXPECT_EQ(reference[i].shards_failed, 0u);
  }

  EngineConfig config;
  config.num_threads = 4;
  SearchEngine engine(std::move(sharded), config);
  std::vector<SearchResponse> results;
  ASSERT_TRUE(engine.SearchBatch(requests.data(), kNumQueries, &results).ok());
  ASSERT_EQ(results.size(), kNumQueries);
  IvfSearchStats served;  // summed over every response the engine returned
  for (std::size_t i = 0; i < kNumQueries; ++i) {
    ExpectSameResponse(results[i], reference[i], num_shards,
                       "batch-vs-sequential");
    const SearchResponse single_ref = single.Search(requests[i]);
    ASSERT_TRUE(single_ref.ok());
    ExpectSameNeighbors(results[i].neighbors, single_ref.neighbors,
                        "engine-vs-single-shard");
    served += results[i].stats;
  }
  EXPECT_GT(served.codes_estimated, 0u);

  // Single-query Search and the async path with explicit seeds agree too.
  for (std::size_t i = 0; i < kNumQueries; ++i) {
    const SearchResponse sync = engine.Search(requests[i]);
    ExpectSameResponse(sync, reference[i], num_shards, "search-vs-sequential");
    served += sync.stats;
    const SearchResponse async = engine.SubmitAsync(requests[i]).get();
    ExpectSameResponse(async, reference[i], num_shards, "async-vs-sequential");
    served += async.stats;
  }

  const EngineStatsSnapshot stats = engine.Stats();
  EXPECT_EQ(stats.queries, 3 * kNumQueries);
  EXPECT_EQ(stats.codes_estimated, served.codes_estimated);
  EXPECT_EQ(stats.candidates_reranked, served.candidates_reranked);
  EXPECT_EQ(stats.lists_probed, served.lists_probed);
  EXPECT_EQ(stats.codes_filtered, served.codes_filtered);
  EXPECT_EQ(stats.codes_refined, served.codes_refined);
}

// Round-robin id placement and the mutation surface: ids hash to id % S,
// Add assigns dense global ids, Update keeps id and shard, Delete/Update on
// missing ids fail with NotFound.
TEST_F(ShardedTest, IdPlacementAndMutations) {
  const std::size_t S = 3;
  ShardedIndex index = BuildSharded(S, ShardClustering::kShared, data_);
  for (const std::uint32_t id : {0u, 1u, 2u, 3u, 100u, 699u}) {
    std::uint32_t shard = 0;
    ASSERT_TRUE(index.TryShardOf(id, &shard));
    EXPECT_EQ(shard, id % S);
  }
  std::uint32_t shard = 0;
  EXPECT_FALSE(index.TryShardOf(static_cast<std::uint32_t>(kN), &shard));

  std::vector<float> vec(kDim, 42.0f);
  std::uint32_t id = 0;
  ASSERT_TRUE(index.Add(vec.data(), &id).ok());
  EXPECT_EQ(id, kN);
  ASSERT_TRUE(index.TryShardOf(id, &shard));
  EXPECT_EQ(shard, id % S);
  EXPECT_FALSE(index.IsDeleted(id));
  EXPECT_EQ(index.size(), kN + 1);

  // The fresh vector is findable at ~zero distance, under its global id.
  SearchOptions one;
  one.k = 1;
  one.nprobe = kLists;
  one.seed = 5;
  SearchResponse out = index.Search({vec.data(), one});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.neighbors.size(), 1u);
  EXPECT_EQ(out.neighbors[0].second, id);
  EXPECT_NEAR(out.neighbors[0].first, 0.0f, 1e-4f);

  // Update keeps id and shard; the new location wins, the old one loses.
  std::vector<float> moved(kDim, -37.0f);
  ASSERT_TRUE(index.Update(id, moved.data()).ok());
  std::uint32_t shard_after = 0;
  ASSERT_TRUE(index.TryShardOf(id, &shard_after));
  EXPECT_EQ(shard_after, shard);
  one.seed = 6;
  out = index.Search({moved.data(), one});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.neighbors.size(), 1u);
  EXPECT_EQ(out.neighbors[0].second, id);

  ASSERT_TRUE(index.Delete(id).ok());
  EXPECT_TRUE(index.IsDeleted(id));
  EXPECT_EQ(index.Delete(id).code(), StatusCode::kNotFound);
  EXPECT_EQ(index.Update(id, vec.data()).code(), StatusCode::kNotFound);
  EXPECT_EQ(index.Delete(kN + 100).code(), StatusCode::kNotFound);

  // Compaction across shards drains the tombstones.
  ASSERT_TRUE(index.Compact().ok());
  EXPECT_EQ(index.num_tombstones(), 0u);

  // k == 0 is rejected for every policy (including kFixedCandidates, whose
  // shard pass internally rewrites k).
  for (const RerankPolicy policy :
       {RerankPolicy::kErrorBound, RerankPolicy::kFixedCandidates,
        RerankPolicy::kNone}) {
    SearchOptions zero;
    zero.k = 0;
    zero.policy = policy;
    zero.seed = 1;
    EXPECT_FALSE(index.Search({vec.data(), zero}).ok());
  }
}

TEST_F(ShardedTest, BuildRejectsBadConfigs) {
  ShardedIndex index;
  ShardedConfig config;
  config.num_shards = 0;
  EXPECT_FALSE(index.Build(data_, config).ok());
  config.num_shards = kN + 1;  // more shards than vectors
  EXPECT_FALSE(index.Build(data_, config).ok());
  config.num_shards = ShardedIndex::kMaxShards + 1;
  EXPECT_FALSE(index.Build(data_, config).ok());
}

// Sharded snapshot round trip: mutate (deletes + updates + adds), save to a
// manifest + per-shard blobs, reload, and require bit-identical results and
// accounting. Also: a single-FILE v2 snapshot loads into a 1-shard
// configuration through the same entry point.
TEST_F(ShardedTest, ShardedSnapshotRoundTripsBitIdentically) {
  const std::string dir = ::testing::TempDir() + "/sharded_snapshot";
  std::filesystem::remove_all(dir);

  ShardedIndex index = BuildSharded(3, ShardClustering::kShared, data_);
  Rng rng(5);
  std::vector<float> vec(kDim);
  for (std::uint32_t id = 0; id < kN; id += 7) {
    ASSERT_TRUE(index.Delete(id).ok());
  }
  for (std::uint32_t id = 1; id < kN; id += 97) {
    if (id % 7 == 0) continue;  // deleted above
    for (auto& v : vec) v = static_cast<float>(rng.Gaussian()) * 2.0f;
    ASSERT_TRUE(index.Update(id, vec.data()).ok());
  }
  for (int i = 0; i < 15; ++i) {
    for (auto& v : vec) v = static_cast<float>(rng.Gaussian());
    ASSERT_TRUE(index.Add(vec.data()).ok());
  }
  ASSERT_GT(index.num_tombstones(), 0u);

  SearchOptions params;
  params.k = 10;
  params.nprobe = kLists;
  std::vector<SearchRequest> requests(kNumQueries);
  std::vector<SearchResponse> before(kNumQueries);
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    requests[q] = {queries_.Row(q), params};
    requests[q].options.seed = 800 + q;
    before[q] = index.Search(requests[q]);
    ASSERT_TRUE(before[q].ok());
  }

  ASSERT_TRUE(index.Save(dir).ok());
  ASSERT_TRUE(std::filesystem::exists(dir + "/MANIFEST"));
  ASSERT_TRUE(std::filesystem::exists(dir + "/shard_0000.rbq"));
  ASSERT_TRUE(std::filesystem::exists(dir + "/shard_0002.rbq"));

  ShardedIndex loaded;
  ASSERT_TRUE(loaded.Load(dir).ok());
  EXPECT_EQ(loaded.num_shards(), 3u);
  EXPECT_EQ(loaded.size(), index.size());
  EXPECT_EQ(loaded.live_size(), index.live_size());
  EXPECT_EQ(loaded.num_tombstones(), index.num_tombstones());
  for (std::uint32_t id = 0; id < index.size(); ++id) {
    EXPECT_EQ(loaded.IsDeleted(id), index.IsDeleted(id)) << "id " << id;
  }
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    const SearchResponse after = loaded.Search(requests[q]);
    ASSERT_TRUE(after.ok());
    ExpectSameNeighbors(before[q].neighbors, after.neighbors,
                        "snapshot round trip");
  }

  // The reloaded index keeps mutating: compaction drains the restored
  // tombstones without changing results.
  ASSERT_TRUE(loaded.Compact().ok());
  EXPECT_EQ(loaded.num_tombstones(), 0u);
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    const SearchResponse after = loaded.Search(requests[q]);
    ASSERT_TRUE(after.ok());
    ExpectSameNeighbors(before[q].neighbors, after.neighbors,
                        "post-compaction");
  }
  std::filesystem::remove_all(dir);
}

TEST_F(ShardedTest, SingleFileSnapshotLoadsAsOneShard) {
  const std::string path = ::testing::TempDir() + "/single_file.rbq";
  IvfRabitqIndex single = BuildSingle(data_);
  ASSERT_TRUE(single.Save(path).ok());

  ShardedIndex loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.num_shards(), 1u);
  EXPECT_EQ(loaded.size(), kN);

  SearchOptions params;
  params.k = 10;
  params.nprobe = 6;
  for (std::size_t q = 0; q < 8; ++q) {
    params.seed = 70 + q;
    const SearchResponse want = single.Search({queries_.Row(q), params});
    const SearchResponse got = loaded.Search({queries_.Row(q), params});
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ExpectSameNeighbors(want.neighbors, got.neighbors, "single-file fallback");
  }
  std::remove(path.c_str());
}

// FromSingle wraps a built monolith index without disturbing it: 1-shard
// scatter-gather equals the wrapped index's own results.
TEST_F(ShardedTest, FromSingleIsTransparent) {
  IvfRabitqIndex single = BuildSingle(data_);
  SearchOptions params;
  params.k = 10;
  params.nprobe = 6;
  std::vector<SearchRequest> requests(8);
  std::vector<SearchResponse> want(8);
  for (std::size_t q = 0; q < 8; ++q) {
    requests[q] = {queries_.Row(q), params};
    requests[q].options.seed = 50 + q;
    want[q] = single.Search(requests[q]);
    ASSERT_TRUE(want[q].ok());
  }
  const ShardedIndex wrapped = ShardedIndex::FromSingle(std::move(single));
  EXPECT_EQ(wrapped.num_shards(), 1u);
  EXPECT_EQ(wrapped.size(), kN);
  for (std::size_t q = 0; q < 8; ++q) {
    const SearchResponse got = wrapped.Search(requests[q]);
    ASSERT_TRUE(got.ok());
    ExpectSameNeighbors(want[q].neighbors, got.neighbors, "FromSingle");
  }
}

}  // namespace
}  // namespace rabitq
