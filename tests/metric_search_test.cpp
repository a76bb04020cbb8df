// The Metric seam, end to end: inner-product and cosine search.
//   * Exhaustive exact-mode search (kErrorBound and kFixedCandidates, full
//     probe, never-prune eps0) is element-identical to the brute-force
//     oracle under both new metrics -- unfiltered, filtered (allow-bitmap
//     pushdown), and with duplicate rows forcing score ties (the per-code
//     replay of the estimate-only policies per metric lives in
//     multibit_test);
//   * the metric survives the v3 single-file snapshot and the v2 sharded
//     MANIFEST round trip, with post-load search bit-identical to pre-save;
//   * sharded scatter-gather stays bit-identical to single-shard per metric;
//   * the engine serves non-L2 metrics through SearchBatch, including the
//     per-query zero-norm cosine failure;
//   * cosine ingest/search rejects zero-norm vectors and queries;
//   * eval ground truth records its metric and refuses a mismatch.
// The engine/sharded variants honor the METRIC env var ("l2", "ip",
// "cosine") so the CI matrix can sweep the serving metric, and every index
// built here honors the BITS env var (1/2/4/8 bits per dimension) so the
// same matrix sweeps the multi-bit code path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "engine/search_engine.h"
#include "eval/ground_truth.h"
#include "index/brute_force.h"
#include "index/ivf.h"
#include "index/sharded.h"
#include "linalg/vector_ops.h"
#include "util/prng.h"

namespace rabitq {
namespace {

Metric EnvMetric(Metric fallback) {
  const char* value = std::getenv("METRIC");
  Metric metric = fallback;
  if (value != nullptr && !ParseMetricName(value, &metric)) return fallback;
  return metric;
}

// Code width for every index built in this file; the CI matrix sets BITS to
// sweep the multi-bit quantizer through the whole metric surface.
std::size_t EnvBits() {
  const char* value = std::getenv("BITS");
  if (value == nullptr) return 1;
  const int bits = std::atoi(value);
  return (bits == 1 || bits == 2 || bits == 4 || bits == 8)
             ? static_cast<std::size_t>(bits)
             : 1;
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

// The last `dupes` rows copy the first `dupes` rows verbatim, so every
// metric sees exactly-equal score ties that must resolve by id.
Matrix DataWithDuplicates(std::size_t n, std::size_t dim, std::size_t dupes,
                          std::uint64_t seed) {
  Matrix data = ClusteredData(n, dim, 10, seed);
  for (std::size_t i = 0; i < dupes; ++i) {
    std::copy_n(data.Row(i), dim, data.Row(n - dupes + i));
  }
  return data;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& want,
                         const std::vector<Neighbor>& got,
                         const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].second, got[i].second) << label << " pos " << i;
    EXPECT_EQ(want[i].first, got[i].first) << label << " pos " << i;
  }
}

// Brute-force oracle over an allowed subset (all rows when mask is empty).
std::vector<Neighbor> OracleAllowed(const Matrix& data, const float* query,
                                    std::size_t k, Metric metric,
                                    const std::vector<bool>& allowed) {
  const std::vector<Neighbor> full =
      BruteForceSearch(data, query, data.rows(), metric);
  std::vector<Neighbor> out;
  for (const Neighbor& nb : full) {
    if (allowed.empty() || allowed[nb.second]) out.push_back(nb);
    if (out.size() == k) break;
  }
  return out;
}

class MetricSearchTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 1200;
  static constexpr std::size_t kDim = 24;
  static constexpr std::size_t kLists = 12;
  static constexpr std::size_t kNumQueries = 8;
  static constexpr std::size_t kK = 10;

  void SetUp() override {
    data_ = DataWithDuplicates(kN, kDim, 6, 321);
    queries_ = ClusteredData(kNumQueries, kDim, 10, 322);
  }

  IvfRabitqIndex BuildSingle(Metric metric) const {
    IvfRabitqIndex index;
    IvfConfig ivf;
    ivf.num_lists = kLists;
    ivf.metric = metric;
    RabitqConfig rabitq;
    rabitq.bits_per_dim = EnvBits();
    EXPECT_TRUE(index.Build(data_, ivf, rabitq).ok());
    return index;
  }

  ShardedIndex BuildSharded(Metric metric, std::size_t shards,
                            ShardClustering clustering) const {
    ShardedIndex index;
    ShardedConfig config;
    config.num_shards = shards;
    config.clustering = clustering;
    config.ivf.num_lists = kLists;
    config.ivf.metric = metric;
    config.rabitq.bits_per_dim = EnvBits();
    EXPECT_TRUE(index.Build(data_, config).ok());
    return index;
  }

  // Exhaustive exact settings: full probe, never prune.
  static SearchOptions ExhaustiveParams(RerankPolicy policy) {
    SearchOptions params;
    params.k = kK;
    params.nprobe = kLists;
    params.epsilon0_override = 50.0f;
    params.policy = policy;
    params.rerank_candidates = kN;
    return params;
  }

  Matrix data_;
  Matrix queries_;
};

// The tentpole acceptance criterion: for each non-L2 metric, exhaustive
// kErrorBound and kFixedCandidates search returns exactly the brute-force
// oracle's (key, id) list -- duplicate-score ties included.
TEST_F(MetricSearchTest, ExhaustiveSearchMatchesOracle) {
  for (const Metric metric : {Metric::kInnerProduct, Metric::kCosine}) {
    const IvfRabitqIndex index = BuildSingle(metric);
    ASSERT_EQ(index.metric(), metric);
    for (std::size_t q = 0; q < kNumQueries; ++q) {
      const std::vector<Neighbor> oracle =
          OracleAllowed(data_, queries_.Row(q), kK, metric, {});
      for (const RerankPolicy policy :
           {RerankPolicy::kErrorBound, RerankPolicy::kFixedCandidates}) {
        SearchOptions params = ExhaustiveParams(policy);
        params.seed = 700 + q;
        const SearchResponse got = index.Search({queries_.Row(q), params});
        ASSERT_TRUE(got.ok());
        ExpectSameNeighbors(oracle, got.neighbors,
                            std::string(MetricName(metric)) + " q" +
                                std::to_string(q));
      }
    }
  }
}

// Filtered search under both new metrics: the allow-bitmap pushdown returns
// exactly the oracle over the allowed subset.
TEST_F(MetricSearchTest, FilteredSearchMatchesOracleOverAllowedSubset) {
  Rng pick(55);
  std::vector<bool> allowed(kN, false);
  std::vector<std::uint64_t> bits((kN + 63) / 64, 0);
  for (std::size_t i = 0; i < kN; ++i) {
    if (pick.UniformInt(3) != 0) {  // ~2/3 allowed
      allowed[i] = true;
      bits[i / 64] |= std::uint64_t{1} << (i % 64);
    }
  }
  for (const Metric metric : {Metric::kInnerProduct, Metric::kCosine}) {
    const IvfRabitqIndex index = BuildSingle(metric);
    for (std::size_t q = 0; q < kNumQueries; ++q) {
      const std::vector<Neighbor> oracle =
          OracleAllowed(data_, queries_.Row(q), kK, metric, allowed);
      SearchOptions params = ExhaustiveParams(RerankPolicy::kErrorBound);
      params.filter = IdFilter::AllowBitmap(bits.data(), kN);
      params.seed = 800 + q;
      const SearchResponse got = index.Search({queries_.Row(q), params});
      ASSERT_TRUE(got.ok());
      for (const Neighbor& nb : got.neighbors) {
        ASSERT_TRUE(allowed[nb.second]) << "filtered id returned";
      }
      ExpectSameNeighbors(oracle, got.neighbors,
                          std::string("filtered ") + MetricName(metric));
    }
  }
}

// Sharded scatter-gather under shared clustering stays bit-identical to the
// single-shard index for every metric (honors the SHARDS-style METRIC env).
TEST_F(MetricSearchTest, ShardedMatchesSingleShardPerMetric) {
  for (const Metric metric :
       {EnvMetric(Metric::kInnerProduct), Metric::kCosine}) {
    const IvfRabitqIndex single = BuildSingle(metric);
    const ShardedIndex sharded =
        BuildSharded(metric, 3, ShardClustering::kShared);
    ASSERT_EQ(sharded.metric(), metric);
    for (const RerankPolicy policy :
         {RerankPolicy::kErrorBound, RerankPolicy::kFixedCandidates,
          RerankPolicy::kNone}) {
      SearchOptions params;
      params.k = kK;
      params.nprobe = 6;
      params.policy = policy;
      params.rerank_candidates = 40;
      if (policy == RerankPolicy::kErrorBound) {
        // kErrorBound parity is conditional on no eps0 bound violation at
        // the k-th boundary (see sharded.h) -- shards prune against weaker
        // per-shard thresholds, so a violated bound admits a candidate the
        // single-shard scan pruned. Widen eps0 to make the bound safe; the
        // partial probe and the pruning path are still exercised. At
        // BITS=8 the data-side half-width is so narrow that the query's own
        // B_q = 4 rounding (which Eq. 16 does not cover) dominates, and
        // eps0 = 8 still let one bound slip under IP and L2.
        params.epsilon0_override = 24.0f;
      }
      for (std::size_t q = 0; q < kNumQueries; ++q) {
        params.seed = 1000 + q;
        const SearchResponse want = single.Search({queries_.Row(q), params});
        const SearchResponse got = sharded.Search({queries_.Row(q), params});
        ASSERT_TRUE(want.ok());
        ASSERT_TRUE(got.ok());
        ExpectSameNeighbors(
            want.neighbors, got.neighbors,
            std::string("sharded ") + MetricName(metric) + " policy " +
                std::to_string(static_cast<int>(policy)) + " q" +
                std::to_string(q));
      }
    }
  }
}

// Per-shard clustering cannot be bit-identical to single-shard, but
// exhaustive exact re-ranking still reproduces the oracle under any metric.
TEST_F(MetricSearchTest, PerShardClusteringExhaustiveMatchesOracle) {
  const Metric metric = EnvMetric(Metric::kCosine);
  const ShardedIndex sharded =
      BuildSharded(metric, 4, ShardClustering::kPerShard);
  SearchOptions params = ExhaustiveParams(RerankPolicy::kErrorBound);
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    const std::vector<Neighbor> oracle =
        OracleAllowed(data_, queries_.Row(q), kK, metric, {});
    params.seed = 1100 + q;
    const SearchResponse got = sharded.Search({queries_.Row(q), params});
    ASSERT_TRUE(got.ok());
    ExpectSameNeighbors(oracle, got.neighbors, "per-shard exhaustive");
  }
}

// v3 single-file snapshot: the metric round-trips and post-load search is
// bit-identical to pre-save.
TEST_F(MetricSearchTest, SnapshotRoundTripsMetric) {
  for (const Metric metric : {Metric::kInnerProduct, Metric::kCosine}) {
    const std::string path = ::testing::TempDir() + "/metric_" +
                             MetricName(metric) + ".rbq";
    const IvfRabitqIndex index = BuildSingle(metric);
    ASSERT_TRUE(index.Save(path).ok());
    IvfRabitqIndex loaded;
    ASSERT_TRUE(loaded.Load(path).ok());
    EXPECT_EQ(loaded.metric(), metric);
    SearchOptions params = ExhaustiveParams(RerankPolicy::kErrorBound);
    for (std::size_t q = 0; q < kNumQueries; ++q) {
      params.seed = 1200 + q;
      const SearchResponse want = index.Search({queries_.Row(q), params});
      const SearchResponse got = loaded.Search({queries_.Row(q), params});
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok());
      ExpectSameNeighbors(want.neighbors, got.neighbors, "snapshot round trip");
    }
    std::filesystem::remove(path);
  }
}

// Sharded MANIFEST v2: the metric round-trips through the directory
// snapshot, every shard blob agrees with the manifest, and post-load
// scatter-gather is bit-identical.
TEST_F(MetricSearchTest, ShardedManifestRoundTripsMetric) {
  const Metric metric = EnvMetric(Metric::kInnerProduct);
  const std::string dir = ::testing::TempDir() + "/metric_sharded_snap";
  std::filesystem::remove_all(dir);
  const ShardedIndex sharded =
      BuildSharded(metric, 3, ShardClustering::kShared);
  ASSERT_TRUE(sharded.Save(dir).ok());
  ShardedIndex loaded;
  ASSERT_TRUE(loaded.Load(dir).ok());
  EXPECT_EQ(loaded.metric(), metric);
  ASSERT_EQ(loaded.num_shards(), sharded.num_shards());
  SearchOptions params;
  params.k = kK;
  params.nprobe = 6;
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    params.seed = 1300 + q;
    const SearchResponse want = sharded.Search({queries_.Row(q), params});
    const SearchResponse got = loaded.Search({queries_.Row(q), params});
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ExpectSameNeighbors(want.neighbors, got.neighbors,
                        "sharded manifest round trip");
  }
  std::filesystem::remove_all(dir);
}

// The engine serves non-L2 metrics: SearchBatch is bit-identical to the
// sequential sharded reference at equal seeds, and a zero-norm cosine query
// fails through ITS OWN response while the rest of the batch executes.
TEST_F(MetricSearchTest, EngineServesMetricBatches) {
  const Metric metric = EnvMetric(Metric::kCosine);
  ShardedIndex reference = BuildSharded(metric, 2, ShardClustering::kShared);

  SearchOptions options;
  options.k = kK;
  options.nprobe = 6;
  std::vector<SearchRequest> requests(kNumQueries);
  std::vector<SearchResponse> want(kNumQueries);
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    requests[q] = {queries_.Row(q), options};
    requests[q].options.seed = 5000 + q;
    want[q] = reference.Search(requests[q]);
    ASSERT_TRUE(want[q].ok());
  }

  EngineConfig config;
  config.num_threads = 4;
  SearchEngine engine(BuildSharded(metric, 2, ShardClustering::kShared),
                      config);
  EXPECT_EQ(engine.metric(), metric);

  std::vector<SearchResponse> responses;
  ASSERT_TRUE(engine.SearchBatch(requests.data(), requests.size(), &responses)
                  .ok());
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    ASSERT_TRUE(responses[q].ok()) << responses[q].status.message();
    ExpectSameNeighbors(want[q].neighbors, responses[q].neighbors,
                        "engine batch");
  }

  if (metric == Metric::kCosine) {
    // Zero-norm query: per-query failure, valid neighbors still execute.
    std::vector<float> zero(kDim, 0.0f);
    std::vector<SearchRequest> mixed = {requests[0], requests[1]};
    mixed[1].query = zero.data();
    std::vector<SearchResponse> mixed_responses;
    const Status batch_status =
        engine.SearchBatch(mixed.data(), mixed.size(), &mixed_responses);
    EXPECT_FALSE(batch_status.ok());
    ASSERT_EQ(mixed_responses.size(), 2u);
    EXPECT_TRUE(mixed_responses[0].ok());
    ExpectSameNeighbors(want[0].neighbors, mixed_responses[0].neighbors,
                        "mixed batch survivor");
    EXPECT_EQ(mixed_responses[1].status.code(), StatusCode::kInvalidArgument);
  }
}

// Cosine ingest/search rejects zero-norm vectors and queries at every entry
// point (Build, Add, Update, query side).
TEST_F(MetricSearchTest, CosineRejectsZeroNormVectors) {
  Matrix poisoned = data_;
  std::fill_n(poisoned.Row(3), kDim, 0.0f);
  IvfConfig ivf;
  ivf.num_lists = kLists;
  ivf.metric = Metric::kCosine;
  IvfRabitqIndex rejected;
  EXPECT_EQ(rejected.Build(poisoned, ivf, RabitqConfig{}).code(),
            StatusCode::kInvalidArgument);

  IvfRabitqIndex index = BuildSingle(Metric::kCosine);
  const std::vector<float> zero(kDim, 0.0f);
  EXPECT_EQ(index.Add(zero.data()).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index.Update(0, zero.data()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(index.IsDeleted(0)) << "failed update must not tombstone";

  SearchOptions params;
  params.k = kK;
  params.nprobe = 4;
  params.seed = 0;
  EXPECT_EQ(index.Search({zero.data(), params}).status.code(),
            StatusCode::kInvalidArgument);
}

// Eval plumbing: ground truth records its metric, ranks by MetricDistance
// keys, and the mismatch guard refuses cross-metric scoring.
TEST_F(MetricSearchTest, GroundTruthCarriesMetricAndRefusesMismatch) {
  GroundTruth l2_truth, ip_truth;
  ASSERT_TRUE(ComputeGroundTruth(data_, queries_, kK, &l2_truth).ok());
  ASSERT_TRUE(ComputeGroundTruth(data_, queries_, kK, Metric::kInnerProduct,
                                 &ip_truth)
                  .ok());
  EXPECT_EQ(l2_truth.metric, Metric::kL2);
  EXPECT_EQ(ip_truth.metric, Metric::kInnerProduct);
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    const std::vector<Neighbor> oracle = OracleAllowed(
        data_, queries_.Row(q), kK, Metric::kInnerProduct, {});
    for (std::size_t j = 0; j < kK; ++j) {
      EXPECT_EQ(ip_truth.IdsFor(q)[j], oracle[j].second);
      EXPECT_EQ(ip_truth.DistFor(q)[j], oracle[j].first);
    }
  }
  EXPECT_TRUE(CheckGroundTruthMetric(ip_truth, Metric::kInnerProduct).ok());
  EXPECT_EQ(CheckGroundTruthMetric(ip_truth, Metric::kL2).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CheckGroundTruthMetric(l2_truth, Metric::kCosine).code(),
            StatusCode::kInvalidArgument);
}

// ParseMetricName accepts the documented spellings and rejects garbage.
TEST(MetricNameTest, ParseRoundTrip) {
  Metric metric = Metric::kL2;
  EXPECT_TRUE(ParseMetricName("l2", &metric));
  EXPECT_EQ(metric, Metric::kL2);
  EXPECT_TRUE(ParseMetricName("ip", &metric));
  EXPECT_EQ(metric, Metric::kInnerProduct);
  EXPECT_TRUE(ParseMetricName("inner_product", &metric));
  EXPECT_EQ(metric, Metric::kInnerProduct);
  EXPECT_TRUE(ParseMetricName("cosine", &metric));
  EXPECT_EQ(metric, Metric::kCosine);
  EXPECT_TRUE(ParseMetricName("cos", &metric));
  EXPECT_EQ(metric, Metric::kCosine);
  EXPECT_FALSE(ParseMetricName("euclidean", &metric));
  for (const Metric m : {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    Metric parsed = Metric::kL2;
    ASSERT_TRUE(ParseMetricName(MetricName(m), &parsed));
    EXPECT_EQ(parsed, m);
  }
}

}  // namespace
}  // namespace rabitq
