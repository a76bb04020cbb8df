// The unified SearchRequest/SearchResponse API:
//   * seed semantics: an unset seed falls back to the layer's documented
//     default (seed 0 for an index; the engine's ticket stream, which an
//     explicitly seeded submission does not advance);
//   * the Metric enum is validated at build (and survives save/load);
//   * request-level error paths report through SearchResponse.status, per
//     response, without failing the valid requests of a batch.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "engine/search_engine.h"
#include "index/ivf.h"
#include "index/sharded.h"
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

class SearchApiTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 2000;
  static constexpr std::size_t kDim = 32;

  void SetUp() override {
    data_ = ClusteredData(kN, kDim, 12, 61);
    IvfConfig ivf;
    ivf.num_lists = 16;
    ASSERT_TRUE(index_.Build(data_, ivf, RabitqConfig{}).ok());
    queries_ = ClusteredData(10, kDim, 12, 62);
  }

  SearchOptions Options(std::size_t nprobe = 8) const {
    SearchOptions options;
    options.k = 10;
    options.nprobe = nprobe;
    return options;
  }

  Matrix data_;
  Matrix queries_;
  IvfRabitqIndex index_;
};

TEST_F(SearchApiTest, UnsetSeedDefaultsToZero) {
  SearchRequest unseeded{queries_.Row(0), Options()};
  SearchRequest zero_seeded = unseeded;
  zero_seeded.options.seed = 0;
  EXPECT_EQ(index_.Search(unseeded).neighbors,
            index_.Search(zero_seeded).neighbors);
}

TEST_F(SearchApiTest, RequestErrorsReportThroughResponseStatus) {
  SearchRequest request{queries_.Row(0), Options()};
  request.options.k = 0;
  const SearchResponse response = index_.Search(request);
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(response.neighbors.empty());
}

TEST_F(SearchApiTest, MetricValidatedAtBuild) {
  // Every declared metric builds; a value outside the enum fails closed.
  for (const Metric metric :
       {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    IvfConfig ivf;
    ivf.num_lists = 16;
    ivf.metric = metric;
    IvfRabitqIndex built;
    ASSERT_TRUE(built.Build(data_, ivf, RabitqConfig{}).ok())
        << MetricName(metric);
    EXPECT_EQ(built.metric(), metric);
  }
  EXPECT_EQ(index_.metric(), Metric::kL2);

  IvfConfig bogus;
  bogus.num_lists = 16;
  bogus.metric = static_cast<Metric>(kMaxMetricValue + 1);
  IvfRabitqIndex rejected;
  EXPECT_EQ(rejected.Build(data_, bogus, RabitqConfig{}).code(),
            StatusCode::kInvalidArgument);

  ShardedConfig sharded;
  sharded.num_shards = 2;
  sharded.ivf.num_lists = 8;
  sharded.ivf.metric = Metric::kInnerProduct;
  ShardedIndex built;
  ASSERT_TRUE(built.Build(data_, sharded).ok());
  EXPECT_EQ(built.metric(), Metric::kInnerProduct);
  sharded.ivf.metric = static_cast<Metric>(kMaxMetricValue + 1);
  ShardedIndex sharded_rejected;
  EXPECT_EQ(sharded_rejected.Build(data_, sharded).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SearchApiTest, MetricSurvivesSnapshotRoundTrip) {
  const std::string path = ::testing::TempDir() + "/search_api_metric.rbq";
  ASSERT_TRUE(index_.Save(path).ok());
  IvfRabitqIndex loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.metric(), Metric::kL2);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------

class EngineApiTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNumQueries = 12;

  void SetUp() override {
    data_ = ClusteredData(1800, 32, 10, 81);
    queries_ = ClusteredData(kNumQueries, 32, 10, 82);
    IvfConfig ivf;
    ivf.num_lists = 16;
    IvfRabitqIndex index;
    ASSERT_TRUE(index.Build(data_, ivf, RabitqConfig{}).ok());
    engine_ = std::make_unique<SearchEngine>(std::move(index), EngineConfig{});
    options_.k = 10;
    options_.nprobe = 8;
  }

  Matrix data_;
  Matrix queries_;
  SearchOptions options_;
  std::unique_ptr<SearchEngine> engine_;
};

TEST_F(EngineApiTest, SingleSearchMatchesSeededBatchEntry) {
  SearchRequest request{queries_.Row(0), options_};
  request.options.seed = 4711;
  const SearchResponse single = engine_->Search(request);
  ASSERT_TRUE(single.ok());
  std::vector<SearchResponse> responses;
  ASSERT_TRUE(engine_->SearchBatch(&request, 1, &responses).ok());
  EXPECT_EQ(single.neighbors, responses[0].neighbors);
}

TEST_F(EngineApiTest, NullQueryFailsClosed) {
  SearchRequest request{nullptr, options_};
  std::vector<SearchResponse> responses;
  EXPECT_EQ(engine_->SearchBatch(&request, 1, &responses).code(),
            StatusCode::kInvalidArgument);
  ASSERT_EQ(responses.size(), 1u);
  // The per-response contract: the failed request reports through its OWN
  // status, not just the batch-level return.
  EXPECT_EQ(responses[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(engine_->Search(request).ok());
  SearchResponse async = engine_->SubmitAsync(request).get();
  EXPECT_EQ(async.status.code(), StatusCode::kInvalidArgument);

  // And at the index/sharded layers of the same unified API.
  IvfConfig ivf;
  ivf.num_lists = 8;
  IvfRabitqIndex index;
  ASSERT_TRUE(index.Build(data_, ivf, RabitqConfig{}).ok());
  EXPECT_EQ(index.Search(SearchRequest{}).status.code(),
            StatusCode::kInvalidArgument);
}

TEST_F(EngineApiTest, MixedNullAndValidBatchExecutesTheValidRequests) {
  SearchRequest valid{queries_.Row(0), options_};
  valid.options.seed = 31415;
  const SearchResponse expected = engine_->Search(valid);
  ASSERT_TRUE(expected.ok());

  std::vector<SearchRequest> requests = {SearchRequest{nullptr, options_},
                                         valid,
                                         SearchRequest{nullptr, options_}};
  std::vector<SearchResponse> responses;
  EXPECT_EQ(engine_->SearchBatch(requests.data(), requests.size(), &responses)
                .code(),
            StatusCode::kInvalidArgument);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_FALSE(responses[0].ok());
  EXPECT_FALSE(responses[2].ok());
  ASSERT_TRUE(responses[1].ok());
  EXPECT_EQ(responses[1].neighbors, expected.neighbors);
}

TEST_F(EngineApiTest, EmptyBatchIsOk) {
  std::vector<SearchResponse> responses;
  EXPECT_TRUE(engine_->SearchBatch(nullptr, 0, &responses).ok());
  EXPECT_TRUE(responses.empty());
}

TEST_F(EngineApiTest, ExplicitSeedSubmissionDoesNotConsumeAutoSeedTicket) {
  // Tickets drive the auto-seed stream; an explicitly-seeded submission in
  // between must not shift it. Two unseeded submissions around an explicit
  // one must therefore match tickets 0 and 1 of a fresh identical engine.
  IvfConfig ivf;
  ivf.num_lists = 16;
  IvfRabitqIndex index;
  ASSERT_TRUE(index.Build(data_, ivf, RabitqConfig{}).ok());
  SearchEngine fresh(std::move(index), EngineConfig{});

  SearchRequest unseeded{queries_.Row(2), options_};
  SearchRequest seeded{queries_.Row(3), options_};
  seeded.options.seed = 777;

  SearchResponse first = engine_->SubmitAsync(unseeded).get();
  engine_->SubmitAsync(seeded).get();
  SearchResponse third = engine_->SubmitAsync(unseeded).get();

  SearchResponse want_first = fresh.SubmitAsync(unseeded).get();
  SearchResponse want_third = fresh.SubmitAsync(unseeded).get();
  ASSERT_TRUE(first.ok() && third.ok());
  EXPECT_EQ(first.neighbors, want_first.neighbors);
  EXPECT_EQ(third.neighbors, want_third.neighbors);
}

}  // namespace
}  // namespace rabitq
