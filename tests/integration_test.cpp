// End-to-end integration tests across modules: the full paper pipeline
// (synthetic dataset -> IVF+RaBitQ -> search -> recall/ratio metrics),
// RaBitQ-vs-PQ accuracy ordering, the MSong-style PQx4fs failure mode, and
// cross-policy consistency at realistic scales (kept small enough for CI).

#include <gtest/gtest.h>

#include <cmath>

#include "core/estimator.h"
#include "eval/datasets.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "index/hnsw.h"
#include "index/ivf.h"
#include "index/ivf_pq.h"
#include "linalg/vector_ops.h"
#include "util/prng.h"

namespace rabitq {
namespace {

struct Pipeline {
  Matrix base;
  Matrix queries;
  GroundTruth gt;
};

void BuildPipeline(const SyntheticSpec& spec, std::size_t k, Pipeline* p) {
  ASSERT_TRUE(GenerateDataset(spec, &p->base, &p->queries).ok());
  ASSERT_TRUE(ComputeGroundTruth(p->base, p->queries, k, &p->gt).ok());
}

TEST(IntegrationTest, IvfRabitqEndToEndRecall) {
  SyntheticSpec spec = SiftLikeSpec(8000, 20);
  Pipeline p;
  BuildPipeline(spec, 10, &p);

  IvfRabitqIndex index;
  IvfConfig ivf;
  ivf.num_lists = 64;
  ASSERT_TRUE(index.Build(p.base, ivf, RabitqConfig{}).ok());

  Rng rng(1);
  SearchOptions params;
  params.k = 10;
  params.nprobe = 32;
  double recall = 0.0, ratio = 0.0;
  for (std::size_t q = 0; q < p.queries.rows(); ++q) {
    params.seed = rng.NextU64();
    const SearchResponse result = index.Search({p.queries.Row(q), params});
    ASSERT_TRUE(result.ok());
    recall += RecallAtK(p.gt, q, result.neighbors, 10);
    ratio += AverageDistanceRatio(p.gt, q, result.neighbors, 10);
  }
  recall /= p.queries.rows();
  ratio /= p.queries.rows();
  EXPECT_GE(recall, 0.9);
  EXPECT_LT(ratio, 1.05);
}

TEST(IntegrationTest, RabitqBeatsPqAtHalfTheCodeLength) {
  // The paper's headline: D-bit RaBitQ estimates are more accurate than
  // 2D-bit PQx4fs (M = D/2, 4 bits each). Compare average relative error
  // of the two estimators on the same data.
  SyntheticSpec spec = SiftLikeSpec(4000, 10);
  Pipeline p;
  BuildPipeline(spec, 1, &p);
  const std::size_t dim = spec.dim;

  // RaBitQ with a single global centroid (origin-centered for simplicity:
  // normalize against the dataset centroid).
  std::vector<float> centroid(dim, 0.0f);
  for (std::size_t i = 0; i < p.base.rows(); ++i) {
    for (std::size_t j = 0; j < dim; ++j) centroid[j] += p.base.At(i, j);
  }
  for (auto& c : centroid) c /= static_cast<float>(p.base.rows());

  RabitqEncoder encoder;
  ASSERT_TRUE(encoder.Init(dim, RabitqConfig{}).ok());  // D bits
  RabitqCodeStore store(encoder.total_bits());
  for (std::size_t i = 0; i < p.base.rows(); ++i) {
    ASSERT_TRUE(
        encoder.EncodeAppend(p.base.Row(i), centroid.data(), &store).ok());
  }
  store.Finalize();

  ProductQuantizer pq;  // 2D bits: M = D/2 segments x 4 bits
  PqConfig pq_config;
  pq_config.num_segments = dim / 2;
  pq_config.bits = 4;
  pq_config.kmeans_iterations = 10;
  ASSERT_TRUE(pq.Train(p.base, pq_config).ok());
  std::vector<std::uint8_t> pq_codes;
  pq.EncodeBatch(p.base, &pq_codes);

  Rng rng(2);
  RelativeErrorAccumulator rabitq_err, pq_err;
  AlignedVector<float> luts;
  AlignedVector<std::uint8_t> qluts;
  for (std::size_t q = 0; q < p.queries.rows(); ++q) {
    QuantizedQuery qq;
    ASSERT_TRUE(
        PrepareQuery(encoder, p.queries.Row(q), centroid.data(), &rng, &qq)
            .ok());
    pq.ComputeLookupTables(p.queries.Row(q), &luts);
    float scale, bias;
    QuantizeLutsToU8(luts.data(), pq.num_segments(), &qluts, &scale, &bias);
    for (std::size_t i = 0; i < p.base.rows(); ++i) {
      const float truth =
          L2SqrDistance(p.queries.Row(q), p.base.Row(i), dim);
      rabitq_err.Add(EstimateDistance(qq, store.View(i), 0.0f).dist_sq, truth);
      // PQx4fs-style estimate: u8-requantized LUT accumulation.
      std::uint32_t acc = 0;
      for (std::size_t m = 0; m < pq.num_segments(); ++m) {
        acc += qluts[m * 16 + pq_codes[i * pq.num_segments() + m]];
      }
      pq_err.Add(scale * static_cast<float>(acc) + bias, truth);
    }
  }
  EXPECT_LT(rabitq_err.Stats().average, pq_err.Stats().average)
      << "RaBitQ (D bits) must beat PQx4fs (2D bits) on average error";
}

TEST(IntegrationTest, MsongLikeDataBreaksPqButNotRabitq) {
  // Fig. 3 MSong panel: PQx4fs average relative error explodes (>50%)
  // while RaBitQ stays in single digits.
  SyntheticSpec spec = MsongLikeSpec(3000, 5);
  Pipeline p;
  BuildPipeline(spec, 1, &p);
  const std::size_t dim = spec.dim;

  std::vector<float> centroid(dim, 0.0f);
  for (std::size_t i = 0; i < p.base.rows(); ++i) {
    for (std::size_t j = 0; j < dim; ++j) centroid[j] += p.base.At(i, j);
  }
  for (auto& c : centroid) c /= static_cast<float>(p.base.rows());

  RabitqEncoder encoder;
  ASSERT_TRUE(encoder.Init(dim, RabitqConfig{}).ok());
  RabitqCodeStore store(encoder.total_bits());
  for (std::size_t i = 0; i < p.base.rows(); ++i) {
    ASSERT_TRUE(
        encoder.EncodeAppend(p.base.Row(i), centroid.data(), &store).ok());
  }

  ProductQuantizer pq;
  PqConfig pq_config;
  pq_config.num_segments = dim / 2;
  pq_config.bits = 4;
  pq_config.kmeans_iterations = 8;
  ASSERT_TRUE(pq.Train(p.base, pq_config).ok());
  std::vector<std::uint8_t> pq_codes;
  pq.EncodeBatch(p.base, &pq_codes);

  Rng rng(3);
  RelativeErrorAccumulator rabitq_err, pq_err;
  AlignedVector<float> luts;
  AlignedVector<std::uint8_t> qluts;
  for (std::size_t q = 0; q < p.queries.rows(); ++q) {
    QuantizedQuery qq;
    ASSERT_TRUE(
        PrepareQuery(encoder, p.queries.Row(q), centroid.data(), &rng, &qq)
            .ok());
    pq.ComputeLookupTables(p.queries.Row(q), &luts);
    float scale, bias;
    QuantizeLutsToU8(luts.data(), pq.num_segments(), &qluts, &scale, &bias);
    for (std::size_t i = 0; i < p.base.rows(); ++i) {
      const float truth = L2SqrDistance(p.queries.Row(q), p.base.Row(i), dim);
      rabitq_err.Add(EstimateDistance(qq, store.View(i), 0.0f).dist_sq, truth);
      std::uint32_t acc = 0;
      for (std::size_t m = 0; m < pq.num_segments(); ++m) {
        acc += qluts[m * 16 + pq_codes[i * pq.num_segments() + m]];
      }
      pq_err.Add(scale * static_cast<float>(acc) + bias, truth);
    }
  }
  EXPECT_LT(rabitq_err.Stats().average, 0.15);
  EXPECT_GT(pq_err.Stats().average, 0.3)
      << "heavy-tailed data should break PQx4fs as MSong does in the paper";
}

TEST(IntegrationTest, ErrorBoundRerankMatchesFullRerankQuality) {
  // The tuning-free error-bound policy must match a generous fixed-rerank
  // budget in recall while re-ranking fewer candidates.
  SyntheticSpec spec = SiftLikeSpec(6000, 15);
  Pipeline p;
  BuildPipeline(spec, 100, &p);

  IvfRabitqIndex index;
  IvfConfig ivf;
  ivf.num_lists = 64;
  ASSERT_TRUE(index.Build(p.base, ivf, RabitqConfig{}).ok());

  SearchOptions bound_params;
  bound_params.k = 100;
  bound_params.nprobe = 64;
  SearchOptions fixed_params = bound_params;
  fixed_params.policy = RerankPolicy::kFixedCandidates;
  fixed_params.rerank_candidates = 2500;

  double bound_recall = 0.0, fixed_recall = 0.0;
  std::size_t bound_reranked = 0;
  for (std::size_t q = 0; q < p.queries.rows(); ++q) {
    bound_params.seed = fixed_params.seed = Rng(300 + q).NextU64();
    const SearchResponse rb = index.Search({p.queries.Row(q), bound_params});
    const SearchResponse rf = index.Search({p.queries.Row(q), fixed_params});
    ASSERT_TRUE(rb.ok());
    ASSERT_TRUE(rf.ok());
    bound_recall += RecallAtK(p.gt, q, rb.neighbors, 100);
    fixed_recall += RecallAtK(p.gt, q, rf.neighbors, 100);
    bound_reranked += rb.stats.candidates_reranked;
  }
  bound_recall /= p.queries.rows();
  fixed_recall /= p.queries.rows();
  EXPECT_GE(bound_recall, fixed_recall - 0.02);
  EXPECT_LT(bound_reranked / p.queries.rows(), 2500u);
}

TEST(IntegrationTest, HnswAndIvfRabitqAgreeOnNeighbors) {
  SyntheticSpec spec = SiftLikeSpec(3000, 10);
  Pipeline p;
  BuildPipeline(spec, 10, &p);

  IvfRabitqIndex ivf_index;
  IvfConfig ivf;
  ivf.num_lists = 32;
  ASSERT_TRUE(ivf_index.Build(p.base, ivf, RabitqConfig{}).ok());
  HnswIndex hnsw;
  HnswConfig hnsw_config;
  hnsw_config.m = 16;
  hnsw_config.ef_construction = 120;
  ASSERT_TRUE(hnsw.Build(p.base, hnsw_config).ok());

  Rng rng(4);
  SearchOptions params;
  params.k = 10;
  params.nprobe = 32;
  for (std::size_t q = 0; q < p.queries.rows(); ++q) {
    params.seed = rng.NextU64();
    const SearchResponse ivf_result =
        ivf_index.Search({p.queries.Row(q), params});
    ASSERT_TRUE(ivf_result.ok());
    std::vector<Neighbor> hnsw_result;
    ASSERT_TRUE(hnsw.Search(p.queries.Row(q), 10, 200, &hnsw_result).ok());
    const double ivf_recall = RecallAtK(p.gt, q, ivf_result.neighbors, 10);
    const double hnsw_recall = RecallAtK(p.gt, q, hnsw_result, 10);
    EXPECT_GE(ivf_recall, 0.7) << "query " << q;
    EXPECT_GE(hnsw_recall, 0.7) << "query " << q;
  }
}

TEST(IntegrationTest, FhtRotatorMatchesDenseAccuracy) {
  // Extension check: the O(B log B) Hadamard rotator delivers the same
  // estimation quality as the dense rotation.
  SyntheticSpec spec = SiftLikeSpec(2000, 5);
  Pipeline p;
  BuildPipeline(spec, 1, &p);
  const std::size_t dim = spec.dim;

  auto mean_error = [&](RotatorKind kind) {
    RabitqConfig config;
    config.rotator = kind;
    RabitqEncoder encoder;
    EXPECT_TRUE(encoder.Init(dim, config).ok());
    RabitqCodeStore store(encoder.total_bits());
    for (std::size_t i = 0; i < p.base.rows(); ++i) {
      EXPECT_TRUE(encoder.EncodeAppend(p.base.Row(i), nullptr, &store).ok());
    }
    Rng rng(5);
    RelativeErrorAccumulator err;
    for (std::size_t q = 0; q < p.queries.rows(); ++q) {
      QuantizedQuery qq;
      EXPECT_TRUE(
          PrepareQuery(encoder, p.queries.Row(q), nullptr, &rng, &qq).ok());
      for (std::size_t i = 0; i < p.base.rows(); ++i) {
        err.Add(EstimateDistance(qq, store.View(i), 0.0f).dist_sq,
                L2SqrDistance(p.queries.Row(q), p.base.Row(i), dim));
      }
    }
    return err.Stats().average;
  };
  const double dense = mean_error(RotatorKind::kDense);
  const double fht = mean_error(RotatorKind::kFht);
  EXPECT_LT(fht, dense * 1.3) << "FHT rotator should be competitive";
  EXPECT_LT(fht, 0.2);
}

}  // namespace
}  // namespace rabitq
