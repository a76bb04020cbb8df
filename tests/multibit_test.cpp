// Multi-bit RaBitQ codes (bits_per_dim in {2, 4, 8}) and the two-stage
// error-bound scan:
//   * the sign plane of a multi-bit code is bit-identical to the 1-bit code
//     of the same vector (the sign-split grid guarantee), so stage 1 of the
//     scan is unchanged for any width;
//   * the multi-bit block kernels (AccumulateMultiBlockSums +
//     EstimateBlockMultiPruned) are bit-identical to the scalar reference
//     and to the single-code EstimateDistanceMulti path, candidate-mask
//     pruning semantics included;
//   * the per-code grid factors satisfy their defining identities
//     (reconstruction is unit-norm, m_o_o = <x-bar, o'>, the Eq. 16
//     half-width shrinks as the grid refines);
//   * the two-stage kErrorBound scan is element-identical to the brute-force
//     oracle at every width under kL2 and kInnerProduct;
//   * at partial probe, with tombstones and an allow-bitmap, under every
//     metric and width, the block walk reproduces a per-code replay of the
//     probed lists: kNone/kFixedCandidates bit-for-bit from the per-code
//     estimates, kErrorBound (never-prune eps0) as brute force;
//   * the multi-bit payload survives snapshot v4, Add/Delete/compaction, and
//     sharded + engine serving (including the codes_refined telemetry).

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/query.h"
#include "core/rabitq.h"
#include "engine/search_engine.h"
#include "index/brute_force.h"
#include "index/ivf.h"
#include "index/sharded.h"
#include "linalg/vector_ops.h"
#include "quant/fastscan.h"
#include "util/bit_ops.h"
#include "util/prng.h"

namespace rabitq {
namespace {

constexpr std::size_t kWidths[] = {2, 4, 8};

std::vector<float> RandomVec(std::size_t dim, Rng* rng, float scale = 1.0f) {
  std::vector<float> v(dim);
  for (auto& x : v) x = static_cast<float>(rng->Gaussian()) * scale;
  return v;
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

struct Workload {
  RabitqEncoder encoder;
  RabitqCodeStore store;
  Matrix queries;
  std::vector<float> centroid;
};

// n codes against a random centroid; code 0 is planted at the centroid
// itself (the zero-residual degenerate code) whenever n > 2.
void BuildWorkload(std::size_t dim, std::size_t n, std::size_t n_queries,
                   std::size_t bits_per_dim, std::uint64_t seed, Workload* w) {
  Rng rng(seed);
  RabitqConfig config;
  config.bits_per_dim = bits_per_dim;
  config.seed = seed * 31 + 7;
  ASSERT_TRUE(w->encoder.Init(dim, config).ok());
  w->store.Init(w->encoder.total_bits(), Metric::kL2, bits_per_dim);
  w->centroid = RandomVec(dim, &rng, 0.5f);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<float> v =
        (i == 0 && n > 2) ? w->centroid : RandomVec(dim, &rng);
    ASSERT_TRUE(
        w->encoder.EncodeAppend(v.data(), w->centroid.data(), &w->store).ok());
  }
  w->store.Finalize();
  w->queries.Reset(n_queries, dim);
  for (std::size_t q = 0; q < n_queries; ++q) {
    const auto v = RandomVec(dim, &rng);
    std::copy_n(v.data(), dim, w->queries.Row(q));
  }
}

TEST(MultibitTest, EncoderRejectsInvalidWidths) {
  for (const std::size_t bad : {std::size_t{0}, std::size_t{3}, std::size_t{5},
                                std::size_t{6}, std::size_t{16}}) {
    RabitqEncoder enc;
    RabitqConfig config;
    config.bits_per_dim = bad;
    const Status status = enc.Init(24, config);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
  }
  // Encoder/store width agreement is enforced at append time.
  RabitqEncoder enc;
  RabitqConfig config;
  config.bits_per_dim = 4;
  ASSERT_TRUE(enc.Init(24, config).ok());
  RabitqCodeStore narrow(enc.total_bits());  // bits_per_dim = 1
  std::vector<float> v(24, 1.0f);
  EXPECT_EQ(enc.EncodeAppend(v.data(), nullptr, &narrow).code(),
            StatusCode::kFailedPrecondition);
}

// The sign-split grid guarantee: a multi-bit code's sign plane (bits_) and
// every 1-bit scalar riding with it are bit-identical to the 1-bit code of
// the same vector under the same rotator, and the MSB of each
// reconstructed level u_i IS the sign bit.
TEST(MultibitTest, SignPlaneIdenticalToOneBitCode) {
  const std::size_t dim = 48, n = 40;
  for (const std::size_t bits : kWidths) {
    Workload one, multi;
    BuildWorkload(dim, n, 1, 1, 77, &one);
    BuildWorkload(dim, n, 1, bits, 77, &multi);
    ASSERT_EQ(one.store.size(), multi.store.size());
    ASSERT_EQ(multi.store.bits_per_dim(), bits);
    const std::size_t words = one.store.words_per_code();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t wd = 0; wd < words; ++wd) {
        ASSERT_EQ(one.store.BitsAt(i)[wd], multi.store.BitsAt(i)[wd])
            << "B " << bits << " code " << i << " word " << wd;
      }
      EXPECT_EQ(one.store.bit_count(i), multi.store.bit_count(i));
      EXPECT_EQ(one.store.dist_to_centroid(i), multi.store.dist_to_centroid(i));
      EXPECT_EQ(one.store.o_o(i), multi.store.o_o(i));
      // MSB-plane identity at the level granularity.
      const std::size_t b = multi.store.total_bits();
      for (std::size_t d = 0; d < b; ++d) {
        std::uint32_t u = GetBit(multi.store.BitsAt(i), d) ? 1u : 0u;
        u <<= bits - 1;
        for (std::size_t j = 0; j + 1 < bits; ++j) {
          const std::uint64_t* plane =
              multi.store.ExtraPlanesAt(i) + j * words;
          if (GetBit(plane, d)) u |= 1u << j;
        }
        EXPECT_EQ(u >> (bits - 1), GetBit(multi.store.BitsAt(i), d) ? 1u : 0u);
      }
    }
  }
}

// The per-code grid factors satisfy their defining identities against an
// independent reconstruction from the stored planes and the rotator.
TEST(MultibitTest, GridFactorsMatchReconstruction) {
  const std::size_t dim = 40, n = 30;
  Rng data_rng(11);
  const std::vector<float> centroid = RandomVec(dim, &data_rng, 0.5f);
  std::vector<std::vector<float>> vecs;
  for (std::size_t i = 0; i < n; ++i) vecs.push_back(RandomVec(dim, &data_rng));

  double prev_mean_err = 1e30;
  for (const std::size_t bits : kWidths) {
    RabitqEncoder enc;
    RabitqConfig config;
    config.bits_per_dim = bits;
    config.seed = 99;
    ASSERT_TRUE(enc.Init(dim, config).ok());
    RabitqCodeStore store(0);
    store.Init(enc.total_bits(), Metric::kL2, bits);
    for (const auto& v : vecs) {
      ASSERT_TRUE(enc.EncodeAppend(v.data(), centroid.data(), &store).ok());
    }
    const std::size_t b = store.total_bits();
    const std::size_t words = store.words_per_code();
    double mean_err = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      // Rotated unit residual o' of the original vector.
      std::vector<float> residual(dim), rotated(b);
      for (std::size_t d = 0; d < dim; ++d) {
        residual[d] = vecs[i][d] - centroid[d];
      }
      float norm = 0.0f;
      for (const float x : residual) norm += x * x;
      norm = std::sqrt(norm);
      for (auto& x : residual) x /= norm;
      enc.rotator().InverseRotate(residual.data(), rotated.data());

      const float alpha = store.m_alpha(i);
      const float beta = store.m_beta(i);
      double code_sum = 0.0, norm_sq = 0.0, dot = 0.0;
      for (std::size_t d = 0; d < b; ++d) {
        std::uint32_t u = GetBit(store.BitsAt(i), d) ? 1u : 0u;
        u <<= bits - 1;
        for (std::size_t j = 0; j + 1 < bits; ++j) {
          if (GetBit(store.ExtraPlanesAt(i) + j * words, d)) u |= 1u << j;
        }
        code_sum += u;
        // x-bar_d = alpha * u_d + beta, the affine form the estimator uses.
        const double xb = static_cast<double>(alpha) * u + beta;
        norm_sq += xb * xb;
        dot += xb * static_cast<double>(rotated[d]);
      }
      EXPECT_EQ(store.m_code_sum(i), static_cast<float>(code_sum))
          << "B " << bits << " code " << i;
      EXPECT_NEAR(norm_sq, 1.0, 1e-4) << "B " << bits << " code " << i;
      EXPECT_NEAR(store.m_o_o(i), dot, 1e-4) << "B " << bits << " code " << i;
      EXPECT_LE(store.m_o_o(i), 1.0f + 1e-5f);
      mean_err += store.m_err_data()[i];
    }
    mean_err /= static_cast<double>(n);
    // Refining the grid tightens the Eq. 16 half-width on average.
    EXPECT_LT(mean_err, prev_mean_err) << "B " << bits;
    prev_mean_err = mean_err;
  }
}

// The multi-bit block kernels: AccumulateMultiBlockSums equals the per-code
// BitwiseDotQueryMulti, and the pruned SIMD kernel is bit-identical to its
// scalar reference and the single-code assembly, candidate-mask semantics
// included (non-candidate lanes never survive, candidate lanes follow the
// scalar !(lb > thr) rule exactly).
TEST(MultibitTest, BlockKernelsBitIdenticalToScalarAndSingleCode) {
  const struct {
    std::size_t dim, n;
  } shapes[] = {{50, 90}, {100, 64}, {40, 33}};
  for (const std::size_t bits : kWidths) {
    for (const auto& shape : shapes) {
      Workload w;
      BuildWorkload(shape.dim, shape.n, 2, bits, shape.dim * 100 + bits, &w);
      Rng rng(bits * 7 + shape.n);
      Rng mask_rng(bits * 13 + 5);
      for (std::size_t q = 0; q < w.queries.rows() + 1; ++q) {
        // Last pass queries the centroid itself (q_dist == 0 edge).
        const float* query = q < w.queries.rows() ? w.queries.Row(q)
                                                  : w.centroid.data();
        QuantizedQuery qq;
        ASSERT_TRUE(
            PrepareQuery(w.encoder, query, w.centroid.data(), &rng, &qq).ok());
        const FastScanCodes& packed = w.store.packed();
        std::uint32_t sums[kFastScanBlockSize];
        std::uint32_t msums[kFastScanBlockSize];
        for (std::size_t block = 0; block < packed.num_blocks; ++block) {
          FastScanAccumulateBlock(packed.BlockPtr(block), packed.num_segments,
                                  qq.luts.data(), sums);
          AccumulateMultiBlockSums(qq, w.store, block, sums, msums);
          const std::size_t begin = block * kFastScanBlockSize;
          const std::size_t count =
              std::min(kFastScanBlockSize, w.store.size() - begin);
          for (std::size_t k = 0; k < count; ++k) {
            ASSERT_EQ(msums[k], BitwiseDotQueryMulti(qq, w.store, begin + k))
                << "block " << block << " lane " << k;
          }
          // Reference distances/bounds from the single-code path.
          float ref_d[kFastScanBlockSize], ref_lb[kFastScanBlockSize];
          for (std::size_t k = 0; k < count; ++k) {
            const DistanceEstimate single =
                EstimateDistanceMulti(qq, w.store, begin + k, 1.9f);
            ref_d[k] = single.dist_sq;
            ref_lb[k] = single.lower_bound_sq;
          }
          const float lo = *std::min_element(ref_lb, ref_lb + count);
          const float hi = *std::max_element(ref_lb, ref_lb + count);
          const float thresholds[] = {lo, (lo + hi) / 2, hi, FLT_MAX};
          for (const float thr : thresholds) {
            // Random candidate masks, plus the all-candidates mask.
            for (int pass = 0; pass < 3; ++pass) {
              const std::uint32_t cand =
                  pass == 0 ? 0xFFFFFFFFu
                            : static_cast<std::uint32_t>(
                                  mask_rng.NextU64() & 0xFFFFFFFFu);
              float fd[kFastScanBlockSize], flb[kFastScanBlockSize];
              float sd[kFastScanBlockSize], slb[kFastScanBlockSize];
              const std::uint32_t fused = EstimateBlockMultiPruned(
                  qq, w.store, block, msums, 1.9f, thr, cand, fd, flb);
              const std::uint32_t scalar = EstimateBlockMultiPrunedScalar(
                  qq, w.store, block, msums, 1.9f, thr, cand, sd, slb);
              ASSERT_EQ(fused, scalar)
                  << "block " << block << " thr " << thr << " cand " << cand;
              EXPECT_EQ(fused & ~cand, 0u) << "non-candidate lane survived";
              for (std::size_t k = 0; k < kFastScanBlockSize; ++k) {
                const bool is_cand = ((cand >> k) & 1u) != 0;
                const bool expect_survive =
                    k < count && is_cand && !(ref_lb[k] > thr);
                EXPECT_EQ((fused >> k) & 1u, expect_survive ? 1u : 0u)
                    << "block " << block << " lane " << k << " thr " << thr;
                if (k < count && is_cand) {
                  ASSERT_EQ(fd[k], ref_d[k]) << "lane " << k;
                  ASSERT_EQ(flb[k], ref_lb[k]) << "lane " << k;
                  ASSERT_EQ(sd[k], ref_d[k]) << "lane " << k;
                  ASSERT_EQ(slb[k], ref_lb[k]) << "lane " << k;
                }
              }
            }
          }
        }
      }
    }
  }
}

class MultibitSearchTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 900;
  static constexpr std::size_t kDim = 24;
  static constexpr std::size_t kLists = 10;
  static constexpr std::size_t kNumQueries = 6;
  static constexpr std::size_t kK = 10;

  void SetUp() override {
    data_ = ClusteredData(kN, kDim, 10, 421);
    queries_ = ClusteredData(kNumQueries, kDim, 10, 422);
  }

  IvfRabitqIndex BuildSingle(Metric metric, std::size_t bits) const {
    IvfRabitqIndex index;
    IvfConfig ivf;
    ivf.num_lists = kLists;
    ivf.metric = metric;
    RabitqConfig rabitq;
    rabitq.bits_per_dim = bits;
    EXPECT_TRUE(index.Build(data_, ivf, rabitq).ok());
    return index;
  }

  // Exhaustive exact settings: full probe, never prune.
  static SearchOptions ExhaustiveParams() {
    SearchOptions params;
    params.k = kK;
    params.nprobe = kLists;
    params.epsilon0_override = 50.0f;
    params.policy = RerankPolicy::kErrorBound;
    params.rerank_candidates = kN;
    return params;
  }

  Matrix data_;
  Matrix queries_;
};

// The tentpole acceptance criterion: the two-stage kErrorBound scan is
// element-identical to the brute-force oracle at every width, under kL2 and
// kInnerProduct -- and the codes_refined telemetry fires exactly when a
// second stage exists.
TEST_F(MultibitSearchTest, TwoStageScanMatchesOracleAcrossWidths) {
  for (const Metric metric : {Metric::kL2, Metric::kInnerProduct}) {
    for (const std::size_t bits :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      const IvfRabitqIndex index = BuildSingle(metric, bits);
      ASSERT_EQ(index.encoder().config().bits_per_dim, bits);
      for (std::size_t q = 0; q < kNumQueries; ++q) {
        const std::vector<Neighbor> oracle =
            OracleAllowed(data_, queries_.Row(q), kK, metric, {});
        SearchOptions params = ExhaustiveParams();
        params.seed = 600 + q;
        const SearchResponse got = index.Search({queries_.Row(q), params});
        ASSERT_TRUE(got.ok());
        const std::string label = std::string(MetricName(metric)) + " B" +
                                  std::to_string(bits) + " q" +
                                  std::to_string(q);
        ExpectSameNeighbors(oracle, got.neighbors, label);
        if (bits > 1) {
          EXPECT_GT(got.stats.codes_refined, 0u) << label;
        } else {
          EXPECT_EQ(got.stats.codes_refined, 0u) << label;
        }
      }
    }
  }
}

// One live, allowed code of a probed list as the per-code path sees it.
struct ReplayedCode {
  float estimate;  // EstimateDistance (B = 1) / EstimateDistanceMulti
  float exact;     // MetricDistance against the stored vector
  std::uint32_t id;
};

// Test-side replay of the probed part of one search, through the per-code
// estimators instead of the block kernels: the query is normalized (cosine),
// rotated and quantized per probed list exactly as SearchWithScratch does it
// (PrepareQueryFromRotated seeded by MixSeed(seed, list_id)). Tombstones
// come from Delete only, so a dead entry is exactly a deleted id.
void ReplayProbedLists(const IvfRabitqIndex& index, const float* raw_query,
                       std::size_t nprobe, std::uint64_t seed,
                       const std::vector<bool>& allowed,
                       std::vector<ReplayedCode>* out,
                       std::size_t* live_disallowed) {
  const Metric metric = index.metric();
  const std::size_t dim = index.dim();
  const RabitqEncoder& encoder = index.encoder();
  std::vector<float> query(raw_query, raw_query + dim);
  if (metric == Metric::kCosine) NormalizeInPlace(query.data(), dim);
  const float query_norm_sq =
      metric == Metric::kL2 ? 0.0f : SquaredNorm(query.data(), dim);
  std::vector<float> rotated(encoder.total_bits());
  RotateQueryOnce(encoder, query.data(), rotated.data());
  std::vector<std::pair<float, std::uint32_t>> order;
  index.ProbeOrderInto(query.data(), nprobe, &order);
  out->clear();
  *live_disallowed = 0;
  QuantizedQuery qq;
  for (std::size_t p = 0; p < std::min(nprobe, order.size()); ++p) {
    const std::uint32_t list_id = order[p].second;
    const std::vector<std::uint32_t>& ids = index.list_ids(list_id);
    if (ids.empty()) continue;
    const float q_dist =
        metric == Metric::kL2
            ? std::sqrt(std::max(0.0f, order[p].first))
            : std::sqrt(std::max(
                  0.0f, L2SqrDistance(query.data(),
                                      index.centroids().Row(list_id), dim)));
    Rng list_rng(MixSeed(seed, list_id));
    ASSERT_TRUE(PrepareQueryFromRotated(
                    encoder, rotated.data(),
                    index.rotated_centroids().Row(list_id), q_dist, &list_rng,
                    &qq, /*query_bits_override=*/0, metric, query_norm_sq)
                    .ok());
    const RabitqCodeStore& codes = index.list_codes(list_id);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (index.IsDeleted(ids[i])) continue;
      if (!allowed[ids[i]]) {
        ++*live_disallowed;
        continue;
      }
      const float eps0 = encoder.config().epsilon0;
      const DistanceEstimate est =
          codes.bits_per_dim() > 1
              ? EstimateDistanceMulti(qq, codes, i, eps0)
              : EstimateDistance(qq, codes.View(i), eps0);
      out->push_back({est.dist_sq,
                      MetricDistance(metric, index.vector(ids[i]),
                                     query.data(), dim),
                      ids[i]});
    }
  }
}

// The smallest k (key, id) pairs, ascending -- TopKHeap's tie order.
std::vector<Neighbor> SmallestK(std::vector<Neighbor> pool, std::size_t k) {
  std::sort(pool.begin(), pool.end());
  pool.resize(std::min(k, pool.size()));
  return pool;
}

// The two oracles of the single block walk, at every width and metric,
// with tombstones and an allow-bitmap, at partial probe:
//   * kNone returns exactly the per-code top-k by estimate, and
//     kFixedCandidates exactly the exact top-k of the per-code top-R -- so
//     the pool holds precisely the live, allowed codes with bit-identical
//     estimates (full-width ones on a multi-bit index);
//   * kErrorBound with a never-prune eps0 returns exactly the brute-force
//     top-k over the probed lists' live, allowed codes.
TEST_F(MultibitSearchTest, PartialProbeMatchesPerCodeReplay) {
  constexpr std::size_t kProbe = 4;
  constexpr std::size_t kBudget = 40;
  Rng pick(57);
  std::vector<bool> allowed(kN);
  std::vector<std::uint64_t> bitmap((kN + 63) / 64, 0);
  for (std::size_t id = 0; id < kN; ++id) {
    allowed[id] = pick.UniformInt(3) != 0;  // ~2/3 allowed
    if (allowed[id]) bitmap[id / 64] |= std::uint64_t{1} << (id % 64);
  }
  for (const Metric metric :
       {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    for (const std::size_t bits :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      IvfRabitqIndex index = BuildSingle(metric, bits);
      for (std::uint32_t id = 3; id < kN; id += 7) {
        ASSERT_TRUE(index.Delete(id).ok());
      }
      const std::string label = std::string(MetricName(metric)) + " B" +
                                std::to_string(bits);
      for (std::size_t q = 0; q < kNumQueries; ++q) {
        const std::uint64_t seed = 711 + q;
        std::vector<ReplayedCode> codes;
        std::size_t live_disallowed = 0;
        ReplayProbedLists(index, queries_.Row(q), kProbe, seed, allowed,
                          &codes, &live_disallowed);
        std::vector<Neighbor> by_estimate, by_exact;
        for (const ReplayedCode& c : codes) {
          by_estimate.emplace_back(c.estimate, c.id);
          by_exact.emplace_back(c.exact, c.id);
        }
        std::vector<Neighbor> fixed_pool;
        for (const Neighbor& nb : SmallestK(by_estimate, kBudget)) {
          for (const ReplayedCode& c : codes) {
            if (c.id == nb.second) fixed_pool.emplace_back(c.exact, c.id);
          }
        }
        const struct {
          RerankPolicy policy;
          std::vector<Neighbor> want;
        } cases[] = {
            {RerankPolicy::kNone, SmallestK(by_estimate, kK)},
            {RerankPolicy::kFixedCandidates, SmallestK(fixed_pool, kK)},
            {RerankPolicy::kErrorBound, SmallestK(by_exact, kK)},
        };
        for (const auto& c : cases) {
          SearchOptions params = ExhaustiveParams();
          params.nprobe = kProbe;
          params.policy = c.policy;
          params.rerank_candidates = kBudget;
          params.filter = IdFilter::AllowBitmap(bitmap.data(), kN);
          params.seed = seed;
          const SearchResponse got = index.Search({queries_.Row(q), params});
          ASSERT_TRUE(got.ok());
          ExpectSameNeighbors(c.want, got.neighbors,
                              label + " policy " +
                                  std::to_string(static_cast<int>(c.policy)) +
                                  " q" + std::to_string(q));
          const IvfSearchStats& stats = got.stats;
          EXPECT_EQ(stats.codes_filtered, live_disallowed) << label;
          if (bits > 1 && c.policy != RerankPolicy::kErrorBound) {
            EXPECT_EQ(stats.codes_refined, stats.codes_estimated) << label;
          }
        }
      }
    }
  }
}

// Snapshots carry the multi-bit payload: bits_per_dim, the extra code
// planes and the persisted grid factors all round-trip bitwise (through the
// current v5 checksummed format), and post-load search is bit-identical.
TEST_F(MultibitSearchTest, SnapshotV4RoundTripsMultiBitPayload) {
  const IvfRabitqIndex index = BuildSingle(Metric::kInnerProduct, 4);
  const std::string path = ::testing::TempDir() + "/multibit_v4.rbq";
  ASSERT_TRUE(index.Save(path).ok());
  {
    std::ifstream in(path, std::ios::binary);
    char magic[8] = {};
    in.read(magic, 8);
    EXPECT_EQ(std::string(magic, 8), "RBQIVF05");
  }
  IvfRabitqIndex loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.metric(), Metric::kInnerProduct);
  ASSERT_EQ(loaded.encoder().config().bits_per_dim, 4u);
  ASSERT_EQ(loaded.num_lists(), index.num_lists());
  for (std::size_t l = 0; l < index.num_lists(); ++l) {
    const RabitqCodeStore& a = index.list_codes(l);
    const RabitqCodeStore& b = loaded.list_codes(l);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(b.bits_per_dim(), 4u);
    for (std::size_t i = 0; i < a.size(); ++i) {
      for (std::size_t wd = 0; wd < a.extra_words_per_code(); ++wd) {
        ASSERT_EQ(a.ExtraPlanesAt(i)[wd], b.ExtraPlanesAt(i)[wd])
            << "list " << l << " code " << i << " word " << wd;
      }
      EXPECT_EQ(a.m_o_o(i), b.m_o_o(i));
      EXPECT_EQ(a.m_alpha(i), b.m_alpha(i));
      EXPECT_EQ(a.m_beta(i), b.m_beta(i));
      EXPECT_EQ(a.m_code_sum(i), b.m_code_sum(i));
      // Derived factors are recomputed from the same floats -- identical.
      EXPECT_EQ(a.m_inv_oo_data()[i], b.m_inv_oo_data()[i]);
      EXPECT_EQ(a.m_err_data()[i], b.m_err_data()[i]);
    }
  }
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    SearchOptions params = ExhaustiveParams();
    params.seed = 800 + q;
    const SearchResponse want = index.Search({queries_.Row(q), params});
    const SearchResponse got = loaded.Search({queries_.Row(q), params});
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ExpectSameNeighbors(want.neighbors, got.neighbors, "v4 round trip");
  }
  std::filesystem::remove(path);
}

// The mutable lifecycle at a multi-bit width: Add (incremental fast-scan
// repack of every plane), Delete, compaction -- the index still reproduces
// the oracle over the live set afterwards.
TEST_F(MultibitSearchTest, LifecycleKeepsMultiBitPayloadConsistent) {
  IvfRabitqIndex index = BuildSingle(Metric::kL2, 4);
  Matrix all = ClusteredData(kN + 50, kDim, 10, 421);
  std::copy_n(data_.data(), data_.size(), all.data());
  Rng extra_rng(31);
  for (std::size_t i = 0; i < 50; ++i) {
    const std::size_t c = extra_rng.UniformInt(kN);
    for (std::size_t j = 0; j < kDim; ++j) {
      all.At(kN + i, j) =
          data_.At(c, j) + 0.25f * static_cast<float>(extra_rng.Gaussian());
    }
    std::uint32_t id = 0;
    ASSERT_TRUE(index.Add(all.Row(kN + i), &id).ok());
    ASSERT_EQ(id, kN + i);
  }
  std::vector<bool> allowed(kN + 50, true);
  for (std::size_t id = 0; id < kN + 50; id += 7) {
    ASSERT_TRUE(index.Delete(static_cast<std::uint32_t>(id)).ok());
    allowed[id] = false;
  }
  ASSERT_TRUE(index.Compact().ok());
  EXPECT_EQ(index.num_tombstones(), 0u);
  for (std::size_t l = 0; l < index.num_lists(); ++l) {
    EXPECT_EQ(index.list_codes(l).bits_per_dim(), 4u);
  }
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    const std::vector<Neighbor> oracle =
        OracleAllowed(all, queries_.Row(q), kK, Metric::kL2, allowed);
    SearchOptions params = ExhaustiveParams();
    params.seed = 900 + q;
    const SearchResponse got = index.Search({queries_.Row(q), params});
    ASSERT_TRUE(got.ok());
    ExpectSameNeighbors(oracle, got.neighbors, "lifecycle B4");
  }
}

// Sharded scatter-gather and the serving engine thread the width through:
// shard results stay bit-identical to single-shard, the engine reports the
// width and counts stage-2 refinements.
TEST_F(MultibitSearchTest, ShardedAndEngineServeMultiBit) {
  ShardedConfig config;
  config.num_shards = 3;
  config.clustering = ShardClustering::kShared;
  config.ivf.num_lists = kLists;
  config.ivf.metric = Metric::kL2;
  config.rabitq.bits_per_dim = 4;
  ShardedIndex sharded;
  ASSERT_TRUE(sharded.Build(data_, config).ok());
  const IvfRabitqIndex single = BuildSingle(Metric::kL2, 4);

  SearchOptions params;
  params.k = kK;
  params.nprobe = 5;
  params.policy = RerankPolicy::kErrorBound;
  // Widened eps0 keeps the kErrorBound shard merge bit-identical (shards
  // prune against weaker per-shard thresholds; see sharded.h).
  params.epsilon0_override = 8.0f;
  std::vector<SearchRequest> requests(kNumQueries);
  std::vector<SearchResponse> want(kNumQueries);
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    requests[q] = {queries_.Row(q), params};
    requests[q].options.seed = 1000 + q;
    want[q] = single.Search(requests[q]);
    const SearchResponse got = sharded.Search(requests[q]);
    ASSERT_TRUE(want[q].ok());
    ASSERT_TRUE(got.ok());
    ExpectSameNeighbors(want[q].neighbors, got.neighbors, "sharded B4");
    EXPECT_GT(got.stats.codes_refined, 0u) << "merged stats drop refinements";
  }

  EngineConfig engine_config;
  engine_config.num_threads = 2;
  SearchEngine engine(std::move(sharded), engine_config);
  EXPECT_EQ(engine.index().shard(0).encoder().config().bits_per_dim, 4u);
  std::vector<SearchResponse> responses;
  ASSERT_TRUE(
      engine.SearchBatch(requests.data(), requests.size(), &responses).ok());
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    ASSERT_TRUE(responses[q].ok()) << responses[q].status.message();
    ExpectSameNeighbors(want[q].neighbors, responses[q].neighbors,
                        "engine B4");
  }
  EXPECT_GT(engine.Stats().codes_refined, 0u);
}

}  // namespace
}  // namespace rabitq
