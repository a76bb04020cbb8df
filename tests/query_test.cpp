// Tests for query-phase preprocessing: bit planes reassemble the quantized
// values, LUTs equal nibble sums, Eq. 20 constants are consistent, the
// <x-bar, q-bar> identity holds against a from-scratch computation, and
// both preparation entry points equal a frozen reference bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <vector>

#include "core/query.h"
#include "linalg/vector_ops.h"
#include "util/bit_ops.h"
#include "util/prng.h"

namespace rabitq {
namespace {

std::vector<float> RandomVec(std::size_t dim, Rng* rng) {
  std::vector<float> v(dim);
  for (auto& x : v) x = static_cast<float>(rng->Gaussian());
  return v;
}

class QueryParamTest : public ::testing::TestWithParam<int> {};

TEST_P(QueryParamTest, BitPlanesReassembleQuantizedValues) {
  const int bq = GetParam();
  RabitqEncoder enc;
  RabitqConfig config;
  config.query_bits = bq;
  ASSERT_TRUE(enc.Init(100, config).ok());
  Rng rng(bq * 11);
  const auto query = RandomVec(100, &rng);
  const auto centroid = RandomVec(100, &rng);
  QuantizedQuery direct;
  ASSERT_TRUE(PrepareQuery(enc, query.data(), nullptr, &rng, &direct).ok());
  std::vector<float> rotated_query(enc.total_bits());
  std::vector<float> rotated_centroid(enc.total_bits());
  RotateQueryOnce(enc, query.data(), rotated_query.data());
  RotateQueryOnce(enc, centroid.data(), rotated_centroid.data());
  std::vector<float> residual(100);
  Subtract(query.data(), centroid.data(), residual.data(), 100);
  QuantizedQuery rotated;
  ASSERT_TRUE(PrepareQueryFromRotated(enc, rotated_query.data(),
                                      rotated_centroid.data(),
                                      Norm(residual.data(), 100), &rng,
                                      &rotated)
                  .ok());
  for (const QuantizedQuery* qq : {&direct, &rotated}) {
    ASSERT_EQ(qq->qu.size(), enc.total_bits());
    for (std::size_t i = 0; i < qq->qu.size(); ++i) {
      std::uint8_t reassembled = 0;
      for (int j = 0; j < bq; ++j) {
        if (GetBit(qq->Plane(j), i)) reassembled |= (1u << j);
      }
      ASSERT_EQ(reassembled, qq->qu[i]) << "entry " << i;
    }
  }
}

TEST_P(QueryParamTest, SumMatchesEntries) {
  const int bq = GetParam();
  RabitqEncoder enc;
  RabitqConfig config;
  config.query_bits = bq;
  ASSERT_TRUE(enc.Init(77, config).ok());
  Rng rng(bq * 13);
  const auto query = RandomVec(77, &rng);
  QuantizedQuery qq;
  ASSERT_TRUE(PrepareQuery(enc, query.data(), nullptr, &rng, &qq).ok());
  std::uint32_t sum = 0;
  for (const auto v : qq.qu) sum += v;
  EXPECT_EQ(sum, qq.sum_qu);
}

INSTANTIATE_TEST_SUITE_P(QueryBits, QueryParamTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

// Returns `v` rounded to float in a way that a compiler fusing products
// into sums (-ffp-contract=fast, GCC's default for C++) cannot see through.
float Unfused(float v) {
  volatile float rounded = v;
  return rounded;
}

// The frozen reference's output. q_base, bias and kq each add two terms of
// which at least one is a product, and the compiler may fuse either product
// into the sum in the library's translation unit, so each has up to two
// more admissible roundings, one per fused product. `q` holds the unfused
// ones and every other field.
struct Reference {
  QuantizedQuery q;
  float q_base_fused = 0.0f;
  float bias_fused[2] = {};
  float kq_fused[2] = {};
};

// Frozen reference of the query quantization as first written: per-entry
// randomized rounding into a fresh vector, bit planes set one bit at a time
// and nibble LUTs built by the doubling trick. The library's preparation
// (SIMD or not) must reproduce it bit for bit.
void ReferenceQuantize(const float* q_prime, int bq, Rng* rng,
                       Reference* out) {
  QuantizedQuery* ref = &out->q;
  const std::size_t b = ref->total_bits;
  const int levels = (1 << bq) - 1;
  float lo = q_prime[0];
  float hi = q_prime[0];
  for (std::size_t i = 1; i < b; ++i) {
    lo = std::min(lo, q_prime[i]);
    hi = std::max(hi, q_prime[i]);
  }
  ref->lo = lo;
  ref->step = (hi - lo) / static_cast<float>(levels);
  ref->qu.assign(b, 0);
  ref->sum_qu = 0;
  if (ref->step <= 0.0f) {
    ref->step = 0.0f;
  } else {
    for (std::size_t i = 0; i < b; ++i) {
      const float scaled = (q_prime[i] - lo) / ref->step;
      long level = static_cast<long>(scaled + rng->UniformFloat());
      level = std::clamp(level, 0l, static_cast<long>(levels));
      ref->qu[i] = static_cast<std::uint8_t>(level);
      ref->sum_qu += static_cast<std::uint32_t>(level);
    }
  }
  const float sqrt_b = std::sqrt(static_cast<float>(b));
  ref->ip_scale = 2.0f * ref->step / sqrt_b;
  ref->pop_scale = 2.0f * ref->lo / sqrt_b;
  const float sum = static_cast<float>(ref->sum_qu);
  const float step_term = -ref->step / sqrt_b;
  ref->bias = Unfused(step_term * sum) - Unfused(sqrt_b * ref->lo);
  out->bias_fused[0] = std::fma(step_term, sum, -Unfused(sqrt_b * ref->lo));
  out->bias_fused[1] = std::fma(-sqrt_b, ref->lo, Unfused(step_term * sum));
  const float b_f = static_cast<float>(b);
  ref->kq = Unfused(ref->step * sum) + Unfused(b_f * ref->lo);
  out->kq_fused[0] = std::fma(ref->step, sum, Unfused(b_f * ref->lo));
  out->kq_fused[1] = std::fma(b_f, ref->lo, Unfused(ref->step * sum));

  ref->bit_planes.assign(static_cast<std::size_t>(bq) * ref->num_words, 0);
  for (std::size_t i = 0; i < b; ++i) {
    std::uint8_t v = ref->qu[i];
    for (int j = 0; v != 0; ++j, v >>= 1) {
      if (v & 1) SetBit(ref->bit_planes.data() + j * ref->num_words, i);
    }
  }

  ref->has_exact_luts = bq <= kMaxFastScanQueryBits;
  ref->luts.clear();
  if (!ref->has_exact_luts) return;
  ref->luts.assign(b / 4 * 16, 0);
  for (std::size_t t = 0; t < b / 4; ++t) {
    std::uint8_t* lut = ref->luts.data() + t * 16;
    for (int bit = 0; bit < 4; ++bit) {
      const int half = 1 << bit;
      for (int pattern = 0; pattern < half; ++pattern) {
        lut[half + pattern] =
            static_cast<std::uint8_t>(lut[pattern] + ref->qu[t * 4 + bit]);
      }
    }
  }
}

// Everything but the quantization: shape, q_dist, metric and q_base, and the
// all-zero query of the q_dist == 0 case. Returns false when q_dist == 0.
bool ReferenceHead(const RabitqEncoder& enc, int bq, float q_dist,
                   Metric metric, float query_norm_sq, Reference* out) {
  QuantizedQuery* ref = &out->q;
  const std::size_t b = enc.total_bits();
  ref->total_bits = b;
  ref->num_words = b / 64;
  ref->query_bits = bq;
  ref->q_dist = q_dist;
  ref->metric = metric;
  const float q_sq = Unfused(q_dist * q_dist);
  ref->q_base = metric == Metric::kL2 ? q_sq : 0.5f * (q_sq - query_norm_sq);
  out->q_base_fused = metric == Metric::kL2
                          ? q_sq
                          : 0.5f * std::fma(q_dist, q_dist, -query_norm_sq);
  if (q_dist != 0.0f) return true;
  ref->qu.assign(b, 0);
  ref->bit_planes.assign(static_cast<std::size_t>(bq) * ref->num_words, 0);
  ref->luts.assign(b / 4 * 16, 0);
  ref->has_exact_luts = true;
  ref->lo = ref->step = ref->ip_scale = ref->pop_scale = ref->bias = 0.0f;
  ref->kq = 0.0f;
  ref->sum_qu = 0;
  out->bias_fused[0] = out->bias_fused[1] = 0.0f;
  out->kq_fused[0] = out->kq_fused[1] = 0.0f;
  return false;
}

Reference ReferencePrepareQuery(const RabitqEncoder& enc, const float* query,
                                const float* centroid, int bq, Metric metric,
                                Rng* rng) {
  const std::size_t dim = enc.dim();
  std::vector<float> residual(query, query + dim);
  if (centroid != nullptr) Subtract(query, centroid, residual.data(), dim);
  const float q_dist = Norm(residual.data(), dim);
  const float norm_sq = metric == Metric::kL2 ? 0.0f : SquaredNorm(query, dim);
  Reference ref;
  if (!ReferenceHead(enc, bq, q_dist, metric, norm_sq, &ref)) return ref;
  ScaleInPlace(residual.data(), 1.0f / q_dist, dim);
  std::vector<float> q_prime(enc.total_bits());
  enc.rotator().InverseRotate(residual.data(), q_prime.data());
  ReferenceQuantize(q_prime.data(), bq, rng, &ref);
  return ref;
}

Reference ReferencePrepareFromRotated(const RabitqEncoder& enc,
                                      const float* rotated_query,
                                      const float* rotated_centroid,
                                      float q_dist, int bq, Metric metric,
                                      float query_norm_sq, Rng* rng) {
  Reference ref;
  if (!ReferenceHead(enc, bq, q_dist, metric, query_norm_sq, &ref)) return ref;
  const std::size_t b = enc.total_bits();
  const float inv = 1.0f / q_dist;
  std::vector<float> q_prime(b);
  for (std::size_t i = 0; i < b; ++i) {
    q_prime[i] = rotated_centroid != nullptr
                     ? (rotated_query[i] - rotated_centroid[i]) * inv
                     : rotated_query[i] * inv;
  }
  ReferenceQuantize(q_prime.data(), bq, rng, &ref);
  return ref;
}

std::uint32_t Bits(float v) { return std::bit_cast<std::uint32_t>(v); }

// Every output field of the preparation, floats compared by bit pattern.
::testing::AssertionResult Identical(const QuantizedQuery& got,
                                     const Reference& ref) {
  const QuantizedQuery& want = ref.q;
  auto differs = [](const char* field) {
    return ::testing::AssertionFailure() << field << " differs";
  };
  if (got.total_bits != want.total_bits) return differs("total_bits");
  if (got.num_words != want.num_words) return differs("num_words");
  if (got.query_bits != want.query_bits) return differs("query_bits");
  if (Bits(got.q_dist) != Bits(want.q_dist)) return differs("q_dist");
  if (got.metric != want.metric) return differs("metric");
  if (Bits(got.q_base) != Bits(want.q_base) &&
      Bits(got.q_base) != Bits(ref.q_base_fused)) {
    return differs("q_base");
  }
  if (Bits(got.lo) != Bits(want.lo)) return differs("lo");
  if (Bits(got.step) != Bits(want.step)) return differs("step");
  if (got.sum_qu != want.sum_qu) return differs("sum_qu");
  if (got.qu != want.qu) return differs("qu");
  if (Bits(got.ip_scale) != Bits(want.ip_scale)) return differs("ip_scale");
  if (Bits(got.pop_scale) != Bits(want.pop_scale)) return differs("pop_scale");
  if (Bits(got.bias) != Bits(want.bias) &&
      Bits(got.bias) != Bits(ref.bias_fused[0]) &&
      Bits(got.bias) != Bits(ref.bias_fused[1])) {
    return differs("bias");
  }
  if (Bits(got.kq) != Bits(want.kq) && Bits(got.kq) != Bits(ref.kq_fused[0]) &&
      Bits(got.kq) != Bits(ref.kq_fused[1])) {
    return differs("kq");
  }
  if (got.bit_planes != want.bit_planes) return differs("bit_planes");
  if (got.has_exact_luts != want.has_exact_luts) {
    return differs("has_exact_luts");
  }
  if (got.luts != want.luts) return differs("luts");
  return ::testing::AssertionSuccess();
}

constexpr Metric kMetrics[] = {Metric::kL2, Metric::kInnerProduct,
                               Metric::kCosine};

// One encoder per code length B, each with D < B so the padding is covered.
struct ReferenceFixture {
  std::size_t dim;
  RabitqEncoder enc;
};

std::vector<std::unique_ptr<ReferenceFixture>> ReferenceEncoders() {
  std::vector<std::unique_ptr<ReferenceFixture>> fixtures;
  for (const std::size_t dim : {48, 100, 1000}) {
    auto fixture = std::make_unique<ReferenceFixture>();
    fixture->dim = dim;
    RabitqConfig config;
    config.rotator = RotatorKind::kFht;  // B = 64, 128, 1024
    EXPECT_TRUE(fixture->enc.Init(dim, config).ok());
    fixtures.push_back(std::move(fixture));
  }
  return fixtures;
}

TEST(QueryTest, PreparationMatchesFrozenReferenceBitForBit) {
  // One reused output per entry point, as the engine's per-worker scratch
  // reuses it: a field that the preparation only partly overwrites would
  // keep a previous call's bytes and differ from the fresh reference.
  QuantizedQuery direct, rotated;
  for (const auto& fixture : ReferenceEncoders()) {
    const RabitqEncoder& enc = fixture->enc;
    const std::size_t dim = fixture->dim;
    const std::size_t b = enc.total_bits();
    std::vector<float> rotated_query(b), rotated_centroid(b);
    std::vector<float> residual(dim);
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
      Rng input_rng(seed);
      const auto raw_query = RandomVec(dim, &input_rng);
      const auto centroid = RandomVec(dim, &input_rng);
      // Every fourth seed probes the origin (centroid == nullptr).
      const bool at_origin = seed % 4 == 0;
      const float* c = at_origin ? nullptr : centroid.data();
      for (const Metric metric : kMetrics) {
        std::vector<float> query(raw_query);
        if (metric == Metric::kCosine) NormalizeInPlace(query.data(), dim);
        const float norm_sq = SquaredNorm(query.data(), dim);
        RotateQueryOnce(enc, query.data(), rotated_query.data());
        RotateQueryOnce(enc, centroid.data(), rotated_centroid.data());
        if (c != nullptr) {
          Subtract(query.data(), c, residual.data(), dim);
        } else {
          residual = query;
        }
        const float q_dist = Norm(residual.data(), dim);
        for (int bq = 1; bq <= 8; ++bq) {
          Rng rng(MixSeed(seed, bq)), ref_rng(MixSeed(seed, bq));
          ASSERT_TRUE(PrepareQuery(enc, query.data(), c, &rng, &direct, bq,
                                   metric)
                          .ok());
          ASSERT_TRUE(Identical(direct,
                                ReferencePrepareQuery(enc, query.data(), c, bq,
                                                      metric, &ref_rng)))
              << "PrepareQuery B=" << b << " seed=" << seed << " B_q=" << bq
              << " metric=" << MetricName(metric);
          ASSERT_EQ(rng.NextU64(), ref_rng.NextU64()) << "draw count";

          ASSERT_TRUE(PrepareQueryFromRotated(
                          enc, rotated_query.data(),
                          at_origin ? nullptr : rotated_centroid.data(),
                          q_dist, &rng, &rotated, bq, metric, norm_sq)
                          .ok());
          ASSERT_TRUE(Identical(
              rotated, ReferencePrepareFromRotated(
                           enc, rotated_query.data(),
                           at_origin ? nullptr : rotated_centroid.data(),
                           q_dist, bq, metric, norm_sq, &ref_rng)))
              << "PrepareQueryFromRotated B=" << b << " seed=" << seed
              << " B_q=" << bq << " metric=" << MetricName(metric);
          ASSERT_EQ(rng.NextU64(), ref_rng.NextU64()) << "draw count";
        }
      }
    }
  }
}

TEST(QueryTest, DegenerateAndConstantQueriesMatchFrozenReference) {
  // q_dist == 0 (query on the centroid) and a constant q' (step 0) take the
  // early exits; neither may draw from the generator.
  QuantizedQuery direct, rotated;
  for (const auto& fixture : ReferenceEncoders()) {
    const RabitqEncoder& enc = fixture->enc;
    const std::size_t dim = fixture->dim;
    const std::size_t b = enc.total_bits();
    Rng input_rng(b);
    const auto point = RandomVec(dim, &input_rng);
    const std::vector<float> rotated_point(b, 0.375f);
    for (const Metric metric : kMetrics) {
      for (int bq = 1; bq <= 8; ++bq) {
        Rng rng(bq), ref_rng(bq);
        ASSERT_TRUE(PrepareQuery(enc, point.data(), point.data(), &rng,
                                 &direct, bq, metric)
                        .ok());
        ASSERT_TRUE(Identical(direct,
                              ReferencePrepareQuery(enc, point.data(),
                                                    point.data(), bq, metric,
                                                    &ref_rng)))
            << "q_dist == 0, PrepareQuery B=" << b << " B_q=" << bq;
        for (const float q_dist : {0.0f, 2.5f}) {
          ASSERT_TRUE(PrepareQueryFromRotated(enc, rotated_point.data(),
                                              nullptr, q_dist, &rng, &rotated,
                                              bq, metric, 1.5f)
                          .ok());
          const Reference ref = ReferencePrepareFromRotated(
              enc, rotated_point.data(), nullptr, q_dist, bq, metric, 1.5f,
              &ref_rng);
          ASSERT_TRUE(Identical(rotated, ref))
              << "q_dist=" << q_dist << " B=" << b << " B_q=" << bq;
          EXPECT_EQ(ref.q.step, 0.0f);
        }
        EXPECT_EQ(rng.NextU64(), Rng(bq).NextU64()) << "drew from the rng";
      }
    }
  }
}

TEST(QueryTest, RotatedPreparationReusesItsBuffers) {
  // Steady state: once a QuantizedQuery has held one shape, preparing the
  // next list allocates nothing, so every buffer keeps its address.
  RabitqEncoder enc;
  ASSERT_TRUE(enc.Init(96, RabitqConfig{}).ok());
  const std::size_t b = enc.total_bits();
  Rng rng(12);
  const auto rotated_query = RandomVec(b, &rng);
  const auto rotated_centroid = RandomVec(b, &rng);
  QuantizedQuery qq;
  ASSERT_TRUE(PrepareQueryFromRotated(enc, rotated_query.data(),
                                      rotated_centroid.data(), 1.0f, &rng, &qq)
                  .ok());
  const auto* qu = qq.qu.data();
  const auto* planes = qq.bit_planes.data();
  const auto* luts = qq.luts.data();
  const auto* scratch = qq.unit_scratch.data();
  for (int list = 0; list < 8; ++list) {
    ASSERT_TRUE(PrepareQueryFromRotated(enc, rotated_query.data(),
                                        rotated_centroid.data(), 1.0f + list,
                                        &rng, &qq)
                    .ok());
    EXPECT_EQ(qq.qu.data(), qu);
    EXPECT_EQ(qq.bit_planes.data(), planes);
    EXPECT_EQ(qq.luts.data(), luts);
    EXPECT_EQ(qq.unit_scratch.data(), scratch);
  }
}

TEST(QueryTest, LutsEqualNibbleSums) {
  RabitqEncoder enc;
  ASSERT_TRUE(enc.Init(64, RabitqConfig{}).ok());
  Rng rng(3);
  const auto query = RandomVec(64, &rng);
  QuantizedQuery qq;
  ASSERT_TRUE(PrepareQuery(enc, query.data(), nullptr, &rng, &qq).ok());
  ASSERT_TRUE(qq.has_exact_luts);
  const std::size_t segments = enc.total_bits() / 4;
  ASSERT_EQ(qq.luts.size(), segments * 16);
  for (std::size_t t = 0; t < segments; ++t) {
    for (int pattern = 0; pattern < 16; ++pattern) {
      int expected = 0;
      for (int bit = 0; bit < 4; ++bit) {
        if (pattern & (1 << bit)) expected += qq.qu[t * 4 + bit];
      }
      ASSERT_EQ(qq.luts[t * 16 + pattern], expected);
    }
  }
}

TEST(QueryTest, NoExactLutsAboveBq6) {
  RabitqEncoder enc;
  RabitqConfig config;
  config.query_bits = 8;  // 4 * 255 > 255: u8 LUTs would clip
  ASSERT_TRUE(enc.Init(64, config).ok());
  Rng rng(4);
  const auto query = RandomVec(64, &rng);
  QuantizedQuery qq;
  ASSERT_TRUE(PrepareQuery(enc, query.data(), nullptr, &rng, &qq).ok());
  EXPECT_FALSE(qq.has_exact_luts);
  EXPECT_TRUE(qq.luts.empty());
}

TEST(QueryTest, XbarQbarIdentityAgainstFromScratch) {
  // Eq. 20: for any code x_b,
  //   <x-bar, q-bar> = ip_scale*<x_b,qu> + pop_scale*popcount + bias
  // where x-bar[i] = +-1/sqrt(B) and q-bar = lo + step*qu.
  RabitqEncoder enc;
  ASSERT_TRUE(enc.Init(96, RabitqConfig{}).ok());
  const std::size_t b = enc.total_bits();
  Rng rng(5);
  const auto query = RandomVec(96, &rng);
  QuantizedQuery qq;
  ASSERT_TRUE(PrepareQuery(enc, query.data(), nullptr, &rng, &qq).ok());

  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::uint64_t> code(WordsForBits(b), 0);
    for (std::size_t i = 0; i < b; ++i) {
      if (rng.NextU64() & 1) SetBit(code.data(), i);
    }
    const std::uint32_t pop = PopCount(code.data(), code.size());
    std::uint32_t s = 0;
    float direct = 0.0f;
    const float scale = 1.0f / std::sqrt(static_cast<float>(b));
    for (std::size_t i = 0; i < b; ++i) {
      const float x_bar = GetBit(code.data(), i) ? scale : -scale;
      const float q_bar = qq.lo + qq.step * static_cast<float>(qq.qu[i]);
      direct += x_bar * q_bar;
      if (GetBit(code.data(), i)) s += qq.qu[i];
    }
    const float via_constants = qq.ip_scale * static_cast<float>(s) +
                                qq.pop_scale * static_cast<float>(pop) +
                                qq.bias;
    EXPECT_NEAR(via_constants, direct, 1e-3f);
  }
}

TEST(QueryTest, QuantizationErrorShrinksWithBq) {
  // ||q-bar - q'|| must drop monotonically (in expectation) as B_q grows;
  // check 1 vs 4 vs 8 with generous margins.
  RabitqEncoder enc1, enc4, enc8;
  RabitqConfig c1, c4, c8;
  c1.query_bits = 1;
  c4.query_bits = 4;
  c8.query_bits = 8;
  ASSERT_TRUE(enc1.Init(128, c1).ok());
  ASSERT_TRUE(enc4.Init(128, c4).ok());
  ASSERT_TRUE(enc8.Init(128, c8).ok());

  Rng rng(6);
  double err1 = 0.0, err4 = 0.0, err8 = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    const auto query = RandomVec(128, &rng);
    std::vector<float> normalized(query);
    NormalizeInPlace(normalized.data(), 128);
    auto reconstruction_error = [&](RabitqEncoder& enc,
                                    int /*bits*/) -> double {
      QuantizedQuery qq;
      EXPECT_TRUE(PrepareQuery(enc, query.data(), nullptr, &rng, &qq).ok());
      std::vector<float> rotated(enc.total_bits());
      enc.rotator().InverseRotate(normalized.data(), rotated.data());
      double err = 0.0;
      for (std::size_t i = 0; i < rotated.size(); ++i) {
        const double recon = qq.lo + qq.step * static_cast<double>(qq.qu[i]);
        err += (recon - rotated[i]) * (recon - rotated[i]);
      }
      return err;
    };
    err1 += reconstruction_error(enc1, 1);
    err4 += reconstruction_error(enc4, 4);
    err8 += reconstruction_error(enc8, 8);
  }
  EXPECT_LT(err4, err1 * 0.2);
  EXPECT_LT(err8, err4 * 0.2);
}

TEST(QueryTest, RotatedFastPathMatchesDirectPath) {
  // PrepareQueryFromRotated (P^T q precomputed once, P^T c from the index)
  // must produce the same quantized query as the direct PrepareQuery, up to
  // float error in q'; with identical rng streams the randomized rounding
  // sees the same inputs and the codes must match exactly.
  RabitqEncoder enc;
  ASSERT_TRUE(enc.Init(96, RabitqConfig{}).ok());
  const std::size_t b = enc.total_bits();
  Rng rng(10);
  const auto query = RandomVec(96, &rng);
  const auto centroid = RandomVec(96, &rng);

  Rng rng_a(55), rng_b(55);
  QuantizedQuery direct;
  ASSERT_TRUE(
      PrepareQuery(enc, query.data(), centroid.data(), &rng_a, &direct).ok());

  std::vector<float> rotated_query(b), rotated_centroid(b);
  RotateQueryOnce(enc, query.data(), rotated_query.data());
  enc.rotator().InverseRotate(centroid.data(), rotated_centroid.data());
  std::vector<float> residual(96);
  Subtract(query.data(), centroid.data(), residual.data(), 96);
  const float q_dist = Norm(residual.data(), 96);
  QuantizedQuery fast;
  ASSERT_TRUE(PrepareQueryFromRotated(enc, rotated_query.data(),
                                      rotated_centroid.data(), q_dist, &rng_b,
                                      &fast)
                  .ok());

  EXPECT_FLOAT_EQ(fast.q_dist, direct.q_dist);
  EXPECT_NEAR(fast.lo, direct.lo, 1e-4f);
  EXPECT_NEAR(fast.step, direct.step, 1e-5f);
  // Identical rounding decisions given float-identical inputs is not
  // guaranteed (q' differs in the last ulp), so compare the quantized
  // values within one level and the derived constants loosely.
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < b; ++i) {
    mismatches += std::abs(int(fast.qu[i]) - int(direct.qu[i])) > 1 ? 1 : 0;
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_NEAR(fast.ip_scale, direct.ip_scale, 1e-6f);
}

TEST(QueryTest, RotatedFastPathRejectsBadArguments) {
  RabitqEncoder enc;
  ASSERT_TRUE(enc.Init(32, RabitqConfig{}).ok());
  Rng rng(1);
  std::vector<float> rotated(enc.total_bits(), 0.0f);
  QuantizedQuery qq;
  EXPECT_FALSE(
      PrepareQueryFromRotated(enc, nullptr, nullptr, 1.0f, &rng, &qq).ok());
  EXPECT_FALSE(PrepareQueryFromRotated(enc, rotated.data(), nullptr, -1.0f,
                                       &rng, &qq)
                   .ok());
  // q_dist == 0 is the degenerate-at-centroid case, allowed.
  EXPECT_TRUE(PrepareQueryFromRotated(enc, rotated.data(), nullptr, 0.0f, &rng,
                                      &qq)
                  .ok());
  EXPECT_FLOAT_EQ(qq.q_dist, 0.0f);
}

TEST(QueryTest, DegenerateQueryAtCentroid) {
  RabitqEncoder enc;
  ASSERT_TRUE(enc.Init(32, RabitqConfig{}).ok());
  Rng rng(7);
  std::vector<float> point(32, 2.0f);
  QuantizedQuery qq;
  ASSERT_TRUE(PrepareQuery(enc, point.data(), point.data(), &rng, &qq).ok());
  EXPECT_FLOAT_EQ(qq.q_dist, 0.0f);
}

TEST(QueryTest, RejectsNullArguments) {
  RabitqEncoder enc;
  ASSERT_TRUE(enc.Init(32, RabitqConfig{}).ok());
  Rng rng(8);
  std::vector<float> q(32, 1.0f);
  QuantizedQuery qq;
  EXPECT_FALSE(PrepareQuery(enc, nullptr, nullptr, &rng, &qq).ok());
  EXPECT_FALSE(PrepareQuery(enc, q.data(), nullptr, nullptr, &qq).ok());
  EXPECT_FALSE(PrepareQuery(enc, q.data(), nullptr, &rng, nullptr).ok());
}

}  // namespace
}  // namespace rabitq
