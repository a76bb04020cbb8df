#include "core/query.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "linalg/vector_ops.h"
#include "quant/scalar_quantizer.h"
#include "util/bit_ops.h"

namespace rabitq {

namespace {

// Query coincides with the centroid: every distance is exactly
// dist_to_centroid^2 and the estimator short-circuits on q_dist == 0.
void FillDegenerate(std::size_t b, QuantizedQuery* out) {
  out->qu.assign(b, 0);
  out->bit_planes.assign(
      static_cast<std::size_t>(out->query_bits) * out->num_words, 0);
  out->luts.assign((b / 4) * 16, 0);
  out->has_exact_luts = true;
  out->lo = out->step = out->ip_scale = out->pop_scale = out->bias = 0.0f;
  out->kq = 0.0f;
  out->sum_qu = 0;
}

// Bakes the metric-dependent additive score base into the query (see
// QuantizedQuery::q_base). Requires out->q_dist to be final. Under kL2 the
// expression is exactly the q_dist * q_dist the kernels used to compute
// locally, keeping L2 assembly bitwise unchanged.
void SetMetricBase(Metric metric, float query_norm_sq, QuantizedQuery* out) {
  out->metric = metric;
  const float q_sq = out->q_dist * out->q_dist;
  out->q_base =
      metric == Metric::kL2 ? q_sq : 0.5f * (q_sq - query_norm_sq);
}

#if defined(__AVX2__)

// Plane j, bit i = j-th bit of qu[i] (Eq. 22), one 64-bit word per 64
// entries (B is a multiple of 64, so there is no tail). A 16-bit left shift
// by 7 - j lifts bit j of every byte to that byte's top bit, which
// movemask gathers, 32 entries at a time.
void BuildBitPlanes(const std::uint8_t* qu, std::size_t b, int query_bits,
                    std::uint64_t* planes) {
  const std::size_t num_words = b / 64;
  for (std::size_t w = 0; w < num_words; ++w) {
    const __m256i lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(qu + 64 * w));
    const __m256i hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(qu + 64 * w + 32));
    for (int j = 0; j < query_bits; ++j) {
      const __m128i shift = _mm_cvtsi32_si128(7 - j);
      const auto lo_bits = static_cast<std::uint32_t>(
          _mm256_movemask_epi8(_mm256_sll_epi16(lo, shift)));
      const auto hi_bits = static_cast<std::uint32_t>(
          _mm256_movemask_epi8(_mm256_sll_epi16(hi, shift)));
      planes[static_cast<std::size_t>(j) * num_words + w] =
          lo_bits | (std::uint64_t{hi_bits} << 32);
    }
  }
}

// Nibble LUTs for the fast-scan batch path: LUT[t][pattern] = sum of
// qu[4t + bit] over the set bits of the pattern. All 16 subset sums of a
// segment at once, two segments per register (B / 4 is even): entry `bit`
// of each segment is broadcast across its 128-bit lane, ANDed with the mask
// of the patterns that hold `bit`, and added. u8 adds wrap exactly as the
// scalar build's static_cast<std::uint8_t> does.
void BuildNibbleLuts(const std::uint8_t* qu, std::size_t num_segments,
                     std::uint8_t* luts) {
  const __m256i patterns = _mm256_setr_epi8(
      0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
      0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  __m256i pattern_mask[4];  // byte p = 0xFF iff pattern p has `bit` set
  __m256i pick[4];  // lane 0 takes byte `bit`, lane 1 byte 4 + `bit`
  for (int bit = 0; bit < 4; ++bit) {
    const __m256i bit_value = _mm256_set1_epi8(static_cast<char>(1 << bit));
    pattern_mask[bit] = _mm256_cmpeq_epi8(
        _mm256_and_si256(patterns, bit_value), bit_value);
    pick[bit] = _mm256_inserti128_si256(
        _mm256_castsi128_si256(_mm_set1_epi8(static_cast<char>(bit))),
        _mm_set1_epi8(static_cast<char>(4 + bit)), 1);
  }
  for (std::size_t t = 0; t < num_segments; t += 2) {
    std::uint64_t pair_entries = 0;  // qu[4t .. 4t + 8)
    std::memcpy(&pair_entries, qu + 4 * t, sizeof(pair_entries));
    const __m256i entries =
        _mm256_set1_epi64x(static_cast<long long>(pair_entries));
    __m256i lut = _mm256_setzero_si256();
    for (int bit = 0; bit < 4; ++bit) {
      lut = _mm256_add_epi8(
          lut, _mm256_and_si256(_mm256_shuffle_epi8(entries, pick[bit]),
                                pattern_mask[bit]));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(luts + 16 * t), lut);
  }
}

#else  // !defined(__AVX2__)

// Plane j, bit i = j-th bit of qu[i] (Eq. 22).
void BuildBitPlanes(const std::uint8_t* qu, std::size_t b, int query_bits,
                    std::uint64_t* planes) {
  const std::size_t num_words = WordsForBits(b);
  std::fill_n(planes, static_cast<std::size_t>(query_bits) * num_words,
              std::uint64_t{0});
  for (std::size_t i = 0; i < b; ++i) {
    std::uint8_t v = qu[i];
    int j = 0;
    while (v != 0) {
      if (v & 1) SetBit(planes + j * num_words, i);
      v >>= 1;
      ++j;
    }
  }
}

// Nibble LUTs for the fast-scan batch path: LUT[t][pattern] = sum of
// qu[4t + bit] over set bits of the pattern.
void BuildNibbleLuts(const std::uint8_t* qu, std::size_t num_segments,
                     std::uint8_t* luts) {
  for (std::size_t t = 0; t < num_segments; ++t) {
    const std::uint8_t* q_seg = qu + t * 4;
    std::uint8_t* lut = luts + t * 16;
    // Build the 16 subset sums with the standard doubling trick.
    lut[0] = 0;
    for (int bit = 0; bit < 4; ++bit) {
      const int half = 1 << bit;
      for (int pattern = 0; pattern < half; ++pattern) {
        lut[half + pattern] =
            static_cast<std::uint8_t>(lut[pattern] + q_seg[bit]);
      }
    }
  }
}

#endif  // defined(__AVX2__)

// Shared tail: randomized scalar quantization of the rotated unit residual
// q' (B floats) straight into out->qu, Eq. 20 constants, bit planes and
// nibble LUTs. Every output is overwritten in full, so a reused `out`
// allocates nothing.
Status QuantizeRotatedUnit(const float* q_prime, std::size_t b, Rng* rng,
                           QuantizedQuery* out) {
  out->qu.resize(b);
  RandomizedQuantization quantized;
  RABITQ_RETURN_IF_ERROR(RandomizedUniformQuantize(
      q_prime, b, out->query_bits, rng, out->qu.data(), &quantized));
  out->lo = quantized.lo;
  out->step = quantized.step;
  out->sum_qu = quantized.sum;

  const float sqrt_b = std::sqrt(static_cast<float>(b));
  out->ip_scale = 2.0f * out->step / sqrt_b;
  out->pop_scale = 2.0f * out->lo / sqrt_b;
  out->bias = -out->step / sqrt_b * static_cast<float>(out->sum_qu) -
              sqrt_b * out->lo;
  out->kq = out->step * static_cast<float>(out->sum_qu) +
            static_cast<float>(b) * out->lo;

  out->bit_planes.resize(static_cast<std::size_t>(out->query_bits) *
                         out->num_words);
  BuildBitPlanes(out->qu.data(), b, out->query_bits, out->bit_planes.data());

  // The LUTs are exact in u8 iff the largest possible entry 4*(2^B_q - 1)
  // fits.
  out->has_exact_luts = out->query_bits <= kMaxFastScanQueryBits;
  if (out->has_exact_luts) {
    const std::size_t num_segments = b / 4;
    out->luts.resize(num_segments * 16);
    BuildNibbleLuts(out->qu.data(), num_segments, out->luts.data());
  } else {
    out->luts.clear();
  }
  return Status::Ok();
}

}  // namespace

void RotateQueryOnce(const RabitqEncoder& encoder, const float* query_raw,
                     float* out) {
  encoder.rotator().InverseRotate(query_raw, out);
}

Status PrepareQuery(const RabitqEncoder& encoder, const float* query_raw,
                    const float* centroid, Rng* rng, QuantizedQuery* out,
                    int query_bits_override, Metric metric) {
  if (query_raw == nullptr || rng == nullptr || out == nullptr) {
    return Status::InvalidArgument("bad arguments");
  }
  if (query_bits_override < 0 || query_bits_override > 8) {
    return Status::InvalidArgument("query_bits_override out of range");
  }
  const std::size_t dim = encoder.dim();
  const std::size_t b = encoder.total_bits();
  out->total_bits = b;
  out->num_words = WordsForBits(b);
  out->query_bits = query_bits_override > 0 ? query_bits_override
                                            : encoder.config().query_bits;

  std::vector<float> residual(dim);
  if (centroid != nullptr) {
    Subtract(query_raw, centroid, residual.data(), dim);
  } else {
    std::copy_n(query_raw, dim, residual.data());
  }
  out->q_dist = Norm(residual.data(), dim);
  const float query_norm_sq =
      metric == Metric::kL2 ? 0.0f : SquaredNorm(query_raw, dim);
  SetMetricBase(metric, query_norm_sq, out);
  if (out->q_dist == 0.0f) {
    FillDegenerate(b, out);
    return Status::Ok();
  }
  ScaleInPlace(residual.data(), 1.0f / out->q_dist, dim);

  // q' = P^T q (padded).
  std::vector<float> rotated(b);
  encoder.rotator().InverseRotate(residual.data(), rotated.data());
  return QuantizeRotatedUnit(rotated.data(), b, rng, out);
}

Status PrepareQueryFromRotated(const RabitqEncoder& encoder,
                               const float* rotated_query,
                               const float* rotated_centroid, float q_dist,
                               Rng* rng, QuantizedQuery* out,
                               int query_bits_override, Metric metric,
                               float query_norm_sq) {
  if (rotated_query == nullptr || rng == nullptr || out == nullptr) {
    return Status::InvalidArgument("bad arguments");
  }
  if (query_bits_override < 0 || query_bits_override > 8) {
    return Status::InvalidArgument("query_bits_override out of range");
  }
  if (q_dist < 0.0f) return Status::InvalidArgument("negative q_dist");
  const std::size_t b = encoder.total_bits();
  out->total_bits = b;
  out->num_words = WordsForBits(b);
  out->query_bits = query_bits_override > 0 ? query_bits_override
                                            : encoder.config().query_bits;
  out->q_dist = q_dist;
  SetMetricBase(metric, query_norm_sq, out);
  if (q_dist == 0.0f) {
    FillDegenerate(b, out);
    return Status::Ok();
  }
  // q' = (P^T q - P^T c) / ||q - c||: one subtract-and-scale over B floats.
  out->unit_scratch.resize(b);
  float* rotated = out->unit_scratch.data();
  const float inv = 1.0f / q_dist;
  if (rotated_centroid != nullptr) {
    for (std::size_t i = 0; i < b; ++i) {
      rotated[i] = (rotated_query[i] - rotated_centroid[i]) * inv;
    }
  } else {
    for (std::size_t i = 0; i < b; ++i) rotated[i] = rotated_query[i] * inv;
  }
  return QuantizeRotatedUnit(rotated, b, rng, out);
}

}  // namespace rabitq
