#include "core/query.h"

#include <algorithm>
#include <cmath>

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

// Shared tail: randomized scalar quantization of the rotated unit residual
// q' (B floats), Eq. 20 constants, bit planes and nibble LUTs.
Status QuantizeRotatedUnit(const float* q_prime, std::size_t b, Rng* rng,
                           QuantizedQuery* out) {
  RandomizedQuantizedVector quantized;
  RABITQ_RETURN_IF_ERROR(RandomizedUniformQuantize(q_prime, b, out->query_bits,
                                                   rng, &quantized));
  out->lo = quantized.lo;
  out->step = quantized.step;
  out->sum_qu = quantized.sum;
  out->qu.assign(quantized.codes.begin(), quantized.codes.end());

  const float sqrt_b = std::sqrt(static_cast<float>(b));
  out->ip_scale = 2.0f * out->step / sqrt_b;
  out->pop_scale = 2.0f * out->lo / sqrt_b;
  out->bias = -out->step / sqrt_b * static_cast<float>(out->sum_qu) -
              sqrt_b * out->lo;
  out->kq = out->step * static_cast<float>(out->sum_qu) +
            static_cast<float>(b) * out->lo;

  // Bit planes: plane j, bit i = j-th bit of qu[i] (Eq. 22).
  out->bit_planes.assign(
      static_cast<std::size_t>(out->query_bits) * out->num_words, 0);
  for (std::size_t i = 0; i < b; ++i) {
    std::uint8_t v = out->qu[i];
    int j = 0;
    while (v != 0) {
      if (v & 1) SetBit(out->bit_planes.data() + j * out->num_words, i);
      v >>= 1;
      ++j;
    }
  }

  // Nibble LUTs for the fast-scan batch path: LUT[t][pattern] =
  // sum of qu[4t + bit] over set bits of the pattern. Exact in u8 iff the
  // largest possible entry 4*(2^B_q - 1) fits.
  out->has_exact_luts = out->query_bits <= kMaxFastScanQueryBits;
  if (out->has_exact_luts) {
    const std::size_t num_segments = b / 4;
    out->luts.assign(num_segments * 16, 0);
    for (std::size_t t = 0; t < num_segments; ++t) {
      const std::uint8_t* q_seg = out->qu.data() + t * 4;
      std::uint8_t* lut = out->luts.data() + t * 16;
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
