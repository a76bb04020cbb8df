// Uniform scalar quantization. Two flavors:
//  * SQ8: classic per-dimension 8-bit quantizer (related-work baseline and a
//    building block for PQ's LUT compression).
//  * RandomizedUniform: the unbiased randomized rounding of paper Eq. (18),
//    used by the RaBitQ query quantization (Section 3.3.1) and analyzed by
//    Theorem 3.3. Rounding v = vl + m*delta + t goes up with probability
//    t/delta, down otherwise, so E[round(v)] = v. It writes its codes into
//    caller memory and allocates nothing.

#ifndef RABITQ_QUANT_SCALAR_QUANTIZER_H_
#define RABITQ_QUANT_SCALAR_QUANTIZER_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "util/prng.h"
#include "util/status.h"

namespace rabitq {

/// Per-dimension 8-bit min/max scalar quantizer.
class ScalarQuantizer8 {
 public:
  /// Learns per-dimension [min, max] ranges from training data.
  Status Train(const Matrix& data);

  std::size_t dim() const { return lo_.size(); }

  /// Encodes one vector into dim() bytes (values clamped into range).
  void Encode(const float* vec, std::uint8_t* code) const;

  /// Decodes a code back to floats (segment midpoint reconstruction).
  void Decode(const std::uint8_t* code, float* out) const;

  /// Estimated squared distance between a raw query and an encoded vector.
  float EstimateSquaredDistance(const float* query,
                                const std::uint8_t* code) const;

 private:
  std::vector<float> lo_;
  std::vector<float> step_;  // (hi - lo) / 255, 0 for constant dims
};

/// Scalars of one randomized uniform quantization; the codes themselves go
/// to caller memory.
struct RandomizedQuantization {
  float lo = 0.0f;        // v_l
  float step = 0.0f;      // Delta
  std::uint32_t sum = 0;  // sum_i codes[i]
};

/// Quantizes `vec` (`dim` floats) into `dim` `bits`-bit unsigned integers,
/// written to `codes`, with unbiased randomized rounding (paper Eq. 18).
/// `bits` must be in [1, 8]. v_l = min(vec) and Delta = (max - min) /
/// (2^bits - 1); entry i becomes clamp(trunc((vec[i] - v_l) / Delta + u_i))
/// with one rng->UniformFloat() draw u_i per entry, in index order. A
/// constant vector (Delta <= 0) quantizes to all zeros and draws nothing.
/// Allocates nothing: `codes` must hold `dim` bytes.
Status RandomizedUniformQuantize(const float* vec, std::size_t dim, int bits,
                                 Rng* rng, std::uint8_t* codes,
                                 RandomizedQuantization* out);

}  // namespace rabitq

#endif  // RABITQ_QUANT_SCALAR_QUANTIZER_H_
