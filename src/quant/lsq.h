// Additive quantization baseline standing in for LSQ/LSQ++ [Martinez et al.,
// ECCV'16/'18]: a vector is approximated by the SUM of M codewords, one from
// each of M 16-entry codebooks (4-bit codes, matching the paper's LSQx4fs
// configuration). Exact LSQ encoding is NP-hard -- the paper reports >24h
// indexing on GIST -- so this implementation uses the standard practical
// scheme: greedy residual initialization + iterated conditional modes (ICM)
// re-encoding, with coordinate-descent codebook updates. This preserves the
// behaviours the paper measures: indexing far slower than PQ (Table 4) and
// accuracy that is dataset-sensitive (Fig. 3).
//
// ADC at query time: ||q - y||^2 = ||q||^2 + 2<q, -y> + ||y||^2 with
// y = sum_m c_m. LUT[m][j] = -2<q, c_mj>; ||y||^2 is precomputed per code
// at index time, so the accumulation is LUT sums + one stored scalar --
// exactly the fast-scan form, like PQ.

#ifndef RABITQ_QUANT_LSQ_H_
#define RABITQ_QUANT_LSQ_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "quant/fastscan.h"
#include "util/aligned_buffer.h"
#include "util/status.h"

namespace rabitq {

struct LsqConfig {
  /// Number of additive codebooks M (16 entries each; 4 bits per code).
  std::size_t num_codebooks = 8;
  /// Outer training rounds (each = full ICM re-encode + codebook update).
  int train_iterations = 4;
  /// ICM sweeps per encode call.
  int icm_iterations = 2;
  /// Subsample cap for training (0 = all points).
  std::size_t max_training_points = 10000;
  std::uint64_t seed = 13;
};

/// Additive ("local search") quantizer with 4-bit codes.
class AdditiveQuantizer {
 public:
  Status Train(const Matrix& data, const LsqConfig& config);

  std::size_t dim() const { return dim_; }
  std::size_t num_codebooks() const { return config_.num_codebooks; }
  std::size_t code_bits() const { return num_codebooks() * 4; }
  const Matrix& codebook(std::size_t m) const { return codebooks_[m]; }

  /// Encodes one vector into num_codebooks() nibble bytes via greedy
  /// initialization + ICM refinement; also returns ||reconstruction||^2.
  void Encode(const float* vec, std::uint8_t* code, float* recon_sq) const;

  /// Encodes all rows (threaded); `recon_sq` gets one float per row.
  void EncodeBatch(const Matrix& data, std::vector<std::uint8_t>* codes,
                   std::vector<float>* recon_sq) const;

  /// Reconstructs y = sum_m codebook_m[code[m]].
  void Decode(const std::uint8_t* code, float* out) const;

  /// LUT[m][j] = -2 <query, c_mj>  (num_codebooks x 16 floats).
  void ComputeLookupTables(const float* query,
                           AlignedVector<float>* luts) const;

  /// Estimated squared distance = query_sq + sum_m LUT[m][code[m]] + recon_sq.
  float EstimateWithLuts(const std::uint8_t* code, const float* luts,
                         float recon_sq, float query_sq) const;

  Status PackForFastScan(const std::vector<std::uint8_t>& codes, std::size_t n,
                         FastScanCodes* out) const;

 private:
  LsqConfig config_;
  std::size_t dim_ = 0;
  std::vector<Matrix> codebooks_;  // M matrices of 16 x dim
};

}  // namespace rabitq

#endif  // RABITQ_QUANT_LSQ_H_
