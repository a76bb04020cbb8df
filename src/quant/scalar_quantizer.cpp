#include "quant/scalar_quantizer.h"

#include <algorithm>
#include <cmath>

namespace rabitq {

Status ScalarQuantizer8::Train(const Matrix& data) {
  if (data.rows() == 0 || data.cols() == 0) {
    return Status::InvalidArgument("empty training data");
  }
  const std::size_t dim = data.cols();
  lo_.assign(dim, 0.0f);
  step_.assign(dim, 0.0f);
  std::vector<float> hi(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    lo_[j] = data.At(0, j);
    hi[j] = data.At(0, j);
  }
  for (std::size_t i = 1; i < data.rows(); ++i) {
    const float* row = data.Row(i);
    for (std::size_t j = 0; j < dim; ++j) {
      lo_[j] = std::min(lo_[j], row[j]);
      hi[j] = std::max(hi[j], row[j]);
    }
  }
  for (std::size_t j = 0; j < dim; ++j) step_[j] = (hi[j] - lo_[j]) / 255.0f;
  return Status::Ok();
}

void ScalarQuantizer8::Encode(const float* vec, std::uint8_t* code) const {
  for (std::size_t j = 0; j < dim(); ++j) {
    if (step_[j] <= 0.0f) {
      code[j] = 0;
      continue;
    }
    const float scaled = (vec[j] - lo_[j]) / step_[j];
    code[j] = static_cast<std::uint8_t>(
        std::clamp(std::lround(scaled), 0l, 255l));
  }
}

void ScalarQuantizer8::Decode(const std::uint8_t* code, float* out) const {
  for (std::size_t j = 0; j < dim(); ++j) {
    out[j] = lo_[j] + step_[j] * static_cast<float>(code[j]);
  }
}

float ScalarQuantizer8::EstimateSquaredDistance(
    const float* query, const std::uint8_t* code) const {
  float acc = 0.0f;
  for (std::size_t j = 0; j < dim(); ++j) {
    const float d = query[j] - (lo_[j] + step_[j] * static_cast<float>(code[j]));
    acc += d * d;
  }
  return acc;
}

Status RandomizedUniformQuantize(const float* vec, std::size_t dim, int bits,
                                 Rng* rng, std::uint8_t* codes,
                                 RandomizedQuantization* out) {
  if (bits < 1 || bits > 8) {
    return Status::InvalidArgument("bits must be in [1, 8]");
  }
  if (dim == 0 || vec == nullptr || rng == nullptr || codes == nullptr ||
      out == nullptr) {
    return Status::InvalidArgument("bad arguments");
  }
  const int levels = (1 << bits) - 1;  // 2^B - 1 segments
  float lo = vec[0];
  float hi = vec[0];
  for (std::size_t i = 1; i < dim; ++i) {
    lo = std::min(lo, vec[i]);
    hi = std::max(hi, vec[i]);
  }
  const float step = (hi - lo) / static_cast<float>(levels);
  out->lo = lo;
  if (step <= 0.0f) {
    // Constant vector: every value quantizes to level 0 exactly.
    out->step = 0.0f;
    out->sum = 0;
    std::fill_n(codes, dim, std::uint8_t{0});
    return Status::Ok();
  }
  // The generator and the sum live in locals: a store through `codes` may
  // alias *rng or *out, which would force a reload every entry.
  Rng local_rng = *rng;
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < dim; ++i) {
    // Eq. (18): floor((v - vl)/Delta + u), u ~ U[0,1).
    const float scaled = (vec[i] - lo) / step;
    long level = static_cast<long>(scaled + local_rng.UniformFloat());
    level = std::clamp(level, 0l, static_cast<long>(levels));
    codes[i] = static_cast<std::uint8_t>(level);
    sum += static_cast<std::uint32_t>(level);
  }
  *rng = local_rng;
  out->step = step;
  out->sum = sum;
  return Status::Ok();
}

}  // namespace rabitq
