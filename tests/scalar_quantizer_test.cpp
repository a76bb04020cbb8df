// Tests for scalar quantization: SQ8 range learning / round trips, and the
// randomized uniform quantizer's unbiasedness (the Eq. 18 property RaBitQ's
// query quantization rests on).

#include <gtest/gtest.h>

#include <cmath>

#include "quant/scalar_quantizer.h"
#include "util/prng.h"

namespace rabitq {
namespace {

TEST(ScalarQuantizer8Test, RoundTripWithinStep) {
  Rng rng(1);
  Matrix data(200, 16);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.data()[i] = static_cast<float>(rng.Gaussian()) * 5.0f;
  }
  ScalarQuantizer8 sq;
  ASSERT_TRUE(sq.Train(data).ok());
  std::vector<std::uint8_t> code(16);
  std::vector<float> decoded(16);
  for (std::size_t i = 0; i < 20; ++i) {
    sq.Encode(data.Row(i), code.data());
    sq.Decode(code.data(), decoded.data());
    for (std::size_t j = 0; j < 16; ++j) {
      // Error bounded by one quantization step (range / 255).
      EXPECT_NEAR(decoded[j], data.At(i, j), 5.0f * 10.0f / 255.0f + 1e-4f);
    }
  }
}

TEST(ScalarQuantizer8Test, ConstantDimensionIsExact) {
  Matrix data(10, 2);
  for (std::size_t i = 0; i < 10; ++i) {
    data.At(i, 0) = 7.5f;                        // constant
    data.At(i, 1) = static_cast<float>(i);       // varying
  }
  ScalarQuantizer8 sq;
  ASSERT_TRUE(sq.Train(data).ok());
  std::uint8_t code[2];
  float decoded[2];
  sq.Encode(data.Row(3), code);
  sq.Decode(code, decoded);
  EXPECT_FLOAT_EQ(decoded[0], 7.5f);
}

TEST(ScalarQuantizer8Test, EstimateMatchesDecodedDistance) {
  Rng rng(2);
  Matrix data(100, 8);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.data()[i] = static_cast<float>(rng.Gaussian());
  }
  ScalarQuantizer8 sq;
  ASSERT_TRUE(sq.Train(data).ok());
  std::vector<float> query(8, 0.25f);
  std::uint8_t code[8];
  float decoded[8];
  sq.Encode(data.Row(0), code);
  sq.Decode(code, decoded);
  float manual = 0.0f;
  for (int j = 0; j < 8; ++j) {
    manual += (query[j] - decoded[j]) * (query[j] - decoded[j]);
  }
  EXPECT_NEAR(sq.EstimateSquaredDistance(query.data(), code), manual, 1e-5f);
}

TEST(ScalarQuantizer8Test, RejectsEmptyTrainingData) {
  ScalarQuantizer8 sq;
  EXPECT_FALSE(sq.Train(Matrix()).ok());
}

class RandomizedQuantizeParamTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomizedQuantizeParamTest, CodesStayInRange) {
  const int bits = GetParam();
  Rng rng(bits);
  std::vector<float> v(256);
  for (auto& x : v) x = static_cast<float>(rng.Gaussian());
  std::vector<std::uint8_t> codes(v.size());
  RandomizedQuantization q;
  ASSERT_TRUE(RandomizedUniformQuantize(v.data(), v.size(), bits, &rng,
                                        codes.data(), &q)
                  .ok());
  const int max_level = (1 << bits) - 1;
  std::uint32_t sum = 0;
  for (const auto code : codes) {
    EXPECT_LE(code, max_level);
    sum += code;
  }
  EXPECT_EQ(sum, q.sum);
}

TEST_P(RandomizedQuantizeParamTest, ReconstructionErrorBoundedByStep) {
  const int bits = GetParam();
  Rng rng(bits + 100);
  std::vector<float> v(128);
  for (auto& x : v) x = static_cast<float>(rng.Gaussian());
  std::vector<std::uint8_t> codes(v.size());
  RandomizedQuantization q;
  ASSERT_TRUE(RandomizedUniformQuantize(v.data(), v.size(), bits, &rng,
                                        codes.data(), &q)
                  .ok());
  for (std::size_t i = 0; i < v.size(); ++i) {
    const float recon = q.lo + q.step * static_cast<float>(codes[i]);
    EXPECT_NEAR(recon, v[i], q.step + 1e-6f);
  }
}

TEST_P(RandomizedQuantizeParamTest, RoundingIsUnbiased) {
  // Quantize the same vector many times with fresh randomness; the mean
  // reconstruction must converge to the true value (Eq. 18's property).
  const int bits = GetParam();
  Rng rng(42);
  std::vector<float> v(16);
  for (auto& x : v) x = static_cast<float>(rng.Gaussian());
  std::vector<double> mean(v.size(), 0.0);
  const int trials = 4000;
  std::vector<std::uint8_t> codes(v.size());
  for (int t = 0; t < trials; ++t) {
    RandomizedQuantization q;
    ASSERT_TRUE(RandomizedUniformQuantize(v.data(), v.size(), bits, &rng,
                                          codes.data(), &q)
                    .ok());
    for (std::size_t i = 0; i < v.size(); ++i) {
      mean[i] += q.lo + q.step * static_cast<double>(codes[i]);
    }
  }
  // Tolerance scales with the step size (smaller for more bits) and the
  // Monte-Carlo noise.
  const float range = *std::max_element(v.begin(), v.end()) -
                      *std::min_element(v.begin(), v.end());
  const double step = range / ((1 << bits) - 1);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(mean[i] / trials, v[i], 4.0 * step / std::sqrt(trials) + 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, RandomizedQuantizeParamTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

TEST(RandomizedQuantizeTest, ConstantVectorQuantizesToZeroLevels) {
  std::vector<float> v(32, 3.0f);
  Rng rng(1);
  std::vector<std::uint8_t> codes(v.size());
  RandomizedQuantization q;
  ASSERT_TRUE(
      RandomizedUniformQuantize(v.data(), v.size(), 4, &rng, codes.data(), &q)
          .ok());
  EXPECT_EQ(q.sum, 0u);
  EXPECT_FLOAT_EQ(q.lo, 3.0f);
  EXPECT_FLOAT_EQ(q.step, 0.0f);
}

TEST(RandomizedQuantizeTest, RejectsBadArguments) {
  std::vector<float> v(4, 1.0f);
  Rng rng(1);
  std::uint8_t codes[4];
  RandomizedQuantization q;
  EXPECT_FALSE(RandomizedUniformQuantize(v.data(), 4, 0, &rng, codes, &q).ok());
  EXPECT_FALSE(RandomizedUniformQuantize(v.data(), 4, 9, &rng, codes, &q).ok());
  EXPECT_FALSE(RandomizedUniformQuantize(nullptr, 4, 4, &rng, codes, &q).ok());
  EXPECT_FALSE(RandomizedUniformQuantize(v.data(), 0, 4, &rng, codes, &q).ok());
}

}  // namespace
}  // namespace rabitq
