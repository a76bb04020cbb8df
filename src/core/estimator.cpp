#include "core/estimator.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "quant/fastscan.h"
#include "util/bit_ops.h"

namespace rabitq {

namespace {

// One lane of the fused assembly, written so that every operation maps 1:1
// onto the AVX2 kernel below (explicit std::fma <-> fmadd/fnmadd, lone
// mul/add <-> mul_ps/add_ps). The explicit fma calls are not just speed:
// they pin the rounding sequence so the compiler cannot contract the scalar
// path differently from the hand-written SIMD path, which is what keeps the
// two bit-identical.
//
// Edge handling mirrors the kernel's blends, L2 ONLY (`l2_edges`): a
// q_dist == 0 query overrides the whole lane with f_sq, then a
// dist_to_centroid == 0 code wins with q_base (== q_dist^2 under kL2).
// (For codes produced by Append the blends are actually no-ops -- d == 0
// implies f_sq = f_cross = 0 and f_err = 0, so the arithmetic already lands
// on the same values -- but the blends keep the contract independent of
// those identities.) Under IP/cosine no blends are needed OR wanted: either
// edge zeroes the cross term, and f_sq + q_base is then EXACTLY -<o,q>
// (resp. -<c,q>), so the straight-line arithmetic is already exact.
inline void AssembleLane(float s_f, float pc_f, float d, float f_sq,
                         float f_cross, float f_inv_oo, float f_err,
                         float q_dist, float q_base, float ip_scale,
                         float pop_scale, float bias, float epsilon0,
                         bool l2_edges, float* dist_out, float* lb_out) {
  const float x_qbar = std::fma(ip_scale, s_f, std::fma(pop_scale, pc_f, bias));
  const float ip = x_qbar * f_inv_oo;
  const float cross = f_cross * q_dist;
  const float base = f_sq + q_base;
  float dist = std::fma(-cross, ip, base);
  float lb = epsilon0 > 0.0f ? std::fma(-cross, f_err * epsilon0, dist) : dist;
  if (l2_edges) {
    if (q_dist == 0.0f) {
      dist = f_sq;
      lb = f_sq;
    }
    if (d == 0.0f) {
      dist = q_base;
      lb = q_base;
    }
  }
  *dist_out = dist;
  *lb_out = lb;
}

// Assembles the distance estimate from the raw bit dot product S = <x_b, qu>.
// Same per-lane operation order as AssembleLane (early returns instead of
// blends -- the values are identical), plus the ip/ip_error outputs the
// batch path does not carry.
inline DistanceEstimate Assemble(const QuantizedQuery& query,
                                 const RabitqCodeView& code, std::uint32_t s,
                                 float epsilon0, bool unbias) {
  DistanceEstimate est;
  // The exact-edge early returns are L2-only, mirroring AssembleLane's
  // gated blends; under IP/cosine the straight-line arithmetic below is
  // already exact at both edges (cross = 0).
  if (query.metric == Metric::kL2) {
    if (code.dist_to_centroid == 0.0f) {
      est.dist_sq = query.q_base;
      est.lower_bound_sq = est.dist_sq;
      est.ip = 1.0f;
      return est;
    }
    if (query.q_dist == 0.0f) {
      est.dist_sq = code.f_sq;
      est.lower_bound_sq = est.dist_sq;
      est.ip = 1.0f;
      return est;
    }
  }
  // Eq. 20: <x-bar, q-bar>.
  const float x_qbar =
      std::fma(query.ip_scale, static_cast<float>(s),
               std::fma(query.pop_scale, static_cast<float>(code.bit_count),
                        query.bias));
  // Thm 3.2: multiply by the precomputed 1/<o-bar, o> for unbiasedness; the
  // biased ablation (Appendix F.2) keeps <o-bar, q> as-is.
  est.ip = unbias ? x_qbar * code.f_inv_oo : x_qbar;
  const float cross = code.f_cross * query.q_dist;
  const float base = code.f_sq + query.q_base;
  est.dist_sq = std::fma(-cross, est.ip, base);
  if (epsilon0 > 0.0f) {
    est.ip_error = code.f_err * epsilon0;
    est.lower_bound_sq = std::fma(-cross, est.ip_error, est.dist_sq);
  } else {
    est.lower_bound_sq = est.dist_sq;
  }
  return est;
}

// One lane of the multi-bit refine assembly (stage 2); the same 1:1
// scalar/SIMD operation-order discipline as AssembleLane. The front end
// differs -- <x-bar, q-bar> comes from the weighted plane sum S and the
// per-code (m_alpha, m_beta) affine map -- but from `ip` on the arithmetic
// is AssembleLane's, just fed the tighter m_inv_oo / m_err factors.
inline void AssembleMultiLane(float s_f, float u_f, float d, float f_sq,
                              float f_cross, float m_alpha, float m_beta,
                              float m_inv_oo, float m_err, float q_dist,
                              float q_base, float step, float lo, float kq,
                              float epsilon0, bool l2_edges, float* dist_out,
                              float* lb_out) {
  const float s_mul = step * s_f;
  const float inner = std::fma(lo, u_f, s_mul);
  const float bk = m_beta * kq;
  const float x_qbar = std::fma(m_alpha, inner, bk);
  const float ip = x_qbar * m_inv_oo;
  const float cross = f_cross * q_dist;
  const float base = f_sq + q_base;
  float dist = std::fma(-cross, ip, base);
  float lb = epsilon0 > 0.0f ? std::fma(-cross, m_err * epsilon0, dist) : dist;
  if (l2_edges) {
    if (q_dist == 0.0f) {
      dist = f_sq;
      lb = f_sq;
    }
    if (d == 0.0f) {
      dist = q_base;
      lb = q_base;
    }
  }
  *dist_out = dist;
  *lb_out = lb;
}

// Scalar multi-bit refine over the candidate lanes of [0, count); returns
// the refined survivors mask (candidate lanes with lb <= threshold).
inline std::uint32_t MultiBlockScalar(const QuantizedQuery& query,
                                      const RabitqCodeStore& store,
                                      std::size_t begin,
                                      const std::uint32_t* multi_sums,
                                      std::size_t count, float epsilon0,
                                      float prune_threshold,
                                      std::uint32_t candidate_mask,
                                      float* dist_sq, float* lower_bounds) {
  const float* d_arr = store.dist_to_centroid_data() + begin;
  const float* f_sq = store.f_sq_data() + begin;
  const float* f_cross = store.f_cross_data() + begin;
  const float* m_alpha = store.m_alpha_data() + begin;
  const float* m_beta = store.m_beta_data() + begin;
  const float* m_inv = store.m_inv_oo_data() + begin;
  const float* m_err = store.m_err_data() + begin;
  const float* u_sum = store.m_code_sum_data() + begin;
  const bool l2_edges = query.metric == Metric::kL2;
  std::uint32_t mask = 0;
  for (std::size_t k = 0; k < count; ++k) {
    if (((candidate_mask >> k) & 1u) == 0) continue;
    float dist = 0.0f, lb = 0.0f;
    AssembleMultiLane(static_cast<float>(multi_sums[k]), u_sum[k], d_arr[k],
                      f_sq[k], f_cross[k], m_alpha[k], m_beta[k], m_inv[k],
                      m_err[k], query.q_dist, query.q_base, query.step,
                      query.lo, query.kq, epsilon0, l2_edges, &dist, &lb);
    dist_sq[k] = dist;
    lower_bounds[k] = lb;
    mask |= static_cast<std::uint32_t>(!(lb > prune_threshold)) << k;
  }
  return mask;
}

#if defined(__AVX2__) && defined(__FMA__)

// Full-block multi-bit refine: 8-lane groups in AssembleMultiLane's exact
// order; groups with no candidate lanes are skipped (their outputs stay
// unspecified, per the header contract).
inline std::uint32_t MultiBlockAvx2(const QuantizedQuery& query,
                                    const RabitqCodeStore& store,
                                    std::size_t begin,
                                    const std::uint32_t* multi_sums,
                                    float epsilon0, float prune_threshold,
                                    std::uint32_t candidate_mask,
                                    float* dist_sq, float* lower_bounds) {
  const float* d_arr = store.dist_to_centroid_data() + begin;
  const float* f_sq = store.f_sq_data() + begin;
  const float* f_cross = store.f_cross_data() + begin;
  const float* m_alpha = store.m_alpha_data() + begin;
  const float* m_beta = store.m_beta_data() + begin;
  const float* m_inv = store.m_inv_oo_data() + begin;
  const float* m_err = store.m_err_data() + begin;
  const float* u_sum = store.m_code_sum_data() + begin;
  const float q_dist = query.q_dist;
  const __m256 v_step = _mm256_set1_ps(query.step);
  const __m256 v_lo = _mm256_set1_ps(query.lo);
  const __m256 v_kq = _mm256_set1_ps(query.kq);
  const __m256 v_q_dist = _mm256_set1_ps(q_dist);
  const __m256 v_q_base = _mm256_set1_ps(query.q_base);
  const __m256 v_eps = _mm256_set1_ps(epsilon0);
  const __m256 v_thr = _mm256_set1_ps(prune_threshold);
  const __m256 v_zero = _mm256_setzero_ps();
  const bool has_bound = epsilon0 > 0.0f;
  const bool l2_edges = query.metric == Metric::kL2;
  const bool q_zero = l2_edges && q_dist == 0.0f;
  std::uint32_t mask = 0;
  for (int g = 0; g < 4; ++g) {
    const std::size_t off = static_cast<std::size_t>(g) * 8;
    if (((candidate_mask >> off) & 0xFFu) == 0) continue;
    const __m256 s_f = _mm256_cvtepi32_ps(_mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(multi_sums + off)));
    const __m256 u_f = _mm256_loadu_ps(u_sum + off);
    const __m256 s_mul = _mm256_mul_ps(v_step, s_f);
    const __m256 inner = _mm256_fmadd_ps(v_lo, u_f, s_mul);
    const __m256 bk = _mm256_mul_ps(_mm256_loadu_ps(m_beta + off), v_kq);
    const __m256 x_qbar =
        _mm256_fmadd_ps(_mm256_loadu_ps(m_alpha + off), inner, bk);
    const __m256 ip = _mm256_mul_ps(x_qbar, _mm256_loadu_ps(m_inv + off));
    const __m256 cross =
        _mm256_mul_ps(_mm256_loadu_ps(f_cross + off), v_q_dist);
    const __m256 vf_sq = _mm256_loadu_ps(f_sq + off);
    const __m256 base = _mm256_add_ps(vf_sq, v_q_base);
    __m256 dist = _mm256_fnmadd_ps(cross, ip, base);
    __m256 lb = dist;
    if (has_bound) {
      lb = _mm256_fnmadd_ps(
          cross, _mm256_mul_ps(_mm256_loadu_ps(m_err + off), v_eps), dist);
    }
    if (q_zero) {
      dist = vf_sq;
      lb = vf_sq;
    }
    if (l2_edges) {
      const __m256 edge_d =
          _mm256_cmp_ps(_mm256_loadu_ps(d_arr + off), v_zero, _CMP_EQ_OQ);
      dist = _mm256_blendv_ps(dist, v_q_base, edge_d);
      lb = _mm256_blendv_ps(lb, v_q_base, edge_d);
    }
    _mm256_storeu_ps(dist_sq + off, dist);
    _mm256_storeu_ps(lower_bounds + off, lb);
    const int pruned =
        _mm256_movemask_ps(_mm256_cmp_ps(lb, v_thr, _CMP_GT_OQ));
    mask |= (static_cast<std::uint32_t>(~pruned) & 0xFFu) << off;
  }
  return mask & candidate_mask;
}

#endif  // defined(__AVX2__) && defined(__FMA__)

// Folds the structural masks into a survivors bitmask: tail lanes of a
// partial block, tombstoned entries and lanes the caller's `lane_mask`
// (the per-query IdFilter pushdown) cleared never survive.
inline std::uint32_t FoldAliveMask(std::uint32_t mask, const std::uint8_t* dead,
                                   std::size_t count,
                                   std::uint32_t lane_mask) {
  std::uint32_t alive = count >= kFastScanBlockSize
                            ? 0xFFFFFFFFu
                            : ((1u << count) - 1u);
  alive &= lane_mask;
  if (dead != nullptr) {
    for (std::size_t k = 0; k < count; ++k) {
      alive &= ~(static_cast<std::uint32_t>(dead[k] != 0) << k);
    }
  }
  return mask & alive;
}

// Scalar fused assembly over lanes [0, count); returns the raw
// lb-vs-threshold mask (before FoldAliveMask).
inline std::uint32_t FusedBlockScalar(const QuantizedQuery& query,
                                      const RabitqCodeStore& store,
                                      std::size_t begin,
                                      const std::uint32_t* sums,
                                      std::size_t count, float epsilon0,
                                      float prune_threshold, float* dist_sq,
                                      float* lower_bounds) {
  const float* d_arr = store.dist_to_centroid_data() + begin;
  const float* f_sq = store.f_sq_data() + begin;
  const float* f_cross = store.f_cross_data() + begin;
  const float* f_inv = store.f_inv_oo_data() + begin;
  const float* f_err = store.f_err_data() + begin;
  const std::uint32_t* pc = store.bit_count_data() + begin;
  const bool l2_edges = query.metric == Metric::kL2;
  std::uint32_t mask = 0;
  for (std::size_t k = 0; k < count; ++k) {
    float dist = 0.0f, lb = 0.0f;
    AssembleLane(static_cast<float>(sums[k]), static_cast<float>(pc[k]),
                 d_arr[k], f_sq[k], f_cross[k], f_inv[k], f_err[k],
                 query.q_dist, query.q_base, query.ip_scale, query.pop_scale,
                 query.bias, epsilon0, l2_edges, &dist, &lb);
    dist_sq[k] = dist;
    if (lower_bounds != nullptr) lower_bounds[k] = lb;
    // Survive unless lb > threshold -- the same strict comparison (and the
    // same NaN-survives semantics) as the SIMD _CMP_GT_OQ path.
    mask |= static_cast<std::uint32_t>(!(lb > prune_threshold)) << k;
  }
  return mask;
}

#if defined(__AVX2__) && defined(__FMA__)

// Full-block (32-lane) fused assembly. Per 8-lane group: two int->float
// converts, six loads, then fmadd/mul/add/fnmadd in exactly AssembleLane's
// order. Returns the raw lb-vs-threshold survivors mask.
inline std::uint32_t FusedBlockAvx2(const QuantizedQuery& query,
                                    const RabitqCodeStore& store,
                                    std::size_t begin,
                                    const std::uint32_t* sums, float epsilon0,
                                    float prune_threshold, float* dist_sq,
                                    float* lower_bounds) {
  const float* d_arr = store.dist_to_centroid_data() + begin;
  const float* f_sq = store.f_sq_data() + begin;
  const float* f_cross = store.f_cross_data() + begin;
  const float* f_inv = store.f_inv_oo_data() + begin;
  const float* f_err = store.f_err_data() + begin;
  const std::uint32_t* pc = store.bit_count_data() + begin;
  const float q_dist = query.q_dist;
  const __m256 v_ip_scale = _mm256_set1_ps(query.ip_scale);
  const __m256 v_pop_scale = _mm256_set1_ps(query.pop_scale);
  const __m256 v_bias = _mm256_set1_ps(query.bias);
  const __m256 v_q_dist = _mm256_set1_ps(q_dist);
  const __m256 v_q_base = _mm256_set1_ps(query.q_base);
  const __m256 v_eps = _mm256_set1_ps(epsilon0);
  const __m256 v_thr = _mm256_set1_ps(prune_threshold);
  const __m256 v_zero = _mm256_setzero_ps();
  const bool has_bound = epsilon0 > 0.0f;
  // The exact-edge blends are L2-only (see AssembleLane).
  const bool l2_edges = query.metric == Metric::kL2;
  const bool q_zero = l2_edges && q_dist == 0.0f;
  std::uint32_t mask = 0;
  for (int g = 0; g < 4; ++g) {
    const std::size_t off = static_cast<std::size_t>(g) * 8;
    const __m256 s_f = _mm256_cvtepi32_ps(_mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(sums + off)));
    const __m256 pc_f = _mm256_cvtepi32_ps(_mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(pc + off)));
    const __m256 x_qbar = _mm256_fmadd_ps(
        v_ip_scale, s_f, _mm256_fmadd_ps(v_pop_scale, pc_f, v_bias));
    const __m256 ip = _mm256_mul_ps(x_qbar, _mm256_loadu_ps(f_inv + off));
    const __m256 cross =
        _mm256_mul_ps(_mm256_loadu_ps(f_cross + off), v_q_dist);
    const __m256 vf_sq = _mm256_loadu_ps(f_sq + off);
    const __m256 base = _mm256_add_ps(vf_sq, v_q_base);
    __m256 dist = _mm256_fnmadd_ps(cross, ip, base);
    __m256 lb = dist;
    if (has_bound) {
      lb = _mm256_fnmadd_ps(
          cross, _mm256_mul_ps(_mm256_loadu_ps(f_err + off), v_eps), dist);
    }
    if (q_zero) {
      dist = vf_sq;
      lb = vf_sq;
    }
    if (l2_edges) {
      const __m256 edge_d =
          _mm256_cmp_ps(_mm256_loadu_ps(d_arr + off), v_zero, _CMP_EQ_OQ);
      dist = _mm256_blendv_ps(dist, v_q_base, edge_d);
      lb = _mm256_blendv_ps(lb, v_q_base, edge_d);
    }
    _mm256_storeu_ps(dist_sq + off, dist);
    if (lower_bounds != nullptr) _mm256_storeu_ps(lower_bounds + off, lb);
    const int pruned =
        _mm256_movemask_ps(_mm256_cmp_ps(lb, v_thr, _CMP_GT_OQ));
    mask |= (static_cast<std::uint32_t>(~pruned) & 0xFFu) << off;
  }
  return mask;
}

#endif  // defined(__AVX2__) && defined(__FMA__)

// Dispatch: AVX2 for full blocks, the bit-identical scalar reference for
// the (at most one) partial tail block -- the factor arrays hold exactly
// size() entries, so the tail must not be read 8-wide.
inline std::uint32_t FusedBlockDispatch(const QuantizedQuery& query,
                                        const RabitqCodeStore& store,
                                        std::size_t block,
                                        const std::uint32_t* sums,
                                        float epsilon0, float prune_threshold,
                                        float* dist_sq, float* lower_bounds) {
  const std::size_t begin = block * kFastScanBlockSize;
  const std::size_t count = std::min(kFastScanBlockSize, store.size() - begin);
#if defined(__AVX2__) && defined(__FMA__)
  if (count == kFastScanBlockSize) {
    return FusedBlockAvx2(query, store, begin, sums, epsilon0, prune_threshold,
                          dist_sq, lower_bounds);
  }
#endif
  return FusedBlockScalar(query, store, begin, sums, count, epsilon0,
                          prune_threshold, dist_sq, lower_bounds);
}

}  // namespace

float IpErrorBound(float o_o, float epsilon0, std::size_t total_bits) {
  const float o_o_sq = std::max(o_o * o_o, 1e-12f);
  return std::sqrt((1.0f - o_o_sq) / o_o_sq) * epsilon0 /
         std::sqrt(static_cast<float>(total_bits - 1));
}

std::uint32_t BitwiseDotQuery(const QuantizedQuery& query,
                              const std::uint64_t* code_bits) {
  return BitPlaneDot(code_bits, query.bit_planes.data(),
                     static_cast<std::size_t>(query.query_bits),
                     query.num_words);
}

DistanceEstimate EstimateDistance(const QuantizedQuery& query,
                                  const RabitqCodeView& code, float epsilon0) {
  const std::uint32_t s = BitwiseDotQuery(query, code.bits);
  return Assemble(query, code, s, epsilon0, /*unbias=*/true);
}

DistanceEstimate EstimateDistanceBiased(const QuantizedQuery& query,
                                        const RabitqCodeView& code) {
  const std::uint32_t s = BitwiseDotQuery(query, code.bits);
  return Assemble(query, code, s, /*epsilon0=*/0.0f, /*unbias=*/false);
}

std::uint32_t EstimateBlockFusedPruned(const QuantizedQuery& query,
                                       const RabitqCodeStore& store,
                                       std::size_t block,
                                       const std::uint32_t* sums,
                                       float epsilon0, float prune_threshold,
                                       const std::uint8_t* dead,
                                       float* dist_sq, float* lower_bounds,
                                       std::uint32_t lane_mask) {
  const std::size_t begin = block * kFastScanBlockSize;
  const std::size_t count = std::min(kFastScanBlockSize, store.size() - begin);
  const std::uint32_t mask =
      FusedBlockDispatch(query, store, block, sums, epsilon0, prune_threshold,
                         dist_sq, lower_bounds);
  return FoldAliveMask(mask, dead, count, lane_mask);
}

std::uint32_t EstimateBlockFusedPrunedScalar(
    const QuantizedQuery& query, const RabitqCodeStore& store,
    std::size_t block, const std::uint32_t* sums, float epsilon0,
    float prune_threshold, const std::uint8_t* dead, float* dist_sq,
    float* lower_bounds, std::uint32_t lane_mask) {
  const std::size_t begin = block * kFastScanBlockSize;
  const std::size_t count = std::min(kFastScanBlockSize, store.size() - begin);
  const std::uint32_t mask =
      FusedBlockScalar(query, store, begin, sums, count, epsilon0,
                       prune_threshold, dist_sq, lower_bounds);
  return FoldAliveMask(mask, dead, count, lane_mask);
}

std::uint32_t BitwiseDotQueryMulti(const QuantizedQuery& query,
                                   const RabitqCodeStore& store,
                                   std::size_t i) {
  const std::size_t top = store.bits_per_dim() - 1;
  std::uint32_t s = BitwiseDotQuery(query, store.BitsAt(i)) << top;
  const std::uint64_t* extra = store.ExtraPlanesAt(i);
  for (std::size_t j = 0; j < top; ++j) {
    s += BitPlaneDot(extra + j * store.words_per_code(),
                     query.bit_planes.data(),
                     static_cast<std::size_t>(query.query_bits),
                     query.num_words)
         << j;
  }
  return s;
}

DistanceEstimate EstimateDistanceMulti(const QuantizedQuery& query,
                                       const RabitqCodeStore& store,
                                       std::size_t i, float epsilon0) {
  const std::uint32_t s = BitwiseDotQueryMulti(query, store, i);
  DistanceEstimate est;
  // Shares AssembleMultiLane with the block kernels, so the single-code
  // path is bit-identical to the fused ones by construction.
  AssembleMultiLane(static_cast<float>(s), store.m_code_sum(i),
                    store.dist_to_centroid(i), store.f_sq_data()[i],
                    store.f_cross_data()[i], store.m_alpha(i),
                    store.m_beta(i), store.m_inv_oo_data()[i],
                    store.m_err_data()[i], query.q_dist, query.q_base,
                    query.step, query.lo, query.kq, epsilon0,
                    query.metric == Metric::kL2, &est.dist_sq,
                    &est.lower_bound_sq);
  const float x_qbar =
      std::fma(store.m_alpha(i),
               std::fma(query.lo, store.m_code_sum(i),
                        query.step * static_cast<float>(s)),
               store.m_beta(i) * query.kq);
  est.ip = x_qbar * store.m_inv_oo_data()[i];
  est.ip_error = epsilon0 > 0.0f ? store.m_err_data()[i] * epsilon0 : 0.0f;
  return est;
}

void AccumulateMultiBlockSums(const QuantizedQuery& query,
                              const RabitqCodeStore& store, std::size_t block,
                              const std::uint32_t* sign_sums,
                              std::uint32_t* multi_sums) {
  const std::size_t top = store.bits_per_dim() - 1;
  for (std::size_t k = 0; k < kFastScanBlockSize; ++k) {
    multi_sums[k] = sign_sums[k] << top;
  }
  std::uint32_t tmp[kFastScanBlockSize];
  for (std::size_t j = 0; j < top; ++j) {
    const FastScanCodes& packed = store.extra_packed(j);
    FastScanAccumulateBlock(packed.BlockPtr(block), packed.num_segments,
                            query.luts.data(), tmp);
    for (std::size_t k = 0; k < kFastScanBlockSize; ++k) {
      multi_sums[k] += tmp[k] << j;
    }
  }
}

std::uint32_t EstimateBlockMultiPruned(const QuantizedQuery& query,
                                       const RabitqCodeStore& store,
                                       std::size_t block,
                                       const std::uint32_t* multi_sums,
                                       float epsilon0, float prune_threshold,
                                       std::uint32_t candidate_mask,
                                       float* dist_sq, float* lower_bounds) {
  const std::size_t begin = block * kFastScanBlockSize;
  const std::size_t count = std::min(kFastScanBlockSize, store.size() - begin);
#if defined(__AVX2__) && defined(__FMA__)
  if (count == kFastScanBlockSize) {
    return MultiBlockAvx2(query, store, begin, multi_sums, epsilon0,
                          prune_threshold, candidate_mask, dist_sq,
                          lower_bounds);
  }
#endif
  return MultiBlockScalar(query, store, begin, multi_sums, count, epsilon0,
                          prune_threshold, candidate_mask, dist_sq,
                          lower_bounds);
}

std::uint32_t EstimateBlockMultiPrunedScalar(
    const QuantizedQuery& query, const RabitqCodeStore& store,
    std::size_t block, const std::uint32_t* multi_sums, float epsilon0,
    float prune_threshold, std::uint32_t candidate_mask, float* dist_sq,
    float* lower_bounds) {
  const std::size_t begin = block * kFastScanBlockSize;
  const std::size_t count = std::min(kFastScanBlockSize, store.size() - begin);
  return MultiBlockScalar(query, store, begin, multi_sums, count, epsilon0,
                          prune_threshold, candidate_mask, dist_sq,
                          lower_bounds);
}

void PrefetchBlockData(const RabitqCodeStore& store, std::size_t block) {
#if defined(__GNUC__) || defined(__clang__)
  const FastScanCodes& packed = store.packed();
  if (block >= packed.num_blocks) return;
  const std::uint8_t* p = packed.BlockPtr(block);
  const std::size_t bytes = packed.num_segments * 16;
  for (std::size_t off = 0; off < bytes; off += 64) {
    __builtin_prefetch(p + off, /*rw=*/0, /*locality=*/3);
  }
  const std::size_t begin = block * kFastScanBlockSize;
  __builtin_prefetch(store.f_sq_data() + begin, 0, 3);
  __builtin_prefetch(store.f_cross_data() + begin, 0, 3);
  __builtin_prefetch(store.f_inv_oo_data() + begin, 0, 3);
  __builtin_prefetch(store.f_err_data() + begin, 0, 3);
  __builtin_prefetch(store.bit_count_data() + begin, 0, 3);
  __builtin_prefetch(store.dist_to_centroid_data() + begin, 0, 3);
#else
  (void)store;
  (void)block;
#endif
}

void EstimateBlock(const QuantizedQuery& query, const RabitqCodeStore& store,
                   std::size_t block, float epsilon0, float* dist_sq,
                   float* lower_bounds) {
  const FastScanCodes& packed = store.packed();
  std::uint32_t s[kFastScanBlockSize];
  FastScanAccumulateBlock(packed.BlockPtr(block), packed.num_segments,
                          query.luts.data(), s);
  const std::size_t begin = block * kFastScanBlockSize;
  const std::size_t count = std::min(kFastScanBlockSize, store.size() - begin);
  if (count == kFastScanBlockSize) {
    FusedBlockDispatch(query, store, block, s, epsilon0, FLT_MAX, dist_sq,
                       lower_bounds);
    return;
  }
  // Partial tail: this entry point promises to write exactly `count`
  // entries, so assemble into block-sized temporaries and copy.
  float tmp_dist[kFastScanBlockSize];
  float tmp_lb[kFastScanBlockSize];
  FusedBlockDispatch(query, store, block, s, epsilon0, FLT_MAX, tmp_dist,
                     lower_bounds == nullptr ? nullptr : tmp_lb);
  std::memcpy(dist_sq, tmp_dist, count * sizeof(float));
  if (lower_bounds != nullptr) {
    std::memcpy(lower_bounds, tmp_lb, count * sizeof(float));
  }
}

void EstimateAll(const QuantizedQuery& query, const RabitqCodeStore& store,
                 float epsilon0, float* dist_sq, float* lower_bounds) {
  if (!query.has_exact_luts || !store.finalized()) {
    // B_q > 6 has no lossless u8 LUTs; fall back to the bitwise path.
    for (std::size_t i = 0; i < store.size(); ++i) {
      const DistanceEstimate est =
          EstimateDistance(query, store.View(i), epsilon0);
      dist_sq[i] = est.dist_sq;
      if (lower_bounds != nullptr) lower_bounds[i] = est.lower_bound_sq;
    }
    return;
  }
  const std::size_t num_blocks = store.packed().num_blocks;
  for (std::size_t block = 0; block < num_blocks; ++block) {
    const std::size_t begin = block * kFastScanBlockSize;
    PrefetchBlockData(store, block + 1);
    EstimateBlock(query, store, block, epsilon0, dist_sq + begin,
                  lower_bounds == nullptr ? nullptr : lower_bounds + begin);
  }
}

}  // namespace rabitq
