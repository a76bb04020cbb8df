// RaBitQ distance estimation (paper Sections 3.2-3.3):
//   est <o,q>      = <x-bar, q-bar> / <o-bar, o>        (unbiased, Thm 3.2)
//   est ||or-qr||^2 = d_o^2 + d_q^2 - 2 d_o d_q est<o,q> (Eq. 2)
//   error bound    = sqrt((1-<o,o-bar>^2)/<o,o-bar>^2) * eps0/sqrt(B-1)
//                                                        (Eq. 14/16)
// The paper's estimator is fundamentally an INNER-PRODUCT estimator --
// est<o,q> is recovered first, L2 derived from it -- so the same kernels
// serve every metric: the "distance" they assemble is a generic ascending
// score, base + cross * est<o,q>, whose ingredients (base, the f_sq /
// f_cross factors) were baked per-metric at append/preprocess time (see
// rabitq.h and QuantizedQuery::q_base). Under kL2 the score is the squared
// distance of Eq. 2; under kInnerProduct/kCosine it is the negated inner
// product -<o_r, q_r>, with the halved f_cross doubling as the IP-analogue
// error half-width. The two exact edge blends (q_dist == 0, d == 0) are
// L2-only and gated on query.metric identically in every path.
// Two ways to compute the same estimate:
//   * packed batch of 32 codes: the shared fast-scan kernel (Section 3.3.2)
//     followed by the fused float assembly below -- the only path the IVF
//     search scans through, for every re-rank policy;
//   * single code: B_q bitwise and+popcount passes (Eq. 22) -- the per-code
//     API (any B_q up to 8) and the oracle the block kernels are tested
//     against.
//
// The assembly consumes the factors precomputed at append time by
// RabitqCodeStore (f_sq, f_cross, f_inv_oo, f_err), so per lane it is four
// loads, two int->float converts and six mul/add/fma -- no sqrt, no divide,
// no branch. Every path (single-code, fused scalar, fused AVX2) performs the
// SAME operations in the SAME order per lane (explicit std::fma mirroring
// the SIMD fmadd/fnmadd), which is what makes the bitwise path, the scalar
// reference and the 8-wide kernel agree bit-for-bit (tested).

#ifndef RABITQ_CORE_ESTIMATOR_H_
#define RABITQ_CORE_ESTIMATOR_H_

#include <cstdint>

#include "core/query.h"
#include "core/rabitq.h"

namespace rabitq {

/// One estimated distance plus its confidence information.
struct DistanceEstimate {
  float ip = 0.0f;             // estimate of <o, q> (unit vectors)
  float dist_sq = 0.0f;        // estimate of ||o_r - q_r||^2
  float lower_bound_sq = 0.0f; // dist_sq lower bound at confidence eps0
  float ip_error = 0.0f;       // half-width of the <o,q> confidence interval
};

/// Half-width of the confidence interval on <o,q> (Eq. 16).
float IpErrorBound(float o_o, float epsilon0, std::size_t total_bits);

/// <x_b, q-bar_u> via B_q bitwise-and + popcount passes (Eq. 22).
std::uint32_t BitwiseDotQuery(const QuantizedQuery& query,
                              const std::uint64_t* code_bits);

/// Full single-code estimate. `epsilon0` <= 0 skips the bound computation
/// (lower_bound_sq = dist_sq).
DistanceEstimate EstimateDistance(const QuantizedQuery& query,
                                  const RabitqCodeView& code, float epsilon0);

/// Naive (PQ-style, biased) estimator <o-bar, q> used by the Table 7
/// ablation: same bit arithmetic but WITHOUT dividing by <o-bar, o>.
DistanceEstimate EstimateDistanceBiased(const QuantizedQuery& query,
                                        const RabitqCodeView& code);

/// Batch estimation over one packed fast-scan block (32 codes). Writes
/// estimated squared distances for codes [block*32, block*32 + count) and,
/// when `lower_bounds` is non-null, their eps0 lower bounds. Requires
/// query.has_exact_luts (B_q <= 6) and store.finalized().
void EstimateBlock(const QuantizedQuery& query, const RabitqCodeStore& store,
                   std::size_t block, float epsilon0, float* dist_sq,
                   float* lower_bounds);

/// Fused assembly over one block given the 32 fast-scan sums `sums` (from
/// FastScanAccumulateBlock): estimated squared distances and, when
/// `lower_bounds` is non-null, eps0 lower bounds. Output buffers must hold
/// kFastScanBlockSize floats -- a full block is stored 8 lanes at a time,
/// and lanes past size() on the tail block are unspecified (the SIMD path
/// may write garbage there, the scalar path leaves them untouched).
/// AVX2+FMA when available, bit-identical to the scalar reference.
///
/// Returns a survivors bitmask -- bit k set iff lane k is a real code
/// (k < count for a tail block), is not tombstoned (`dead`, 32 flags for
/// this block, may be null when the list has no tombstones), is allowed by
/// `lane_mask` (bit k clear drops lane k -- the per-query IdFilter's
/// pushdown, all-ones when unfiltered) and its lower bound does not exceed
/// `prune_threshold` (the caller's current top-k threshold; pass +infinity
/// -- NOT FLT_MAX -- to disable pruning, e.g. while the heap is still
/// filling: a lower bound that overflowed to +inf must survive then, and
/// only `> inf` guarantees that). The caller walks set bits only, fusing
/// candidate selection into the scan.
std::uint32_t EstimateBlockFusedPruned(const QuantizedQuery& query,
                                       const RabitqCodeStore& store,
                                       std::size_t block,
                                       const std::uint32_t* sums,
                                       float epsilon0, float prune_threshold,
                                       const std::uint8_t* dead,
                                       float* dist_sq, float* lower_bounds,
                                       std::uint32_t lane_mask = 0xFFFFFFFFu);

/// Bit-exact scalar reference for EstimateBlockFusedPruned (mirrors the
/// kernel's per-lane operation order with explicit std::fma).
std::uint32_t EstimateBlockFusedPrunedScalar(
    const QuantizedQuery& query, const RabitqCodeStore& store,
    std::size_t block, const std::uint32_t* sums, float epsilon0,
    float prune_threshold, const std::uint8_t* dead, float* dist_sq,
    float* lower_bounds, std::uint32_t lane_mask = 0xFFFFFFFFu);

// --- Multi-bit refine kernels (stores with bits_per_dim > 1) --------------
//
// Stage 2 of the two-stage error-bound scan: the 1-bit kernels above prune
// with the sign plane, then the survivors are re-estimated from the full
// B_d-bit code. With x-bar_i = m_alpha * u_i + m_beta (see rabitq.h) the
// assembly is
//   <x-bar, q-bar> = m_alpha * (step * S + lo * sum(u)) + m_beta * kq,
//   S = sum_j 2^j <plane_j, q-bar_u>   (sign plane = MSB plane)
// followed by the same cross/base/bound arithmetic as the 1-bit lane, using
// the tighter m_inv_oo / m_err factors. Fused AVX2 and scalar reference
// follow the 1-bit discipline: identical operation order per lane, so they
// agree bit-for-bit with each other and with the single-code path (tested).

/// Weighted bitwise dot for a multi-bit code: S = sum_j 2^j <plane_j, qu>,
/// the sign plane contributing 2^(bits_per_dim - 1).
std::uint32_t BitwiseDotQueryMulti(const QuantizedQuery& query,
                                   const RabitqCodeStore& store,
                                   std::size_t i);

/// Full single-code multi-bit estimate; requires store.bits_per_dim() > 1.
/// Bit-identical to the fused block kernels at the same code.
DistanceEstimate EstimateDistanceMulti(const QuantizedQuery& query,
                                       const RabitqCodeStore& store,
                                       std::size_t i, float epsilon0);

/// Accumulates the weighted multi-bit LUT sums S for one packed block into
/// `multi_sums` (kFastScanBlockSize entries): `sign_sums` are the sign-plane
/// sums the stage-1 scan already produced (reused, not recomputed), the
/// extra planes are accumulated here. Requires query.has_exact_luts and a
/// finalized store with bits_per_dim() > 1.
void AccumulateMultiBlockSums(const QuantizedQuery& query,
                              const RabitqCodeStore& store, std::size_t block,
                              const std::uint32_t* sign_sums,
                              std::uint32_t* multi_sums);

/// Stage-2 refine over one block: assembles the multi-bit estimate and
/// lower bound for the lanes set in `candidate_mask` (stage-1 survivors)
/// and returns the refined survivors mask -- candidate lanes whose
/// multi-bit lower bound does not exceed `prune_threshold` (same strict >,
/// same +inf no-prune sentinel as EstimateBlockFusedPruned). Outputs at
/// lanes outside `candidate_mask` are unspecified (the SIMD path may write
/// whole 8-lane groups, and skips groups with no candidates entirely).
std::uint32_t EstimateBlockMultiPruned(const QuantizedQuery& query,
                                       const RabitqCodeStore& store,
                                       std::size_t block,
                                       const std::uint32_t* multi_sums,
                                       float epsilon0, float prune_threshold,
                                       std::uint32_t candidate_mask,
                                       float* dist_sq, float* lower_bounds);

/// Bit-exact scalar reference for EstimateBlockMultiPruned.
std::uint32_t EstimateBlockMultiPrunedScalar(
    const QuantizedQuery& query, const RabitqCodeStore& store,
    std::size_t block, const std::uint32_t* multi_sums, float epsilon0,
    float prune_threshold, std::uint32_t candidate_mask, float* dist_sq,
    float* lower_bounds);

/// Software-prefetches block `block`'s packed codes and factor arrays into
/// cache; no-op past the last block. The block scan loops (EstimateAll, the
/// IVF block walk) call this one block ahead so the next block's data
/// streams in while the current block is assembled.
void PrefetchBlockData(const RabitqCodeStore& store, std::size_t block);

/// Estimates all codes in `store` through the fast-scan path; `dist_sq`
/// (and `lower_bounds` if non-null) must hold store.size() floats.
void EstimateAll(const QuantizedQuery& query, const RabitqCodeStore& store,
                 float epsilon0, float* dist_sq, float* lower_bounds);

}  // namespace rabitq

#endif  // RABITQ_CORE_ESTIMATOR_H_
