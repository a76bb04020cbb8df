// The unified query surface shared by every search layer (IvfRabitqIndex,
// ShardedIndex, SearchEngine): one SearchRequest in, one SearchResponse out.
// The paper's protocol is "one thread, one query, one metric, no
// predicates"; serving workloads are not. This header is where the extra
// dimensions live so that new capabilities (filters, metrics) extend ONE
// request type instead of growing another positional parameter on three
// Search spellings. The metric itself is an INDEX property, not a request
// property -- see core/metric.h -- so requests stay metric-agnostic and
// scores are ascending-is-better under every metric.
//
//   SearchRequest  = non-owning query view + SearchOptions
//   SearchOptions  = k / nprobe / rerank policy / eps0 override
//                    + optional per-query seed + per-query IdFilter
//                    + optional deadline
//   SearchResponse = Status + neighbors + IvfSearchStats
//                    + partial / shards_ok / shards_failed
//
// Inside the layers the response is the one record of an outcome too: one
// per (query x shard) cell, merged into the query's, counted into the
// engine's stats.
//
// Every policy scans through the same fast-scan block walk; the policy only
// decides what happens to a block's survivors (exact re-rank under
// kErrorBound, the estimate pool otherwise).
//
// IdFilter is a per-query predicate pushed INTO the scan: the allow/deny
// decision is folded into the fused kernel's 32-bit survivors mask alongside
// tombstones (see EstimateBlockFusedPruned's lane_mask), so filtered-out
// codes never reach exact re-ranking or the estimate pool and there is no
// post-hoc filtering pass. Filtered search is therefore bit-identical to
// brute force over the allowed subset, for the same reason unfiltered
// search is bit-identical to brute force over the live set.

#ifndef RABITQ_INDEX_SEARCH_TYPES_H_
#define RABITQ_INDEX_SEARCH_TYPES_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/metric.h"
#include "index/brute_force.h"
#include "util/status.h"

namespace rabitq {

enum class RerankPolicy {
  kErrorBound,       // paper Section 4, no tunable parameter
  kFixedCandidates,  // conventional top-R re-ranking
  kNone,             // rank by estimates only
};

/// Per-query id predicate, pushed down into candidate selection. A filter is
/// a non-owning VIEW: the bitmap / predicate context must outlive every
/// search using it (for SubmitAsync, until the returned future resolves).
/// Copying the view is trivial (no allocation), which is what lets the
/// per-(query x shard) fan-out carry it by value.
///
/// Bitmap semantics: bit `id` of `bits` (LSB-first within each u64 word)
/// covers ids in [0, num_ids). Ids at or past num_ids are DENIED by an
/// allow-bitmap (absent = not allowed) and ALLOWED by a deny-bitmap
/// (absent = not denied) -- so a deny-bitmap snapshot taken before an
/// insert naturally admits the newer ids.
class IdFilter {
 public:
  /// Returns true iff `id` may appear in results. `context` is the pointer
  /// given to FromPredicate, passed back verbatim.
  using Predicate = bool (*)(void* context, std::uint32_t id);

  constexpr IdFilter() = default;

  /// Only ids whose bit is set may appear in results.
  static IdFilter AllowBitmap(const std::uint64_t* bits, std::size_t num_ids) {
    IdFilter f;
    f.kind_ = Kind::kAllow;
    f.bits_ = bits;
    f.num_ids_ = num_ids;
    return f;
  }

  /// Ids whose bit is set are excluded from results.
  static IdFilter DenyBitmap(const std::uint64_t* bits, std::size_t num_ids) {
    IdFilter f;
    f.kind_ = Kind::kDeny;
    f.bits_ = bits;
    f.num_ids_ = num_ids;
    return f;
  }

  /// Arbitrary predicate. Called once per live candidate code in every
  /// probed list, so it should be cheap; it may be called concurrently from
  /// several worker threads and must be thread-safe.
  static IdFilter FromPredicate(Predicate predicate, void* context) {
    IdFilter f;
    f.kind_ = predicate != nullptr ? Kind::kPredicate : Kind::kNone;
    f.predicate_ = predicate;
    f.context_ = context;
    return f;
  }

  /// False for a default-constructed filter: no filtering, zero overhead on
  /// the scan (the search path special-cases inactive filters).
  bool active() const { return kind_ != Kind::kNone; }

  bool Allows(std::uint32_t id) const {
    if (id_map_ != nullptr) id = id_map_[id];
    switch (kind_) {
      case Kind::kNone:
        return true;
      case Kind::kAllow:
        return TestBit(id);
      case Kind::kDeny:
        return !TestBit(id);
      case Kind::kPredicate:
        return predicate_(context_, id);
    }
    return true;
  }

  /// Shard-slicing hook (library-internal): the returned filter evaluates
  /// Allows(local_to_global[id]), so a shard search over LOCAL ids consults
  /// the caller's GLOBAL-id filter. `local_to_global` must cover every local
  /// id the shard search can produce and outlive the search.
  IdFilter WithIdMap(const std::uint32_t* local_to_global) const {
    IdFilter f = *this;
    f.id_map_ = local_to_global;
    return f;
  }

  // Introspection for serialization (the server's wire codec): bitmap
  // filters have a wire form, predicate filters do not.
  bool is_bitmap() const {
    return kind_ == Kind::kAllow || kind_ == Kind::kDeny;
  }
  bool is_deny_bitmap() const { return kind_ == Kind::kDeny; }
  /// Valid only when is_bitmap(); (num_ids + 63) / 64 words are readable.
  const std::uint64_t* bitmap_words() const { return bits_; }
  std::size_t bitmap_num_ids() const { return num_ids_; }

 private:
  enum class Kind : std::uint8_t { kNone, kAllow, kDeny, kPredicate };

  bool TestBit(std::uint32_t id) const {
    if (id >= num_ids_) return false;
    return (bits_[id >> 6] >> (id & 63u)) & 1u;
  }

  Kind kind_ = Kind::kNone;
  const std::uint64_t* bits_ = nullptr;
  std::size_t num_ids_ = 0;
  Predicate predicate_ = nullptr;
  void* context_ = nullptr;
  const std::uint32_t* id_map_ = nullptr;
};

/// Everything tunable about one query.
struct SearchOptions {
  std::size_t k = 100;
  std::size_t nprobe = 16;
  RerankPolicy policy = RerankPolicy::kErrorBound;
  /// Only for kFixedCandidates: number of candidates re-ranked exactly.
  std::size_t rerank_candidates = 1000;
  /// Overrides the encoder's eps0 when >= 0 (Fig. 5 sweep).
  float epsilon0_override = -1.0f;
  /// Base seed of the randomized query quantization. Unset: the layer
  /// serving the request picks one (the engine derives it from its config
  /// seed and the query's ticket; a bare index uses seed 0). Set: used
  /// verbatim, making the result a pure function of (index, query, options)
  /// regardless of which layer or how many threads serve it.
  std::optional<std::uint64_t> seed;
  /// Per-query id filter, pushed down into candidate selection (global ids
  /// when searching a ShardedIndex / SearchEngine).
  IdFilter filter;

  /// Sentinel for `deadline`: no deadline.
  static constexpr std::chrono::steady_clock::time_point kNoDeadline =
      std::chrono::steady_clock::time_point::max();

  /// Absolute deadline for this query. Resolved from `timeout_us` at
  /// admission when left at kNoDeadline; once set it rides the options copy
  /// through engine -> ShardedIndex -> IvfRabitqIndex::SearchWithScratch,
  /// whose scan loop checks it every few fast-scan blocks. A query that
  /// trips its deadline stops scanning, returns whatever candidates it has
  /// (sorted, re-ranked as far as it got) and reports kDeadlineExceeded with
  /// SearchResponse::partial set. Queries with no deadline skip every check
  /// and are bit-identical to pre-deadline builds.
  std::chrono::steady_clock::time_point deadline = kNoDeadline;

  /// Relative spelling of `deadline`: a budget in microseconds from the
  /// moment the serving layer admits the query (SubmitAsync / SearchBatch /
  /// Search entry). 0 = no timeout. Ignored when `deadline` is already set.
  std::uint64_t timeout_us = 0;

  /// True when either deadline form is armed.
  bool has_deadline() const {
    return deadline != kNoDeadline || timeout_us != 0;
  }

  /// Pins `deadline` to an absolute time, deriving it from `timeout_us`
  /// relative to `now` when only the relative form was given. Idempotent --
  /// every serving layer calls it on its options copy at entry.
  void ResolveDeadline(std::chrono::steady_clock::time_point now) {
    if (deadline == kNoDeadline && timeout_us != 0) {
      deadline = now + std::chrono::microseconds(timeout_us);
    }
  }
};

struct IvfSearchStats {
  std::size_t codes_estimated = 0;
  std::size_t candidates_reranked = 0;
  std::size_t lists_probed = 0;
  /// Live candidate codes excluded by the request's IdFilter before
  /// re-ranking (tombstoned entries are not double-counted here).
  std::size_t codes_filtered = 0;
  /// Multi-bit refinements (indexes with bits_per_dim > 1): under
  /// kErrorBound, candidates that survived the 1-bit prune and were
  /// re-estimated from the full B_d-bit code before exact re-ranking; under
  /// kFixedCandidates/kNone, every estimated code (the pool ranks by the
  /// full width). Always 0 for 1-bit indexes.
  std::size_t codes_refined = 0;

  // Estimator-health telemetry, collected at kErrorBound re-rank where the
  // estimate, the eps0 lower bound and the exact distance are all in hand
  // -- a live measurement of the paper's Eq. 16 guarantee at zero extra
  // distance computations. (kFixedCandidates/kNone re-rank without bounds
  // and contribute nothing here.)
  /// Re-ranked candidates whose exact distance fell below the eps0 lower
  /// bound. rerank_bound_violations / candidates_reranked is the observed
  /// violation rate, which should track the Gaussian tail P(Z > eps0)
  /// (~2.9% at the paper's eps0 = 1.9; see error_bound_property_test).
  std::size_t rerank_bound_violations = 0;
  /// Re-ranked candidates with exact > 0 (denominator of the two sums).
  std::size_t rerank_health_samples = 0;
  /// Sum of (estimate - exact) / exact over health samples; its mean near 0
  /// is the live check of the estimator's unbiasedness (Theorem 3.2).
  double rerank_signed_err_sum = 0.0;
  /// Sum of lower_bound / exact over health samples; its mean in (0, 1]
  /// measures how tight the bound runs (1 = exact, -> 0 = vacuous).
  double rerank_tightness_sum = 0.0;

  /// Field-wise sum: the one way shards, batches and callers aggregate.
  IvfSearchStats& operator+=(const IvfSearchStats& other) {
    codes_estimated += other.codes_estimated;
    candidates_reranked += other.candidates_reranked;
    lists_probed += other.lists_probed;
    codes_filtered += other.codes_filtered;
    codes_refined += other.codes_refined;
    rerank_bound_violations += other.rerank_bound_violations;
    rerank_health_samples += other.rerank_health_samples;
    rerank_signed_err_sum += other.rerank_signed_err_sum;
    rerank_tightness_sum += other.rerank_tightness_sum;
    return *this;
  }
};

/// One query: a non-owning view of `dim()` floats plus its options. The
/// pointer must stay valid for the duration of the call (SubmitAsync copies
/// the vector, but NOT the filter's bitmap/context -- see IdFilter).
struct SearchRequest {
  const float* query = nullptr;
  SearchOptions options;
};

/// Outcome of one served query: per-query status (a failed query reports
/// here, not by poisoning its whole batch), neighbors sorted ascending by
/// (distance, id), and the per-query work counters.
///
/// Degraded outcomes carry results instead of failing the query: a deadline
/// trip or an isolated shard failure still returns the neighbors gathered
/// from the work that did finish, with `partial` set and the shard tallies
/// reporting how much of the fan-out contributed. Callers that cannot use
/// partial answers check `partial`; callers that can, use the neighbors
/// as-is (status kDeadlineExceeded still reports WHY they are partial).
struct SearchResponse {
  Status status;
  std::vector<Neighbor> neighbors;
  IvfSearchStats stats;

  /// True when `neighbors` reflects less than the full requested search:
  /// the query hit its deadline mid-scan, or one or more shards failed and
  /// were excluded from the merge.
  bool partial = false;
  /// Shards whose results made it into the merge (single-index layers count
  /// as one shard). 0 until a search actually ran.
  std::uint32_t shards_ok = 0;
  /// Shards excluded from the merge by a hard failure.
  std::uint32_t shards_failed = 0;

  bool ok() const { return status.ok(); }
};

}  // namespace rabitq

#endif  // RABITQ_INDEX_SEARCH_TYPES_H_
