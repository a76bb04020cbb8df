// THE deprecation header: every pre-SearchRequest overload of the three
// search layers lives here as a thin inline shim over the unified request
// API, so the whole legacy surface can be audited (or deleted -- define
// RABITQ_NO_DEPRECATED) in one place.
//
// Inclusion scheme: this header has NO top-level include guard on purpose.
// ivf.h, sharded.h and engine/search_engine.h each include it at their
// bottom after defining RABITQ_SEARCH_COMPAT_HAVE_<CLASS>; each sectioned
// block below is compiled exactly once (per-section guard), at the first
// inclusion where its class is complete. User code never includes this
// file directly -- pulling in the class header is enough, exactly as with
// the old out-of-line definitions.
//
// Migration map (see README "Query API" for the full table):
//   index.Search(q, params, seed, &out, &st)   -> index.Search({q, opts})
//   index.Search(q, params, &rng, &out, &st)   -> same, caller draws seed
//   sharded.Search(q, params, seed, &out, &st) -> sharded.Search({q, opts})
//   engine.SearchBatch(q, n, params, base,...) -> engine.SearchBatch(reqs,
//       n, &responses) with reqs[i].options.seed = QuerySeed(base, i)
//   engine.SubmitAsync(q[, params[, seed]])    -> engine.SubmitAsync(req)
// where opts is the old params with opts.seed carrying the explicit seed.
// Every shim is bit-identical to its replacement at equal seeds.

#ifndef RABITQ_NO_DEPRECATED

#if defined(RABITQ_SEARCH_COMPAT_HAVE_IVF) && \
    !defined(RABITQ_SEARCH_COMPAT_DEFINED_IVF_)
#define RABITQ_SEARCH_COMPAT_DEFINED_IVF_

namespace rabitq {

inline Status IvfRabitqIndex::Search(const float* query,
                                     const IvfSearchParams& params,
                                     std::uint64_t seed,
                                     std::vector<Neighbor>* out,
                                     IvfSearchStats* stats) const {
  if (out == nullptr) return Status::InvalidArgument("null output");
  SearchRequest request{query, params};
  request.options.seed = seed;
  SearchResponse response = Search(request);
  *out = std::move(response.neighbors);
  if (stats != nullptr) *stats = response.stats;
  return response.status;
}

inline Status IvfRabitqIndex::Search(const float* query,
                                     const IvfSearchParams& params, Rng* rng,
                                     std::vector<Neighbor>* out,
                                     IvfSearchStats* stats) const {
  if (rng == nullptr) return Status::InvalidArgument("null rng");
  if (out == nullptr) return Status::InvalidArgument("null output");
  SearchRequest request{query, params};
  request.options.seed = rng->NextU64();
  SearchResponse response = Search(request);
  *out = std::move(response.neighbors);
  if (stats != nullptr) *stats = response.stats;
  return response.status;
}

}  // namespace rabitq

#endif  // RABITQ_SEARCH_COMPAT_HAVE_IVF

#if defined(RABITQ_SEARCH_COMPAT_HAVE_SHARDED) && \
    !defined(RABITQ_SEARCH_COMPAT_DEFINED_SHARDED_)
#define RABITQ_SEARCH_COMPAT_DEFINED_SHARDED_

namespace rabitq {

inline Status ShardedIndex::Search(const float* query,
                                   const IvfSearchParams& params,
                                   std::uint64_t seed,
                                   std::vector<Neighbor>* out,
                                   IvfSearchStats* stats) const {
  if (out == nullptr) return Status::InvalidArgument("null output");
  SearchRequest request{query, params};
  request.options.seed = seed;
  SearchResponse response = Search(request);
  *out = std::move(response.neighbors);
  if (stats != nullptr) *stats = response.stats;
  return response.status;
}

}  // namespace rabitq

#endif  // RABITQ_SEARCH_COMPAT_HAVE_SHARDED

#if defined(RABITQ_SEARCH_COMPAT_HAVE_ENGINE) && \
    !defined(RABITQ_SEARCH_COMPAT_DEFINED_ENGINE_)
#define RABITQ_SEARCH_COMPAT_DEFINED_ENGINE_

namespace rabitq {

namespace search_compat_internal {

/// Shared body of the two raw-pointer SearchBatch shims (kept out of the
/// deprecated members so no shim calls another deprecated entity, which
/// would trip -Werror=deprecated-declarations in strict TUs).
template <typename Engine>
Status RawPointerSearchBatch(Engine* engine, const float* queries,
                             std::size_t num_queries,
                             const IvfSearchParams& params,
                             std::uint64_t seed_base,
                             std::vector<std::vector<Neighbor>>* results,
                             IvfSearchStats* agg) {
  if (queries == nullptr || results == nullptr) {
    return Status::InvalidArgument("null queries/results");
  }
  std::vector<SearchRequest> requests(num_queries);
  for (std::size_t i = 0; i < num_queries; ++i) {
    requests[i].query = queries + i * engine->dim();
    requests[i].options = params;
    requests[i].options.seed = SearchEngine::QuerySeed(seed_base, i);
  }
  std::vector<SearchResponse> responses;
  const Status status =
      engine->SearchBatch(requests.data(), num_queries, &responses);
  results->resize(num_queries);
  IvfSearchStats sum;
  for (std::size_t i = 0; i < num_queries; ++i) {
    (*results)[i] = std::move(responses[i].neighbors);
    sum += responses[i].stats;
  }
  if (agg != nullptr) *agg = sum;
  return status;
}

}  // namespace search_compat_internal

inline Status SearchEngine::SearchBatch(
    const float* queries, std::size_t num_queries,
    const IvfSearchParams& params, std::uint64_t seed_base,
    std::vector<std::vector<Neighbor>>* results, IvfSearchStats* agg) {
  return search_compat_internal::RawPointerSearchBatch(
      this, queries, num_queries, params, seed_base, results, agg);
}

inline Status SearchEngine::SearchBatch(
    const float* queries, std::size_t num_queries,
    const IvfSearchParams& params,
    std::vector<std::vector<Neighbor>>* results, IvfSearchStats* agg) {
  return search_compat_internal::RawPointerSearchBatch(
      this, queries, num_queries, params, config_.seed, results, agg);
}

inline std::future<SearchResponse> SearchEngine::SubmitAsync(
    const float* query, const IvfSearchParams& params, std::uint64_t seed) {
  SearchRequest request{query, params};
  request.options.seed = seed;
  return SubmitAsync(request);
}

inline std::future<SearchResponse> SearchEngine::SubmitAsync(
    const float* query, const IvfSearchParams& params) {
  SearchRequest request{query, params};
  request.options.seed.reset();  // auto-seed from the ticket stream
  return SubmitAsync(request);
}

inline std::future<SearchResponse> SearchEngine::SubmitAsync(
    const float* query) {
  return SubmitAsync(SearchRequest{query, config_.default_params});
}

}  // namespace rabitq

#endif  // RABITQ_SEARCH_COMPAT_HAVE_ENGINE

#endif  // RABITQ_NO_DEPRECATED
