#include "engine/engine_stats.h"

namespace rabitq {

EngineStatsCollector::EngineStatsCollector(obs::MetricsRegistry* registry)
    : registry_(registry),
      created_(std::chrono::steady_clock::now()),
      queries_(registry->GetCounter("rabitq_queries_total",
                                    "Queries served (all batches)")),
      batches_(registry->GetCounter("rabitq_batches_total",
                                    "Batches executed")),
      inserts_(registry->GetCounter("rabitq_inserts_total", "Inserts")),
      deletes_(registry->GetCounter("rabitq_deletes_total", "Deletes")),
      updates_(registry->GetCounter("rabitq_updates_total", "Updates")),
      compactions_(registry->GetCounter("rabitq_lists_compacted_total",
                                        "Lists compacted")),
      search_errors_(registry->GetCounter("rabitq_search_errors_total",
                                          "Queries that failed")),
      rejected_(registry->GetCounter(
          "rabitq_queries_rejected_total",
          "Submissions rejected at admission (queue full)")),
      shed_(registry->GetCounter(
          "rabitq_queries_shed_total",
          "Queued queries shed unexecuted (deadline expired in queue)")),
      deadline_exceeded_(registry->GetCounter(
          "rabitq_deadline_exceeded_total",
          "Queries that ran out of deadline mid-scan")),
      partial_responses_(registry->GetCounter(
          "rabitq_partial_responses_total",
          "Responses flagged partial (deadline and/or shard failure)")),
      shard_failures_(registry->GetCounter(
          "rabitq_shard_failures_total",
          "Per-shard hard failures isolated by the scatter-gather merge")),
      codes_estimated_(registry->GetCounter("rabitq_codes_estimated_total",
                                            "Codes distance-estimated")),
      candidates_reranked_(
          registry->GetCounter("rabitq_candidates_reranked_total",
                               "Candidates exactly re-ranked")),
      lists_probed_(registry->GetCounter("rabitq_lists_probed_total",
                                         "IVF lists probed")),
      codes_filtered_(
          registry->GetCounter("rabitq_codes_filtered_total",
                               "Live codes excluded by IdFilters")),
      codes_refined_(registry->GetCounter(
          "rabitq_codes_refined_total",
          "Stage-2 multi-bit refinements in the two-stage scan")),
      bound_violations_(registry->GetCounter(
          "rabitq_rerank_bound_violations_total",
          "Re-ranked candidates whose exact distance beat the eps0 bound")),
      health_samples_(registry->GetCounter(
          "rabitq_rerank_health_samples_total",
          "Re-ranked candidates contributing to the health means")),
      signed_err_sum_(registry->GetFloatCounter(
          "rabitq_rerank_signed_err_sum",
          "Sum of (estimate - exact) / exact at re-rank")),
      tightness_sum_(registry->GetFloatCounter(
          "rabitq_rerank_tightness_sum",
          "Sum of lower_bound / exact at re-rank")),
      latency_(registry->GetHistogram("rabitq_query_latency_us",
                                      "Per-query latency in microseconds")) {}

void EngineStatsCollector::RecordBatch(const SearchResponse* responses,
                                       std::size_t n,
                                       const double* latencies_us) {
  IvfSearchStats batch_stats;
  std::uint64_t errors = 0, deadline_exceeded = 0, partial = 0;
  std::uint64_t shard_failures = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const SearchResponse& response = responses[i];
    batch_stats += response.stats;
    errors += !response.ok();
    deadline_exceeded +=
        response.status.code() == StatusCode::kDeadlineExceeded;
    partial += response.partial;
    shard_failures += response.shards_failed;
    latency_->Record(latencies_us[i]);
  }
  queries_->Add(n);
  batches_->Increment();
  search_errors_->Add(errors);
  deadline_exceeded_->Add(deadline_exceeded);
  partial_responses_->Add(partial);
  shard_failures_->Add(shard_failures);
  codes_estimated_->Add(batch_stats.codes_estimated);
  candidates_reranked_->Add(batch_stats.candidates_reranked);
  lists_probed_->Add(batch_stats.lists_probed);
  codes_filtered_->Add(batch_stats.codes_filtered);
  codes_refined_->Add(batch_stats.codes_refined);
  bound_violations_->Add(batch_stats.rerank_bound_violations);
  health_samples_->Add(batch_stats.rerank_health_samples);
  if (batch_stats.rerank_signed_err_sum != 0.0) {
    signed_err_sum_->Add(batch_stats.rerank_signed_err_sum);
  }
  if (batch_stats.rerank_tightness_sum != 0.0) {
    tightness_sum_->Add(batch_stats.rerank_tightness_sum);
  }
}

EngineStatsSnapshot EngineStatsCollector::Snapshot() const {
  EngineStatsSnapshot snap;
  snap.queries = queries_->Value();
  snap.batches = batches_->Value();
  snap.inserts = inserts_->Value();
  snap.deletes = deletes_->Value();
  snap.updates = updates_->Value();
  snap.compactions = compactions_->Value();
  snap.search_errors = search_errors_->Value();
  snap.queries_rejected = rejected_->Value();
  snap.queries_shed = shed_->Value();
  snap.deadline_exceeded = deadline_exceeded_->Value();
  snap.partial_responses = partial_responses_->Value();
  snap.shard_failures = shard_failures_->Value();
  snap.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    created_)
          .count();
  // QPS over the window since the last Reset(), NOT process uptime: a
  // post-warmup Reset() starts a fresh window, so the reported rate is not
  // diluted by build/idle time before it.
  snap.window_seconds = registry_->WindowSeconds();
  snap.qps = snap.window_seconds > 0.0
                 ? static_cast<double>(snap.queries) / snap.window_seconds
                 : 0.0;
  snap.mean_batch_size =
      snap.batches > 0
          ? static_cast<double>(snap.queries) / static_cast<double>(snap.batches)
          : 0.0;
  const obs::HistogramSnapshot latency = latency_->Snapshot();
  snap.latency_p50_us = latency.Quantile(0.50);
  snap.latency_p99_us = latency.Quantile(0.99);
  snap.latency_max_us = latency.max;
  snap.codes_estimated = codes_estimated_->Value();
  snap.candidates_reranked = candidates_reranked_->Value();
  snap.lists_probed = lists_probed_->Value();
  snap.codes_filtered = codes_filtered_->Value();
  snap.codes_refined = codes_refined_->Value();
  snap.rerank_bound_violations = bound_violations_->Value();
  snap.rerank_health_samples = health_samples_->Value();
  snap.eps0_violation_rate =
      snap.candidates_reranked > 0
          ? static_cast<double>(snap.rerank_bound_violations) /
                static_cast<double>(snap.candidates_reranked)
          : 0.0;
  if (snap.rerank_health_samples > 0) {
    const double inv = 1.0 / static_cast<double>(snap.rerank_health_samples);
    snap.rerank_signed_err_mean = signed_err_sum_->Value() * inv;
    snap.rerank_bound_tightness_mean = tightness_sum_->Value() * inv;
  }
  return snap;
}

}  // namespace rabitq
