#include "engine/search_engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "linalg/vector_ops.h"
#include "util/failpoint.h"
#include "util/prng.h"

namespace rabitq {

SearchEngine::SearchEngine(ShardedIndex index, const EngineConfig& config)
    : index_(std::move(index)),
      dim_(index_.dim()),
      metric_(index_.metric()),
      bits_per_dim_(index_.encoder().config().bits_per_dim),
      config_(config),
      num_threads_(config.num_threads != 0
                       ? config.num_threads
                       : std::max<std::size_t>(
                             1, std::thread::hardware_concurrency())),
      worker_scratch_(num_threads_),
      stats_(&metrics_),
      queue_(config.max_queue_depth) {
  for (int s = 0; s < obs::kNumStages; ++s) {
    stage_hist_[s] = metrics_.GetHistogram(
        std::string("rabitq_stage_") +
            obs::StageName(static_cast<obs::Stage>(s)) + "_us",
        std::string("Per-query ") +
            obs::StageName(static_cast<obs::Stage>(s)) +
            " time in microseconds (sampled traces)");
  }
  compaction_pass_seconds_ = metrics_.GetHistogram(
      "rabitq_compaction_pass_seconds",
      "Wall time of background/explicit compaction passes that did work");
  compaction_codes_reclaimed_ = metrics_.GetCounter(
      "rabitq_compaction_codes_reclaimed_total",
      "Tombstoned code entries dropped by list compactions");
  traced_queries_ = metrics_.GetCounter("rabitq_traced_queries_total",
                                        "Queries with a sampled trace");
  gauge_live_vectors_ =
      metrics_.GetGauge("rabitq_live_vectors", "Live (non-deleted) vectors");
  gauge_tombstones_ = metrics_.GetGauge(
      "rabitq_tombstones", "Tombstoned list entries awaiting compaction");
  gauge_epoch_ = metrics_.GetGauge("rabitq_epoch", "Index mutation epoch");
  gauge_shards_ = metrics_.GetGauge("rabitq_num_shards", "Index shards");
  gauge_violation_rate_ = metrics_.GetGauge(
      "rabitq_eps0_violation_rate",
      "Observed share of re-ranked candidates violating the eps0 bound");
  gauge_signed_err_mean_ = metrics_.GetGauge(
      "rabitq_rerank_signed_err_mean",
      "Mean signed relative error of the estimate at re-rank");
  gauge_tightness_mean_ = metrics_.GetGauge(
      "rabitq_rerank_tightness_mean",
      "Mean lower_bound / exact distance ratio at re-rank");
  for (std::size_t s = 0; s < index_.num_shards(); ++s) {
    sync_.push_back(std::make_unique<ShardSync>());
  }
  // The batch's own thread is one of the num_threads_ executors, so a
  // one-thread engine runs every batch without a pool.
  if (num_threads_ > 1) pool_.emplace(num_threads_ - 1);
  scheduler_ = std::thread([this] { SchedulerLoop(); });
  compactor_ = std::thread([this] { CompactorLoop(); });
}

SearchEngine::SearchEngine(IvfRabitqIndex index, const EngineConfig& config)
    : SearchEngine(ShardedIndex::FromSingle(std::move(index)), config) {}

SearchEngine::~SearchEngine() { Drain(); }

void SearchEngine::Drain() {
  queue_.Close();  // PopBatch drains what was accepted, then returns false
  if (scheduler_.joinable()) scheduler_.join();
  {
    std::lock_guard<std::mutex> lock(compactor_mutex_);
    compactor_stop_ = true;
  }
  compactor_cv_.notify_all();
  if (compactor_.joinable()) compactor_.join();
}

std::size_t SearchEngine::size() const { return index_.size(); }

std::size_t SearchEngine::live_size() const {
  std::size_t live = 0;
  for (std::size_t s = 0; s < index_.num_shards(); ++s) {
    std::shared_lock<std::shared_mutex> lock(sync_[s]->index_mutex);
    live += index_.shard(s).live_size();
  }
  return live;
}

std::uint64_t SearchEngine::QuerySeed(std::uint64_t base,
                                      std::uint64_t ticket) {
  return MixSeed(base, ticket);
}

void SearchEngine::ExecuteBatch(
    const float* const* queries, std::size_t n,
    const SearchOptions* const* params, const std::uint64_t* seeds,
    const std::chrono::steady_clock::time_point* submit_times,
    Status* statuses, std::vector<Neighbor>* results, IvfSearchStats* stats,
    ShardMergeInfo* infos) {
  using Clock = std::chrono::steady_clock;
  std::lock_guard<std::mutex> batch_lock(batch_mutex_);
  const Clock::time_point start = Clock::now();
  // Each query's latency is its batch's execution time, or submit to
  // completion on the async path (queueing included).
  const auto record_batch = [&](const IvfSearchStats& batch_stats,
                                std::size_t errors) {
    const Clock::time_point end = Clock::now();
    std::vector<double> latencies(n);
    for (std::size_t i = 0; i < n; ++i) {
      latencies[i] = std::chrono::duration<double, std::micro>(
                         end - (submit_times != nullptr ? submit_times[i]
                                                        : start))
                         .count();
    }
    stats_.RecordBatch(n, latencies.data(), batch_stats, errors);
  };
  const std::size_t S = index_.num_shards();
  if (S == 0) {
    for (std::size_t i = 0; i < n; ++i) {
      statuses[i] = Status::FailedPrecondition("engine index not built");
    }
    return;
  }

  // A batch that throws (say, from an IdFilter predicate) still shows in
  // the stats: its n queries record as failed before the exception leaves.
  bool any_traced = false;
  try {
    // Deterministic trace sampling, decided before any work: a pure function
    // of each query's resolved seed, so the traced subset does not depend on
    // threads, shards or batch composition. batch_traces_[i] stays null for
    // untraced queries -- every downstream hook is then one branch, no clock.
    batch_traces_.assign(n, nullptr);
    if (config_.trace_sample_period > 0) {
      if (n > trace_capacity_) {
        trace_storage_ = std::make_unique<obs::QueryTrace[]>(n);
        trace_capacity_ = n;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (obs::SampleTrace(seeds[i], config_.trace_sample_period)) {
          trace_storage_[i].Clear();
          batch_traces_[i] = &trace_storage_[i];
          any_traced = true;
        }
      }
    }

    // The whole batch runs against one consistent snapshot: shared locks on
    // every shard, so mutations run between batches (or overlap batches that
    // have already finished with their shard -- never mid-read).
    std::vector<std::shared_lock<std::shared_mutex>> read_locks;
    read_locks.reserve(S);
    for (std::size_t s = 0; s < S; ++s) {
      read_locks.emplace_back(sync_[s]->index_mutex);
    }

    // Gather and rotate every query with one matrix-matrix product -- the
    // per-query gemv this replaces is the dominant shared-preprocessing cost.
    Clock::time_point preprocess_start;
    if (any_traced) preprocess_start = Clock::now();
    const std::size_t d = index_.dim();
    gather_buf_.Reset(n, d);
    for (std::size_t i = 0; i < n; ++i) {
      std::copy_n(queries[i], d, gather_buf_.Row(i));
    }
    // Cosine normalizes where it rotates (the index contract for pre-rotated
    // queries). A zero-norm query fails per-query, not per-batch: its gather
    // row rotates to zeros harmlessly and its cells are skipped below.
    std::vector<Status> query_status(n, Status::Ok());
    if (metric_ == Metric::kCosine) {
      for (std::size_t i = 0; i < n; ++i) {
        if (NormalizeInPlace(gather_buf_.Row(i), d) == 0.0f) {
          query_status[i] =
              Status::InvalidArgument("zero-norm query under cosine metric");
        }
      }
    }
    index_.encoder().rotator().InverseRotateBatch(gather_buf_, &rotated_buf_);
    if (any_traced) {
      // The batched rotation is shared work; each sampled trace gets its
      // per-query share (batch duration / batch size).
      const std::uint64_t preprocess_ns =
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - preprocess_start)
                  .count()) /
          n;
      for (std::size_t i = 0; i < n; ++i) {
        if (batch_traces_[i] != nullptr) {
          batch_traces_[i]->AddNanos(obs::Stage::kPreprocess, preprocess_ns);
        }
      }
    }

    // Scatter: (query x shard) cells in contiguous chunks, chunk c exclusively
    // owning worker_scratch_[c]. The pool runs chunks 1..C-1 while this thread
    // runs chunk 0, so a one-cell batch never leaves this thread.
    const std::size_t cells = n * S;
    cell_status_.assign(cells, Status::Ok());
    cell_results_.resize(cells);
    cell_stats_.assign(cells, IvfSearchStats{});
    const std::size_t chunks = std::min(num_threads_, cells);
    const std::size_t per_chunk = (cells + chunks - 1) / chunks;
    const auto run_chunk = [&](std::size_t c) {
      IvfSearchScratch& scratch = worker_scratch_[c].shard_scratch;
      const std::size_t end = std::min((c + 1) * per_chunk, cells);
      for (std::size_t cell = c * per_chunk; cell < end; ++cell) {
        const std::size_t q = cell / S;
        const std::size_t s = cell % S;
        // A sampled query's cells may run on several threads; its trace's
        // relaxed atomic accumulators absorb the concurrent span adds.
        if (!query_status[q].ok()) {
          cell_status_[cell] = query_status[q];
          continue;
        }
        scratch.trace = batch_traces_[q];
        // The gather row (normalized under cosine, a plain copy otherwise)
        // is the query the shards see -- exact re-ranks and the merge must
        // score against the SAME vector the estimates were prepared from.
        cell_status_[cell] = index_.SearchShard(
            s, gather_buf_.Row(q), rotated_buf_.Row(q), *params[q], seeds[q],
            &scratch, &cell_results_[cell], &cell_stats_[cell]);
      }
      scratch.trace = nullptr;
    };
    std::vector<std::future<void>> futures;
    futures.reserve(chunks - 1);  // no reallocation once a task is queued
    for (std::size_t c = 1; c < chunks && c * per_chunk < cells; ++c) {
      futures.push_back(pool_->SubmitTask([&run_chunk, c] { run_chunk(c); }));
    }
    std::exception_ptr first_error;
    try {
      run_chunk(0);
    } catch (...) {
      first_error = std::current_exception();
    }
    // Drain EVERY chunk before surfacing a failure: packaged_task futures do
    // not block on destruction, so rethrowing early would unwind (freeing the
    // cell buffers and releasing batch_mutex_) while the remaining workers
    // still write through those pointers.
    for (auto& f : futures) {
      try {
        f.get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);

    // Gather: this thread merges each query's S shard cells into its global
    // result, reusing chunk 0's (now idle) scratch.
    for (std::size_t q = 0; q < n; ++q) {
      // A query that failed validation before the scatter (zero-norm under
      // cosine) never ran any cell; everything else merges with the per-shard
      // statuses so a failed or out-of-time shard degrades the query instead
      // of failing it (see ShardedIndex::MergeShardResults).
      if (!query_status[q].ok()) {
        statuses[q] = query_status[q];
        continue;
      }
      obs::ScopedSpan merge_span(batch_traces_[q], obs::Stage::kMerge);
      statuses[q] = index_.MergeShardResults(
          gather_buf_.Row(q), *params[q], &cell_results_[q * S],
          &cell_stats_[q * S], &worker_scratch_[0], &results[q], &stats[q],
          &cell_status_[q * S], &infos[q]);
    }
    for (auto& lock : read_locks) lock.unlock();
  } catch (...) {
    record_batch(IvfSearchStats{}, n);
    throw;
  }

  std::size_t errors = 0;
  IvfSearchStats batch_stats;
  for (std::size_t i = 0; i < n; ++i) {
    batch_stats += stats[i];
    if (!statuses[i].ok()) ++errors;
    if (statuses[i].code() == StatusCode::kDeadlineExceeded) {
      stats_.RecordDeadlineExceeded();
    }
    if (infos[i].partial) stats_.RecordPartialResponse();
    if (infos[i].shards_failed > 0) {
      stats_.RecordShardFailures(infos[i].shards_failed);
    }
  }
  record_batch(batch_stats, errors);

  // Fold the sampled traces into the per-stage histograms and hand them to
  // the optional sink. Queue wait (submit -> batch start) only exists on
  // the async path; the sync path records no kQueueWait samples.
  if (any_traced) {
    for (std::size_t i = 0; i < n; ++i) {
      obs::QueryTrace* const trace = batch_traces_[i];
      if (trace == nullptr) continue;
      if (submit_times != nullptr) {
        const std::int64_t wait_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                start - submit_times[i])
                .count();
        if (wait_ns > 0) {
          trace->AddNanos(obs::Stage::kQueueWait,
                          static_cast<std::uint64_t>(wait_ns));
        }
      }
      for (int s = 0; s < obs::kNumStages; ++s) {
        const std::uint64_t ns = trace->Nanos(static_cast<obs::Stage>(s));
        if (ns > 0) {
          stage_hist_[s]->Record(static_cast<double>(ns) * 1e-3);
        }
      }
      traced_queries_->Increment();
      if (config_.trace_sink) config_.trace_sink(seeds[i], *trace);
    }
  }
}

Status SearchEngine::SearchBatch(const SearchRequest* requests,
                                 std::size_t num_requests,
                                 std::vector<SearchResponse>* responses) {
  if (responses == nullptr) {
    return Status::InvalidArgument("null responses");
  }
  responses->assign(num_requests, {});
  if (num_requests == 0) return Status::Ok();  // empty batch is a no-op
  if (requests == nullptr) {
    return Status::InvalidArgument("null requests");
  }
  // Per-response error contract: a null-query request fails through its own
  // response.status while the valid requests still execute (compacted into
  // a dense sub-batch, then scattered back).
  std::vector<std::size_t> live;
  live.reserve(num_requests);
  for (std::size_t i = 0; i < num_requests; ++i) {
    if (requests[i].query == nullptr) {
      (*responses)[i].status = Status::InvalidArgument("null query in request");
    } else {
      live.push_back(i);
    }
  }
  const std::size_t n = live.size();
  if (n > 0) {
    std::vector<const float*> query_ptrs(n);
    std::vector<SearchOptions> owned_params(n);
    std::vector<const SearchOptions*> param_ptrs(n);
    std::vector<std::uint64_t> seeds(n);
    std::vector<Status> statuses(n);
    std::vector<std::vector<Neighbor>> results(n);
    std::vector<IvfSearchStats> stats(n);
    std::vector<ShardMergeInfo> infos(n);
    // Relative timeouts resolve against ONE admission timestamp for the
    // whole batch -- read lazily, so deadline-free batches never touch the
    // clock here (part of the bit-determinism contract).
    std::chrono::steady_clock::time_point now{};
    bool now_read = false;
    for (std::size_t j = 0; j < n; ++j) {
      const SearchRequest& request = requests[live[j]];
      query_ptrs[j] = request.query;
      owned_params[j] = request.options;
      if (owned_params[j].timeout_us != 0 && !now_read) {
        now = std::chrono::steady_clock::now();
        now_read = true;
      }
      owned_params[j].ResolveDeadline(now);
      param_ptrs[j] = &owned_params[j];
      // Auto-seed by the request's BATCH POSITION (not its compacted slot)
      // so a request's derived seed is independent of its neighbors'
      // validity.
      seeds[j] =
          request.options.seed.value_or(QuerySeed(config_.seed, live[j]));
    }
    ExecuteBatch(query_ptrs.data(), n, param_ptrs.data(), seeds.data(),
                 /*submit_times=*/nullptr, statuses.data(), results.data(),
                 stats.data(), infos.data());
    for (std::size_t j = 0; j < n; ++j) {
      SearchResponse& response = (*responses)[live[j]];
      response.status = std::move(statuses[j]);
      response.neighbors = std::move(results[j]);
      response.stats = stats[j];
      response.partial = infos[j].partial;
      response.shards_ok = infos[j].shards_ok;
      response.shards_failed = infos[j].shards_failed;
    }
  }
  for (const SearchResponse& response : *responses) {
    if (!response.status.ok()) return response.status;
  }
  return Status::Ok();
}

SearchResponse SearchEngine::Search(const SearchRequest& request) {
  std::vector<SearchResponse> responses;
  const Status status = SearchBatch(&request, 1, &responses);
  if (responses.empty()) {
    SearchResponse response;
    response.status =
        status.ok() ? Status::Internal("batch of one produced no response")
                    : status;
    return response;
  }
  SearchResponse response = std::move(responses.front());
  // A batch-level failure must not surface as an ok() response.
  if (response.status.ok() && !status.ok()) response.status = status;
  return response;
}

std::future<SearchResponse> SearchEngine::SubmitAsync(
    const SearchRequest& request) {
  QueuedQuery queued;
  std::future<SearchResponse> future = queued.promise.get_future();
  if (request.query == nullptr) {
    queued.promise.set_value(
        SearchResponse{Status::InvalidArgument("null query in request"),
                       {},
                       {}});
    return future;
  }
  queued.query.assign(request.query, request.query + dim());
  queued.options = request.options;
  // Not value_or: its argument evaluates eagerly, and an explicitly-seeded
  // submission must NOT consume a ticket (the auto-seed stream of
  // interleaved unseeded submissions would shift otherwise).
  queued.seed = request.options.seed.has_value()
                    ? *request.options.seed
                    : QuerySeed(config_.seed, next_ticket_.fetch_add(
                                                  1, std::memory_order_relaxed));
  queued.submit_time = std::chrono::steady_clock::now();
  // A relative timeout becomes an absolute deadline at ADMISSION, so queue
  // time counts against the budget (that is the point of shedding).
  queued.options.ResolveDeadline(queued.submit_time);
  bool injected_full = false;
  RABITQ_FAILPOINT("engine.queue_push", injected_full = true);
  const RequestQueue::PushResult pushed =
      injected_full ? RequestQueue::PushResult::kFull
                    : queue_.Push(std::move(queued));
  switch (pushed) {
    case RequestQueue::PushResult::kAccepted:
      break;
    case RequestQueue::PushResult::kFull: {
      // Push refused without consuming `queued`; fail fast instead of
      // queueing work the engine is too far behind to serve in time.
      stats_.RecordRejected();
      SearchResponse response;
      response.status = Status::ResourceExhausted("request queue is full");
      queued.promise.set_value(std::move(response));
      break;
    }
    case RequestQueue::PushResult::kClosed: {
      SearchResponse response;
      response.status = Status::FailedPrecondition("engine is shutting down");
      queued.promise.set_value(std::move(response));
      break;
    }
  }
  return future;
}

Status SearchEngine::Insert(const float* vec, std::uint32_t* id_out) {
  std::uint32_t id = 0, shard = 0;
  RABITQ_RETURN_IF_ERROR(index_.ReserveId(&id, &shard));
  Status status;
  {
    std::lock_guard<std::mutex> writer(sync_[shard]->writer_mutex);
    std::unique_lock<std::shared_mutex> write_lock(sync_[shard]->index_mutex);
    status = index_.CompleteAdd(id, shard, vec);
  }
  if (status.ok()) {
    epoch_.fetch_add(1, std::memory_order_release);
    stats_.RecordInsert();
    if (id_out != nullptr) *id_out = id;
  }
  return status;
}

bool SearchEngine::ListNeedsCompaction(std::uint32_t shard,
                                       std::uint32_t list_id) const {
  // Called under the shard's writer_mutex with no other writer of that
  // shard possible, so reading its list stats outside index_mutex is safe;
  // O(1), unlike a full ListsNeedingCompaction scan.
  if (config_.compaction_tombstone_ratio <= 0.0f) return false;
  const IvfRabitqIndex& s = index_.shard(shard);
  const std::size_t dead = s.list_tombstones(list_id);
  if (dead == 0 || dead < config_.compaction_min_dead) return false;
  return static_cast<float>(dead) >=
         config_.compaction_tombstone_ratio *
             static_cast<float>(s.list_ids(list_id).size());
}

Status SearchEngine::Delete(std::uint32_t id) {
  std::uint32_t shard = 0;
  if (!index_.TryShardOf(id, &shard)) return Status::NotFound("id not live");
  bool kick = false;
  Status status;
  {
    std::lock_guard<std::mutex> writer(sync_[shard]->writer_mutex);
    {
      std::unique_lock<std::shared_mutex> write_lock(sync_[shard]->index_mutex);
      status = index_.Delete(id);
    }
    if (status.ok()) {
      epoch_.fetch_add(1, std::memory_order_release);
      stats_.RecordDelete();
      // Delete leaves the local id pointing at the tombstoned entry's list.
      kick = ListNeedsCompaction(
          shard, index_.shard(shard).list_of(index_.local_of(id)));
    }
  }
  if (kick) KickCompactor();
  return status;
}

Status SearchEngine::Update(std::uint32_t id, const float* vec) {
  std::uint32_t shard = 0;
  if (!index_.TryShardOf(id, &shard)) return Status::NotFound("id not live");
  bool kick = false;
  Status status;
  {
    std::lock_guard<std::mutex> writer(sync_[shard]->writer_mutex);
    // The tombstone lands in the list currently holding the id; capture it
    // before Update repoints the shard's id->list mapping.
    const bool live = !index_.IsDeleted(id);
    const std::uint32_t old_list =
        live ? index_.shard(shard).list_of(index_.local_of(id)) : 0;
    {
      std::unique_lock<std::shared_mutex> write_lock(sync_[shard]->index_mutex);
      status = index_.Update(id, vec);
    }
    if (status.ok()) {
      epoch_.fetch_add(1, std::memory_order_release);
      stats_.RecordUpdate();
      kick = ListNeedsCompaction(shard, old_list);
    }
  }
  if (kick) KickCompactor();
  return status;
}

Status SearchEngine::CompactNow() {
  return RunCompactions(/*min_ratio=*/0.0f, /*min_dead=*/1);
}

Status SearchEngine::RunCompactions(float min_ratio, std::size_t min_dead) {
  Status first_error;
  const auto pass_start = std::chrono::steady_clock::now();
  std::size_t lists_done = 0;
  for (std::size_t shard = 0; shard < index_.num_shards(); ++shard) {
    std::vector<std::uint32_t> victims;
    {
      std::lock_guard<std::mutex> writer(sync_[shard]->writer_mutex);
      victims = index_.shard(shard).ListsNeedingCompaction(min_ratio, min_dead);
    }
    for (const std::uint32_t l : victims) {
      // The shard's writer_mutex is held per LIST, not across the pass: it
      // pins the list between plan (under the shared lock -- queries keep
      // executing) and commit (brief exclusive swap), while mutations of
      // this shard interleave between lists instead of stalling, and other
      // shards are never touched at all.
      std::lock_guard<std::mutex> writer(sync_[shard]->writer_mutex);
      IvfRabitqIndex* target = index_.mutable_shard(shard);
      // Tombstone count at plan time == entries the commit reclaims (the
      // commit fails closed if the list mutates in between).
      const std::size_t dead = target->list_tombstones(l);
      if (dead == 0) continue;  // mutated since selection
      IvfCompactionPlan plan;
      Status s;
      {
        std::shared_lock<std::shared_mutex> read_lock(sync_[shard]->index_mutex);
        s = target->PlanListCompaction(l, &plan);
      }
      if (s.ok()) {
        std::unique_lock<std::shared_mutex> write_lock(sync_[shard]->index_mutex);
        s = target->CommitListCompaction(std::move(plan));
      }
      if (s.ok()) {
        epoch_.fetch_add(1, std::memory_order_release);
        stats_.RecordCompaction();
        compaction_codes_reclaimed_->Add(dead);
        ++lists_done;
      } else if (first_error.ok()) {
        first_error = s;
      }
    }
  }
  // Idle scans (nothing selected) record no pass: the histogram measures
  // the cost of passes that did work, not the compactor's polling cadence.
  if (lists_done > 0) {
    compaction_pass_seconds_->Record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      pass_start)
            .count());
  }
  return first_error;
}

void SearchEngine::KickCompactor() {
  {
    std::lock_guard<std::mutex> lock(compactor_mutex_);
    compactor_kicked_ = true;
  }
  compactor_cv_.notify_one();
}

void SearchEngine::CompactorLoop() {
  std::unique_lock<std::mutex> lock(compactor_mutex_);
  for (;;) {
    compactor_cv_.wait(lock,
                       [this] { return compactor_kicked_ || compactor_stop_; });
    if (compactor_stop_) return;
    compactor_kicked_ = false;
    lock.unlock();
    RunCompactions(config_.compaction_tombstone_ratio,
                   config_.compaction_min_dead);
    lock.lock();
  }
}

EngineStatsSnapshot SearchEngine::Stats() const {
  EngineStatsSnapshot snap = stats_.Snapshot();
  snap.epoch = epoch();
  snap.num_shards = index_.num_shards();
  for (std::size_t s = 0; s < index_.num_shards(); ++s) {
    std::shared_lock<std::shared_mutex> lock(sync_[s]->index_mutex);
    snap.live_vectors += index_.shard(s).live_size();
    snap.tombstones += index_.shard(s).num_tombstones();
  }
  // Mirror the lifecycle and derived-health values into gauges so the
  // registry exports (Prometheus/JSON) carry them without recomputation.
  gauge_live_vectors_->Set(static_cast<double>(snap.live_vectors));
  gauge_tombstones_->Set(static_cast<double>(snap.tombstones));
  gauge_epoch_->Set(static_cast<double>(snap.epoch));
  gauge_shards_->Set(static_cast<double>(snap.num_shards));
  gauge_violation_rate_->Set(snap.eps0_violation_rate);
  gauge_signed_err_mean_->Set(snap.rerank_signed_err_mean);
  gauge_tightness_mean_->Set(snap.rerank_bound_tightness_mean);
  return snap;
}

obs::MetricsSnapshot SearchEngine::SnapshotMetrics() const {
  (void)Stats();  // refresh the lifecycle + derived-health gauges
  return metrics_.Snapshot();
}

Status SearchEngine::SaveSnapshot(const std::string& path) const {
  // Shared locks on every shard (ascending, matching ExecuteBatch's order):
  // the saved cut is consistent across shards, searches keep flowing, and
  // writers/compaction commits queue behind the write.
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(sync_.size());
  for (const auto& sync : sync_) locks.emplace_back(sync->index_mutex);
  return index_.Save(path);
}

void SearchEngine::SchedulerLoop() {
  std::vector<QueuedQuery> batch;
  std::vector<QueuedQuery> shed;
  std::vector<const float*> query_ptrs;
  std::vector<const SearchOptions*> param_ptrs;
  std::vector<std::uint64_t> seeds;
  std::vector<std::chrono::steady_clock::time_point> submit_times;
  std::vector<Status> statuses;
  std::vector<std::vector<Neighbor>> results;
  std::vector<IvfSearchStats> stats;
  std::vector<ShardMergeInfo> infos;
  while (queue_.PopBatch(config_.max_batch,
                         std::chrono::microseconds(config_.batch_linger_us),
                         &batch, &shed)) {
    // Shed queries fail without executing: their deadline expired while
    // they waited, so the kindest answer is an immediate one.
    for (QueuedQuery& dropped : shed) {
      stats_.RecordShed();
      SearchResponse response;
      response.status =
          Status::DeadlineExceeded("deadline expired while queued");
      response.partial = true;
      dropped.promise.set_value(std::move(response));
    }
    const std::size_t n = batch.size();
    if (n == 0) continue;  // everything popped this round was shed
    query_ptrs.resize(n);
    param_ptrs.resize(n);
    seeds.resize(n);
    submit_times.resize(n);
    statuses.assign(n, Status::Ok());
    results.assign(n, {});
    stats.assign(n, IvfSearchStats{});
    infos.assign(n, ShardMergeInfo{});
    for (std::size_t i = 0; i < n; ++i) {
      query_ptrs[i] = batch[i].query.data();
      param_ptrs[i] = &batch[i].options;
      seeds[i] = batch[i].seed;
      submit_times[i] = batch[i].submit_time;
    }
    try {
      ExecuteBatch(query_ptrs.data(), n, param_ptrs.data(), seeds.data(),
                   submit_times.data(), statuses.data(), results.data(),
                   stats.data(), infos.data());
    } catch (...) {
      // A search that throws (a throwing IdFilter predicate, bad_alloc in a
      // scan) fails every request of its batch, as SearchBatch throws to a
      // sync caller; escaping this thread would terminate the process.
      for (QueuedQuery& query : batch) {
        query.promise.set_exception(std::current_exception());
      }
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      SearchResponse response;
      response.status = std::move(statuses[i]);
      response.neighbors = std::move(results[i]);
      response.stats = stats[i];
      response.partial = infos[i].partial;
      response.shards_ok = infos[i].shards_ok;
      response.shards_failed = infos[i].shards_failed;
      batch[i].promise.set_value(std::move(response));
    }
  }
}

}  // namespace rabitq
