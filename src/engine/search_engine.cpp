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
      "Mean of 1 - (exact - lower_bound) / |exact| at re-rank");
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
    const SearchRequest* requests, std::size_t n,
    const std::chrono::steady_clock::time_point* submit_times,
    SearchResponse* responses) {
  using Clock = std::chrono::steady_clock;
  std::lock_guard<std::mutex> batch_lock(batch_mutex_);
  const Clock::time_point start = Clock::now();
  // Each query's latency is its batch's execution time, or submit to
  // completion on the async path (queueing included).
  const auto record_batch = [&] {
    const Clock::time_point end = Clock::now();
    std::vector<double> latencies(n);
    for (std::size_t i = 0; i < n; ++i) {
      latencies[i] = std::chrono::duration<double, std::micro>(
                         end - (submit_times != nullptr ? submit_times[i]
                                                        : start))
                         .count();
    }
    stats_.RecordBatch(responses, n, latencies.data());
  };
  const std::size_t S = index_.num_shards();
  if (S == 0) {
    for (std::size_t i = 0; i < n; ++i) {
      responses[i].status =
          Status::FailedPrecondition("engine index not built");
    }
    record_batch();
    return;
  }

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
        if (obs::SampleTrace(*requests[i].options.seed,
                             config_.trace_sample_period)) {
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
      std::copy_n(requests[i].query, d, gather_buf_.Row(i));
    }
    // Cosine normalizes where it rotates (the index contract for pre-rotated
    // queries). A zero-norm query fails per-query, not per-batch: its gather
    // row rotates to zeros harmlessly and its cells are skipped below.
    if (metric_ == Metric::kCosine) {
      for (std::size_t i = 0; i < n; ++i) {
        if (NormalizeInPlace(gather_buf_.Row(i), d) == 0.0f) {
          responses[i].status =
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
    const std::size_t num_cells = n * S;
    cells_.resize(num_cells);
    const std::size_t chunks = std::min(num_threads_, num_cells);
    const std::size_t per_chunk = (num_cells + chunks - 1) / chunks;
    const auto run_chunk = [&](std::size_t c) {
      IvfSearchScratch& scratch = worker_scratch_[c].shard_scratch;
      const std::size_t end = std::min((c + 1) * per_chunk, num_cells);
      for (std::size_t cell = c * per_chunk; cell < end; ++cell) {
        const std::size_t q = cell / S;
        // A query that failed validation (zero-norm under cosine) runs no
        // cell and is never merged.
        if (!responses[q].ok()) continue;
        // A sampled query's cells may run on several threads; its trace's
        // relaxed atomic accumulators absorb the concurrent span adds.
        scratch.trace = batch_traces_[q];
        // The gather row (normalized under cosine, a plain copy otherwise)
        // is the query the shards see -- exact re-ranks and the merge must
        // score against the SAME vector the estimates were prepared from.
        index_.SearchShard(cell % S, gather_buf_.Row(q), rotated_buf_.Row(q),
                           requests[q].options, *requests[q].options.seed,
                           &scratch, &cells_[cell]);
      }
      scratch.trace = nullptr;
    };
    std::vector<std::future<void>> futures;
    futures.reserve(chunks - 1);  // no reallocation once a task is queued
    for (std::size_t c = 1; c < chunks && c * per_chunk < num_cells; ++c) {
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

    // Gather: this thread merges each query's S cells into its response,
    // reusing chunk 0's (now idle) scratch. A failed or out-of-time shard
    // degrades the query instead of failing it (see MergeShardResults).
    for (std::size_t q = 0; q < n; ++q) {
      if (!responses[q].ok()) continue;
      obs::ScopedSpan merge_span(batch_traces_[q], obs::Stage::kMerge);
      index_.MergeShardResults(gather_buf_.Row(q), requests[q].options,
                               &cells_[q * S], &worker_scratch_[0],
                               &responses[q]);
    }
    for (auto& lock : read_locks) lock.unlock();
  } catch (...) {
    // A batch that throws (say, from an IdFilter predicate) still shows in
    // the stats: its n queries record as failed before the exception leaves.
    for (std::size_t i = 0; i < n; ++i) {
      responses[i] = {Status::Internal("search threw"), {}, {}};
    }
    record_batch();
    throw;
  }
  record_batch();

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
      if (config_.trace_sink) {
        config_.trace_sink(*requests[i].options.seed, *trace);
      }
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
  // a dense sub-batch, then moved back into their slots).
  std::vector<SearchRequest> batch;
  std::vector<std::size_t> slot;  // batch index -> request index
  batch.reserve(num_requests);
  slot.reserve(num_requests);
  // Relative timeouts resolve against ONE admission timestamp for the whole
  // batch -- read lazily, so deadline-free batches never touch the clock
  // here (part of the bit-determinism contract).
  std::chrono::steady_clock::time_point now{};
  bool now_read = false;
  for (std::size_t i = 0; i < num_requests; ++i) {
    if (requests[i].query == nullptr) {
      (*responses)[i].status = Status::InvalidArgument("null query in request");
      continue;
    }
    SearchRequest& request = batch.emplace_back(requests[i]);
    slot.push_back(i);
    if (request.options.timeout_us != 0 && !now_read) {
      now = std::chrono::steady_clock::now();
      now_read = true;
    }
    request.options.ResolveDeadline(now);
    // Auto-seed by the request's BATCH POSITION (not its compacted slot) so
    // a request's derived seed is independent of its neighbors' validity.
    if (!request.options.seed) {
      request.options.seed = QuerySeed(config_.seed, i);
    }
  }
  if (!batch.empty()) {
    std::vector<SearchResponse> executed(batch.size());
    ExecuteBatch(batch.data(), batch.size(), /*submit_times=*/nullptr,
                 executed.data());
    for (std::size_t j = 0; j < batch.size(); ++j) {
      (*responses)[slot[j]] = std::move(executed[j]);
    }
  }
  for (const SearchResponse& response : *responses) {
    if (!response.status.ok()) return response.status;
  }
  return Status::Ok();
}

SearchResponse SearchEngine::Search(const SearchRequest& request) {
  std::vector<SearchResponse> responses;
  SearchBatch(&request, 1, &responses);
  return std::move(responses.front());
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
  // Only an unseeded submission draws a ticket: an explicitly seeded one
  // must not shift the auto-seed stream of interleaved unseeded ones.
  if (!queued.options.seed) {
    queued.options.seed = QuerySeed(
        config_.seed, next_ticket_.fetch_add(1, std::memory_order_relaxed));
  }
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
  std::vector<SearchRequest> requests;
  std::vector<std::chrono::steady_clock::time_point> submit_times;
  std::vector<SearchResponse> responses;
  while (queue_.PopBatch(config_.max_batch, &batch, &shed)) {
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
    requests.resize(n);
    submit_times.resize(n);
    responses.assign(n, {});
    for (std::size_t i = 0; i < n; ++i) {
      requests[i] = {batch[i].query.data(), batch[i].options};
      submit_times[i] = batch[i].submit_time;
    }
    try {
      ExecuteBatch(requests.data(), n, submit_times.data(), responses.data());
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
      batch[i].promise.set_value(std::move(responses[i]));
    }
  }
}

}  // namespace rabitq
