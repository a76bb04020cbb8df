// Concurrent query-serving engine over a sharded IVF+RaBitQ index -- the
// layer the paper's evaluation protocol (one thread, one query at a time)
// leaves out. Layering: linalg -> quant/core -> cluster/index -> engine ->
// bench/examples.
//
// What it does:
//   * Batched execution (SearchBatch): rotates a whole batch of queries with
//     ONE matrix-matrix product (Rotator::InverseRotateBatch) instead of one
//     gemv per query, then runs the (query x shard) work cells in chunks:
//     the batch's own thread runs the first chunk and the per-query merge,
//     a private ThreadPool the rest. Each chunk owns its scratch, so the
//     hot path stops allocating once the buffers reach steady state.
//   * Micro-batching (SubmitAsync): producers enqueue single queries and get
//     futures; a scheduler thread gathers the queue into batches (up to
//     max_batch, lingering batch_linger_us) and runs them through the same
//     batched path, amortizing the per-batch costs across concurrent callers.
//   * Read/write coordination, PER SHARD: every batch executes against a
//     consistent snapshot (shared lock on every shard for the batch's
//     duration); Insert/Delete/Update lock only the ONE shard their id
//     hashes to -- exclusively for the index mutation, plus that shard's
//     writer mutex for the logical span. Mutations to different shards no
//     longer contend, which is the write-scaling point of sharding; the
//     engine-wide single writer mutex of the unsharded engine is gone.
//   * Background compaction: when a mutation pushes a list's tombstone
//     ratio past EngineConfig::compaction_tombstone_ratio, a maintenance
//     thread rebuilds that (shard, list). The rebuild (plan) runs under the
//     shard's SHARED lock -- queries keep flowing -- and only the
//     O(live-entries) swap (commit) takes the shard's exclusive lock.
//   * Determinism: each query is searched with seeds derived from
//     (engine seed, ticket) -- or an explicit caller seed -- and per-list
//     rounding seeds derive from (query seed, list id), so results are
//     bit-identical to the sequential reference no matter how many threads
//     or shards serve the batch or how requests interleave.
//
// Thread safety: every public method may be called from any thread.

#ifndef RABITQ_ENGINE_SEARCH_ENGINE_H_
#define RABITQ_ENGINE_SEARCH_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "engine/engine_stats.h"
#include "engine/request_queue.h"
#include "index/ivf.h"
#include "index/sharded.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace rabitq {

struct EngineConfig {
  /// Threads executing a batch, counting the batch's own thread (the caller
  /// or the async scheduler); the pool gets the rest. 0 = hardware concurrency.
  std::size_t num_threads = 0;
  /// Async scheduler: largest batch gathered from the submission queue
  /// (0 acts as 1: every batch takes at least one request).
  std::size_t max_batch = 32;
  /// Async scheduler: how long the first request of a batch may wait for
  /// company, in microseconds. 0 disables lingering (greedy batches).
  std::size_t batch_linger_us = 200;
  /// Bounded admission: SubmitAsync fails fast with kResourceExhausted once
  /// this many requests are queued, so a flood of producers cannot grow the
  /// backlog (and its memory) without limit. 0 means unbounded -- the
  /// pre-robustness behavior.
  std::size_t max_queue_depth = 16384;
  /// Base of the per-query seed derivation (see QuerySeed).
  std::uint64_t seed = 0x5EEDC0FFEE5EEDULL;
  /// Background compaction trigger: a list is rebuilt once its tombstone
  /// ratio (dead entries / entries) reaches this. <= 0 disables the
  /// background pass (CompactNow still works).
  float compaction_tombstone_ratio = 0.25f;
  /// Lists with fewer tombstones than this are never auto-compacted
  /// (rebuilding a 3-entry list over one tombstone is churn, not progress).
  std::size_t compaction_min_dead = 32;
  /// Per-stage trace sampling: one query in `trace_sample_period` records
  /// spans (queue wait, preprocess, probe order, scan, re-rank, merge) into
  /// the per-stage latency histograms. The decision is a pure function of
  /// the query's resolved seed (obs::SampleTrace), so the traced subset is
  /// deterministic across runs and shard counts. 0 disables tracing;
  /// 1 traces every query. Untraced queries pay one seed mix and a few
  /// null checks -- no clock reads.
  std::uint32_t trace_sample_period = 64;
  /// Optional per-query trace dump: invoked synchronously after each batch
  /// for every SAMPLED query with (resolved query seed, completed trace).
  /// Runs on the batch-executing thread with no engine locks held, but
  /// stalls serving while it runs -- keep it cheap, and make it thread-safe
  /// if batches come from several threads.
  std::function<void(std::uint64_t, const obs::QueryTrace&)> trace_sink;
};

/// Owns a built (possibly sharded) index and serves k-NN concurrently.
class SearchEngine {
 public:
  /// Takes ownership of a BUILT sharded index (an engine serving an empty
  /// index is a config error surfaced by the first search).
  explicit SearchEngine(ShardedIndex index, const EngineConfig& config = {});

  /// Convenience: wraps a single IvfRabitqIndex as a 1-shard configuration.
  explicit SearchEngine(IvfRabitqIndex index, const EngineConfig& config = {});

  ~SearchEngine();

  SearchEngine(const SearchEngine&) = delete;
  SearchEngine& operator=(const SearchEngine&) = delete;

  /// The owned index. Reading it while a writer (Insert/Delete/Update or a
  /// background compaction commit) runs on another thread races; quiesce
  /// writers (or take no writers by construction) before touching index
  /// internals directly. Serving-path accessors (Stats, size) are safe.
  const ShardedIndex& index() const { return index_; }

  std::size_t num_threads() const { return num_threads_; }
  std::size_t num_shards() const { return index_.num_shards(); }
  /// Cached at construction: the serving paths read it lock-free, and even
  /// an immutable-in-practice index_.dim() would race with Insert's move
  /// of the underlying storage.
  std::size_t dim() const { return dim_; }
  /// Distance metric of the served index (cached at construction, same
  /// reasoning as dim()).
  Metric metric() const { return metric_; }
  /// Current number of ids ever assigned (racy snapshot, safe anytime).
  std::size_t size() const;
  /// Current number of live (non-deleted) vectors (racy snapshot).
  std::size_t live_size() const;
  /// Index version: starts at 0, bumped by every successful mutation
  /// (Insert/Delete/Update and each committed list compaction).
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Deterministic per-query seed stream: SplitMix64 of (base, ticket).
  /// Query i of a request batch without explicit seeds uses
  /// QuerySeed(config.seed, i); the parity tests replay the same seeds
  /// through the sequential reference.
  static std::uint64_t QuerySeed(std::uint64_t base, std::uint64_t ticket);

  /// Synchronous batched search -- the request-based core every other entry
  /// point (single-query Search, SubmitAsync) funnels into.
  /// responses->at(i) receives query i's outcome (GLOBAL ids); a failed
  /// query reports through its own response.status while the rest of the
  /// batch still executes, and the first per-query error is also returned.
  /// Each request's options.seed is used verbatim when set, else
  /// QuerySeed(config.seed, i). Filters ride in the options and are pushed
  /// into the per-shard scans (see ShardedIndex).
  Status SearchBatch(const SearchRequest* requests, std::size_t num_requests,
                     std::vector<SearchResponse>* responses);

  /// Synchronous single query: a batch of one.
  SearchResponse Search(const SearchRequest& request);

  /// Enqueues one query for the micro-batching scheduler and returns a
  /// future fulfilled when its batch executes. The vector is copied; the
  /// options (including the filter VIEW -- keep its bitmap/context alive
  /// until the future resolves) ride along. options.seed unset draws the
  /// next ticket from the engine's auto-seed stream; set, it is used
  /// verbatim, making the result reproducible independently of submission
  /// interleaving. Overload behavior: with the queue at max_queue_depth the
  /// future resolves immediately with kResourceExhausted; a request whose
  /// deadline (options.deadline / options.timeout_us, resolved against the
  /// submission time) expires while queued is shed unexecuted and resolves
  /// with kDeadlineExceeded. An exception thrown by the search (say, from
  /// an IdFilter predicate) is rethrown by get() on every future of that
  /// batch, as SearchBatch would throw it to its caller.
  std::future<SearchResponse> SubmitAsync(const SearchRequest& request);

  /// Graceful shutdown: closes admission (subsequent SubmitAsync resolves
  /// with kFailedPrecondition), serves or sheds every already-accepted
  /// request, joins the scheduler, and stops the background compactor.
  /// Idempotent; the destructor calls it. Synchronous entry points
  /// (SearchBatch / Search) keep working after a drain.
  void Drain();

  /// Appends one vector (copied): reserves the next global id, then
  /// excludes search batches from ONLY the owning shard for the duration of
  /// the underlying append. Queries batched before and after the insert see
  /// consistent pre-/post-insert snapshots respectively.
  Status Insert(const float* vec, std::uint32_t* id_out = nullptr);

  /// Tombstones `id`; it stops appearing in results from the next batch on.
  /// May trigger a background compaction of the affected (shard, list).
  Status Delete(std::uint32_t id);

  /// Replaces the vector of live `id` in place (same id and shard).
  /// May trigger a background compaction of the list left behind.
  Status Update(std::uint32_t id, const float* vec);

  /// Synchronously compacts every list of every shard that has any
  /// tombstone, regardless of the configured trigger. Queries keep flowing
  /// during the rebuilds; each list swap briefly excludes them from its
  /// shard. Returns the first error.
  Status CompactNow();

  EngineStatsSnapshot Stats() const;
  /// Zeroes EVERY registry metric (engine counters, per-stage histograms,
  /// compaction metrics) and restarts the QPS window -- call after warmup
  /// for rates over the serving window only.
  void ResetStats() { stats_.Reset(); }

  /// Full observability snapshot: every registry metric (engine counters,
  /// per-stage trace histograms rabitq_stage_*_us, estimator health,
  /// compaction metrics) with the lifecycle/health gauges refreshed first.
  /// Feed it to obs::ExportJson / obs::ExportPrometheus.
  obs::MetricsSnapshot SnapshotMetrics() const;

  /// The engine's metric registry: extension point for embedding callers
  /// that want to register their own metrics into the same export.
  obs::MetricsRegistry* metrics() { return &metrics_; }

  /// Writes a snapshot of the owned index to `path` (ShardedIndex::Save:
  /// crash-safe, two-phase, manifest-last). Every shard lock is taken
  /// SHARED for the write, so the snapshot is a consistent cut: queries
  /// keep flowing, mutations and compaction commits wait.
  Status SaveSnapshot(const std::string& path) const;

 private:
  /// Per-shard coordination: readers (batches) share index_mutex; mutators
  /// take it exclusively for the index mutation and ALSO hold writer_mutex
  /// for their full logical span -- serializing writers of the SAME shard
  /// against each other and pinning list state between a compaction's plan
  /// (shared lock only) and commit (exclusive lock). Writers of different
  /// shards run fully in parallel. Lock order: writer_mutex before
  /// index_mutex; shard locks in ascending shard order.
  struct ShardSync {
    mutable std::shared_mutex index_mutex;
    std::mutex writer_mutex;
  };

  /// Executes `n` gathered requests into `responses` (length n, default-
  /// constructed): one shared lock per shard, one batched rotation, then a
  /// (query x shard) scatter whose first chunk runs on the calling thread
  /// and the rest in one pool round (none for a one-cell batch), then each
  /// query's merge on the calling thread. Every request arrives with
  /// options.seed set and its deadline resolved. Exactly one batch runs at
  /// a time (batch_mutex_): per-chunk scratch and the cells are reused
  /// across batches. The responses are recorded into the stats, also when
  /// the batch throws (then every response is a failure). `submit_times`
  /// non-null switches the recorded per-query latency from batch execution
  /// time to submit-to-completion time (the async path, queueing included).
  void ExecuteBatch(const SearchRequest* requests, std::size_t n,
                    const std::chrono::steady_clock::time_point* submit_times,
                    SearchResponse* responses);

  void SchedulerLoop();
  void CompactorLoop();
  /// O(1) trigger check for the one list a mutation just touched. Must be
  /// called under sync_[shard]->writer_mutex.
  bool ListNeedsCompaction(std::uint32_t shard, std::uint32_t list_id) const;
  /// Wakes the compactor to re-scan for over-threshold lists.
  void KickCompactor();
  /// Plan+commit every (shard, list) selected by (min_ratio, min_dead).
  /// Caller must hold NO shard locks.
  Status RunCompactions(float min_ratio, std::size_t min_dead);

  ShardedIndex index_;
  std::size_t dim_;
  Metric metric_;
  EngineConfig config_;
  std::size_t num_threads_;  // config_.num_threads resolved
  std::optional<ThreadPool> pool_;  // num_threads_ - 1 workers; none at 1

  std::vector<std::unique_ptr<ShardSync>> sync_;  // one per shard
  std::atomic<std::uint64_t> epoch_{0};

  // One batch in flight at a time; guards the scratch below.
  std::mutex batch_mutex_;
  Matrix gather_buf_;   // batch x dim, for async requests
  Matrix rotated_buf_;  // batch x total_bits, the batched rotation
  std::vector<ShardedSearchScratch> worker_scratch_;  // one per chunk
  // (query x shard) cells from SearchShard, laid out q * num_shards + s.
  std::vector<SearchResponse> cells_;

  // Observability. metrics_ is declared before stats_ (the collector
  // resolves its metrics out of it at construction). Traced queries write
  // into trace_storage_ slots (QueryTrace holds atomics, so the storage is
  // a raw array grown to the largest batch, guarded by batch_mutex_);
  // batch_traces_[q] is the sampled query q's trace or null.
  obs::MetricsRegistry metrics_;
  obs::Histogram* stage_hist_[obs::kNumStages];
  obs::Histogram* compaction_pass_seconds_;
  obs::Counter* compaction_codes_reclaimed_;
  obs::Counter* traced_queries_;
  obs::Gauge* gauge_live_vectors_;
  obs::Gauge* gauge_tombstones_;
  obs::Gauge* gauge_epoch_;
  obs::Gauge* gauge_shards_;
  obs::Gauge* gauge_violation_rate_;
  obs::Gauge* gauge_signed_err_mean_;
  obs::Gauge* gauge_tightness_mean_;
  std::unique_ptr<obs::QueryTrace[]> trace_storage_;
  std::size_t trace_capacity_ = 0;
  std::vector<obs::QueryTrace*> batch_traces_;

  EngineStatsCollector stats_;

  // Async serving.
  RequestQueue queue_;
  std::atomic<std::uint64_t> next_ticket_{0};
  std::thread scheduler_;

  // Background compaction.
  std::mutex compactor_mutex_;
  std::condition_variable compactor_cv_;
  bool compactor_kicked_ = false;
  bool compactor_stop_ = false;
  std::thread compactor_;
};

}  // namespace rabitq

#endif  // RABITQ_ENGINE_SEARCH_ENGINE_H_
