// Sharded IVF+RaBitQ: hash-partitions ids round-robin across S independent
// IvfRabitqIndex shards, the scaling move of the GPU-native and Ascend
// RaBitQ follow-ups -- the paper's per-list estimator and error bound are
// untouched, each shard is just a smaller instance of the same index.
//
// What sharding buys:
//   * parallel build: shards encode (and, under kPerShard clustering, also
//     cluster) concurrently;
//   * parallel mutation: each shard has its own writer serialization point
//     (SearchEngine keeps one writer mutex PER SHARD instead of one for the
//     whole engine), so concurrent inserts/deletes/updates that hash to
//     different shards no longer contend;
//   * scatter-gather search: a query fans out to every shard and the
//     per-shard top-k candidate heaps are merged into one global result.
//
// Determinism contract: under kShared clustering (one global KMeans, every
// shard quantizes against the same centroid set) the scatter-gather result
// is BIT-IDENTICAL to a single-shard index over the same data and seed:
//   * per-list query rounding is seeded by MixSeed(query seed, list id), so
//     a list's quantized query does not depend on which shard holds it;
//   * per-code estimates are position-independent (exact integer LUTs), so
//     a code's estimate does not depend on which codes share its block;
//   * merges resolve ties by (key, global id), as does TopKHeap, so results
//     are a pure function of the candidate SET, not of scan order.
// For kFixedCandidates and kNone the identity is unconditional. For
// kErrorBound it additionally requires that no candidate's eps0 lower bound
// is violated AT the k-th-distance boundary: each shard prunes against its
// own (weaker) running threshold, and a bound violation there can admit a
// candidate the single-shard scan pruned. Violations are the designed-in
// rare event of the paper's bound (rate measured by
// error_bound_property_test); with a fixed seed the outcome is
// deterministic either way, which is what the parity tests pin.
// Under kFixedCandidates the re-rank budget R is split across shards by
// candidate quality: every shard submits its best estimates and the merge
// re-ranks the globally best R -- exactly the candidates the single-shard
// scan would have re-ranked.
//
// Id scheme: global ids are dense in [0, size()); id g lives on shard
// g % num_shards. Local ids are per-shard dense; the maps between the two
// are explicit (concurrent inserts may complete out of order within a
// shard), guarded by id_mutex_. Shard CONTENT thread-safety is inherited
// from IvfRabitqIndex: const methods are pure reads, mutators need
// exclusive access to their shard -- SearchEngine supplies per-shard
// shared/exclusive locking for serving workloads.

#ifndef RABITQ_INDEX_SHARDED_H_
#define RABITQ_INDEX_SHARDED_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "index/ivf.h"

namespace rabitq {

enum class ShardClustering {
  /// One global KMeans; every shard quantizes against the same centroid
  /// set. Scatter-gather results are bit-identical to a single-shard index.
  kShared,
  /// Each shard trains its own KMeans over its id slice: fully independent
  /// shards and a parallel (multi-KMeans) build, at the cost of exact
  /// single-shard result parity (recall parity still holds -- re-ranking is
  /// exact either way).
  kPerShard,
};

struct ShardedConfig {
  std::size_t num_shards = 1;
  ShardClustering clustering = ShardClustering::kShared;
  IvfConfig ivf;  // per-shard list count and kmeans knobs
  RabitqConfig rabitq;
};

/// Reusable workspace for ShardedIndex::SearchWithScratch and
/// MergeShardResults. Never share one scratch between concurrent callers.
struct ShardedSearchScratch {
  /// One merge candidate: sort key (exact distance or estimate), global id,
  /// and a stable pointer to the raw vector for exact re-ranking.
  struct MergeCand {
    float key;
    std::uint32_t gid;
    const float* vec;
  };

  IvfSearchScratch shard_scratch;
  std::vector<SearchResponse> cells;  // one per shard, from SearchShard
  std::vector<float> rotated_query;
  std::vector<float> norm_query;  // cosine: unit-normalized query copy
  std::vector<MergeCand> cands;
};

class ShardedIndex {
 public:
  static constexpr std::size_t kMaxShards = 1024;

  ShardedIndex() = default;
  ShardedIndex(ShardedIndex&&) = default;
  ShardedIndex& operator=(ShardedIndex&&) = default;

  /// Wraps an already-built single index as a 1-shard configuration
  /// (global ids == local ids). SearchEngine uses this to keep serving
  /// plain IvfRabitqIndex instances through the sharded machinery.
  static ShardedIndex FromSingle(IvfRabitqIndex&& index);

  /// Builds the sharded index: partitions ids round-robin, clusters per
  /// `config.clustering`, and builds every shard in parallel. Requires
  /// 1 <= num_shards <= min(kMaxShards, data.rows()).
  Status Build(const Matrix& data, const ShardedConfig& config);

  std::size_t num_shards() const { return shards_.size(); }
  const IvfRabitqIndex& shard(std::size_t s) const { return *shards_[s]; }
  /// Mutable shard access for callers that provide their own exclusion
  /// (SearchEngine's per-shard compaction path).
  IvfRabitqIndex* mutable_shard(std::size_t s) { return shards_[s].get(); }

  /// Total global ids ever assigned (including deleted/pending ones).
  std::size_t size() const;
  /// Live vectors summed over shards.
  std::size_t live_size() const;
  /// Tombstoned entries summed over shards.
  std::size_t num_tombstones() const;

  std::size_t dim() const { return shards_.empty() ? 0 : shards_[0]->dim(); }
  /// Per-shard list count (all shards are configured identically).
  std::size_t num_lists() const {
    return shards_.empty() ? 0 : shards_[0]->num_lists();
  }
  const RabitqEncoder& encoder() const { return shards_[0]->encoder(); }
  /// Distance metric (all shards are configured identically; enforced on
  /// Load against the manifest).
  Metric metric() const {
    return shards_.empty() ? Metric::kL2 : shards_[0]->metric();
  }

  /// True iff `id` has no live entry (never assigned, pending, or deleted).
  bool IsDeleted(std::uint32_t id) const;
  /// Raw vector of a live global id.
  const float* vector(std::uint32_t id) const;
  /// Shard that owns `id` (stable for the id's lifetime). False if the id
  /// was never assigned.
  bool TryShardOf(std::uint32_t id, std::uint32_t* shard) const;
  /// Shard-local id of a global id (stale for deleted ids, like list_of).
  std::uint32_t local_of(std::uint32_t id) const;

  /// Unified request API: scatter-gather k-NN over all shards; GLOBAL ids
  /// in the response. request.options.filter (global ids) is sliced per
  /// shard -- each shard scan consults it through its local->global id map
  /// (IdFilter::WithIdMap), so filtering happens inside the per-shard scan,
  /// never as a merge-time pass. The result is a pure function of (index,
  /// request); options.seed unset means seed 0.
  SearchResponse Search(const SearchRequest& request) const;

  /// Search core with caller-owned workspace (see IvfRabitqIndex contract):
  /// the scatter+merge of Search, handing back the response's neighbors,
  /// stats (optional) and status. Shard failures degrade the answer as
  /// MergeShardResults describes.
  Status SearchWithScratch(const float* query, const float* rotated_query,
                           const SearchOptions& params, std::uint64_t seed,
                           ShardedSearchScratch* scratch,
                           std::vector<Neighbor>* out,
                           IvfSearchStats* stats = nullptr) const;

  /// Scatter half: searches ONE shard into `*cell` -- its status, its
  /// shard-LOCAL candidates and its stats (a hard-failed cell may keep a
  /// previous query's neighbors and stats; the merge skips them).
  /// kErrorBound runs unchanged (exact per-shard top-k); kFixedCandidates
  /// is mapped to an estimate gather (policy kNone, k = max(k, R)) so the
  /// merge can split the re-rank budget globally; kNone runs unchanged.
  /// An active params.filter (global ids) is rebound to this shard's
  /// local->global map before the scan, so the pushdown happens per shard.
  /// SearchEngine fans these out as (query x shard) cells. Each cell
  /// inherits the per-shard fast path of IvfRabitqIndex::SearchWithScratch
  /// (nprobe-aware partial probe ordering, the fused estimate+prune
  /// kernel), so the scatter cost scales with nprobe, not num_lists.
  void SearchShard(std::size_t shard, const float* query,
                   const float* rotated_query, const SearchOptions& params,
                   std::uint64_t seed, IvfSearchScratch* scratch,
                   SearchResponse* cell) const;

  /// Gather half: merges one query's num_shards() consecutive cells (from
  /// SearchShard) into the global top-k and fills all of `*out`. For
  /// kFixedCandidates this selects the globally best max(k, R) estimates
  /// and re-ranks them exactly. Shard failures are ISOLATED: a hard-failed
  /// cell is excluded (neighbors and stats), a kDeadlineExceeded cell's
  /// partial candidates are merged. `out->stats` sums the merged cells'
  /// stats plus the merge's re-ranks; `shards_ok` counts merged cells,
  /// `shards_failed` excluded ones, and `partial` is set when either a
  /// deadline tripped or a cell was excluded. `out->status` is Ok while at
  /// least one cell merged and no deadline tripped, kDeadlineExceeded when
  /// any cell ran out of time (its results are still merged), and the
  /// first cell error only when EVERY cell failed hard; k == 0 is
  /// kInvalidArgument.
  void MergeShardResults(const float* query, const SearchOptions& params,
                         const SearchResponse* cells,
                         ShardedSearchScratch* scratch,
                         SearchResponse* out) const;

  /// Appends one vector: ReserveId + CompleteAdd (single-writer callers).
  Status Add(const float* vec, std::uint32_t* id_out = nullptr);

  /// Two-phase add for concurrent writers (SearchEngine): ReserveId hands
  /// out the next global id and its shard without touching shard content
  /// (safe under any shard locks); the caller then takes that shard's
  /// exclusive lock and calls CompleteAdd. A reserved id whose CompleteAdd
  /// never runs (or fails) stays permanently dead -- never a dangling map.
  Status ReserveId(std::uint32_t* id_out, std::uint32_t* shard_out);
  Status CompleteAdd(std::uint32_t id, std::uint32_t shard, const float* vec);

  /// Tombstones a global id (O(1), within its shard).
  Status Delete(std::uint32_t id);

  /// Replaces the vector of a live id in place. The id keeps its shard
  /// (hash partitioning is by id) and its global identity.
  Status Update(std::uint32_t id, const float* vec);

  /// Plan+commit compaction across every shard (exclusive access required).
  Status Compact(float min_ratio = 0.0f, std::size_t min_dead = 1);

  /// Writes a sharded snapshot: `path` becomes a directory holding a
  /// MANIFEST ("RBQSHRD2": metric, shard count, id space, per-shard id
  /// maps) plus one v5 ("RBQIVF05", CRC-32-footed) blob per shard, written
  /// in parallel. Crash-safe in two phases: every blob and the manifest are
  /// fully written to temporary names first, then renamed into place with
  /// the manifest last -- a crash or write fault during the first phase
  /// leaves the previous snapshot untouched.
  Status Save(const std::string& path) const;

  /// Restores a snapshot written by Save (shard blobs load in parallel).
  /// Legacy "RBQSHRD1" manifests (which predate non-L2 metrics) load as
  /// kL2; every shard blob's metric must match the manifest's. A `path`
  /// that is a regular FILE is read as a single-file snapshot and loaded
  /// into a 1-shard configuration, so pre-sharding snapshots keep working
  /// unchanged.
  Status Load(const std::string& path);

 private:
  static constexpr std::uint32_t kPendingLocal = 0xFFFFFFFFu;

  /// The scatter+merge behind Search and SearchWithScratch: validates and
  /// (unless `rotated_query` is given) normalizes and rotates the query,
  /// runs one SearchShard per shard into scratch->cells, then merges them
  /// into `*out`.
  void SearchInto(const float* query, const float* rotated_query,
                  const SearchOptions& params, std::uint64_t seed,
                  ShardedSearchScratch* scratch, SearchResponse* out) const;

  /// Rebuilds id_shard_/id_local_ from local_to_global_; fails closed if
  /// the maps are not a bijection onto [0, next_id_).
  Status RebuildIdMaps();

  std::vector<std::unique_ptr<IvfRabitqIndex>> shards_;

  // Global<->local id maps. Guarded by id_mutex_ (a pointer so the class
  // stays movable); local_to_global_[s] is instead guarded by shard s's
  // exclusivity (appended only by CompleteAdd, read by merges that already
  // hold the shard at least shared).
  std::unique_ptr<std::mutex> id_mutex_ = std::make_unique<std::mutex>();
  std::uint32_t next_id_ = 0;
  std::vector<std::uint32_t> id_shard_;
  std::vector<std::uint32_t> id_local_;
  std::vector<std::vector<std::uint32_t>> local_to_global_;
};

}  // namespace rabitq

#endif  // RABITQ_INDEX_SHARDED_H_
