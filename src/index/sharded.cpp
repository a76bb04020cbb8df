#include "index/sharded.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <thread>
#include <utility>

#include "cluster/kmeans.h"
#include "linalg/vector_ops.h"
#include "util/failpoint.h"
#include "util/serialize.h"

namespace rabitq {

namespace {

// Readable manifest formats, newest first; Save always writes
// kManifestMagics[0]. Manifest v2 adds the metric (a u32 right after the
// header, validated before the shard blobs are touched); v1 manifests
// predate non-L2 metrics and load as kL2.
constexpr char kManifestMagics[][8] = {
    {'R', 'B', 'Q', 'S', 'H', 'R', 'D', '2'},
    {'R', 'B', 'Q', 'S', 'H', 'R', 'D', '1'}};
constexpr std::uint32_t kManifestVersions[] = {2, 1};
constexpr std::uint32_t kManifestVersionV2 = 2;
static_assert(std::size(kManifestMagics) == std::size(kManifestVersions),
              "every readable manifest magic needs its version");

std::string ManifestPath(const std::string& dir) { return dir + "/MANIFEST"; }

std::string ShardBlobPath(const std::string& dir, std::size_t s) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard_%04zu.rbq", s);
  return dir + "/" + name;
}

/// Runs fn(s) for every shard in [0, n) across up to `hardware` threads.
/// Statuses land in st[s]; the caller surfaces the first error.
void ForEachShardParallel(std::size_t n,
                          const std::function<Status(std::size_t)>& fn,
                          std::vector<Status>* st) {
  st->assign(n, Status::Ok());
  const std::size_t threads = std::min<std::size_t>(
      n, std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t s = t; s < n; s += threads) (*st)[s] = fn(s);
    });
  }
  for (auto& thread : pool) thread.join();
}

Status FirstError(const std::vector<Status>& st) {
  for (const Status& s : st) {
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace

ShardedIndex ShardedIndex::FromSingle(IvfRabitqIndex&& index) {
  ShardedIndex out;
  auto shard = std::make_unique<IvfRabitqIndex>(std::move(index));
  const std::size_t n = shard->size();
  out.shards_.push_back(std::move(shard));
  out.next_id_ = static_cast<std::uint32_t>(n);
  out.id_shard_.assign(n, 0);
  out.id_local_.resize(n);
  out.local_to_global_.resize(1);
  out.local_to_global_[0].resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.id_local_[i] = static_cast<std::uint32_t>(i);
    out.local_to_global_[0][i] = static_cast<std::uint32_t>(i);
  }
  return out;
}

Status ShardedIndex::Build(const Matrix& data, const ShardedConfig& config) {
  const std::size_t S = config.num_shards;
  if (S == 0 || S > kMaxShards) {
    return Status::InvalidArgument("shard count out of range");
  }
  if (data.rows() == 0) return Status::InvalidArgument("empty dataset");
  if (data.rows() < S) {
    return Status::InvalidArgument("fewer vectors than shards");
  }
  RABITQ_RETURN_IF_ERROR(ValidateMetric(config.ivf.metric));
  // Reset to the unbuilt state up front and only commit the new shards on
  // success: a failed (re)build must leave an empty index, never stale id
  // maps pointing into a differently-sized or half-built shard vector.
  shards_.clear();
  next_id_ = 0;
  id_shard_.clear();
  id_local_.clear();
  local_to_global_.clear();

  // Cosine stores unit vectors. Under kShared the shards encode through
  // BuildFromClustering, which expects pre-normalized rows, so normalize
  // BEFORE the partition copies; under kPerShard each shard's own Build
  // normalizes its slice.
  Matrix normalized;
  const Matrix* source = &data;
  if (config.ivf.metric == Metric::kCosine &&
      config.clustering == ShardClustering::kShared) {
    normalized = data;
    for (std::size_t g = 0; g < normalized.rows(); ++g) {
      if (NormalizeInPlace(normalized.Row(g), normalized.cols()) == 0.0f) {
        return Status::InvalidArgument("zero-norm vector under cosine metric");
      }
    }
    source = &normalized;
  }

  // Round-robin partition: global id g -> (shard g % S, local g / S).
  std::vector<Matrix> shard_data(S);
  for (std::size_t s = 0; s < S; ++s) {
    const std::size_t rows = (data.rows() - s + S - 1) / S;
    shard_data[s].Reset(rows, data.cols());
  }
  for (std::size_t g = 0; g < data.rows(); ++g) {
    std::copy_n(source->Row(g), data.cols(), shard_data[g % S].Row(g / S));
  }

  std::vector<std::unique_ptr<IvfRabitqIndex>> shards;
  for (std::size_t s = 0; s < S; ++s) {
    shards.push_back(std::make_unique<IvfRabitqIndex>());
  }

  std::vector<Status> st;
  if (config.clustering == ShardClustering::kShared) {
    // One global clustering; every shard encodes against the same
    // centroids, which is what makes scatter-gather bit-identical to the
    // single-shard index (same codes, same per-list query rounding).
    KMeansConfig kmeans = config.ivf.kmeans;
    kmeans.num_clusters = std::min(config.ivf.num_lists, data.rows());
    KMeansResult clustering;
    RABITQ_RETURN_IF_ERROR(RunKMeans(*source, kmeans, &clustering));
    std::vector<std::vector<std::uint32_t>> shard_assign(S);
    for (std::size_t s = 0; s < S; ++s) {
      shard_assign[s].reserve(shard_data[s].rows());
    }
    for (std::size_t g = 0; g < data.rows(); ++g) {
      shard_assign[g % S].push_back(clustering.assignments[g]);
    }
    const Matrix& centroids = clustering.centroids;
    ForEachShardParallel(
        S,
        [&](std::size_t s) {
          Matrix copy = centroids;
          return shards[s]->BuildFromClustering(
              shard_data[s], std::move(copy), shard_assign[s].data(),
              config.rabitq, config.ivf.metric);
        },
        &st);
  } else {
    // Independent per-shard clustering: S smaller KMeans runs in parallel,
    // the build-time win of partitioned RaBitQ deployments.
    ForEachShardParallel(
        S,
        [&](std::size_t s) {
          return shards[s]->Build(shard_data[s], config.ivf, config.rabitq);
        },
        &st);
  }
  RABITQ_RETURN_IF_ERROR(FirstError(st));

  shards_ = std::move(shards);
  next_id_ = static_cast<std::uint32_t>(data.rows());
  id_shard_.resize(data.rows());
  id_local_.resize(data.rows());
  local_to_global_.assign(S, {});
  for (std::size_t g = 0; g < data.rows(); ++g) {
    id_shard_[g] = static_cast<std::uint32_t>(g % S);
    id_local_[g] = static_cast<std::uint32_t>(g / S);
    local_to_global_[g % S].push_back(static_cast<std::uint32_t>(g));
  }
  return Status::Ok();
}

std::size_t ShardedIndex::size() const {
  std::lock_guard<std::mutex> lock(*id_mutex_);
  return next_id_;
}

std::size_t ShardedIndex::live_size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->live_size();
  return total;
}

std::size_t ShardedIndex::num_tombstones() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->num_tombstones();
  return total;
}

bool ShardedIndex::IsDeleted(std::uint32_t id) const {
  std::uint32_t s = 0, local = 0;
  {
    std::lock_guard<std::mutex> lock(*id_mutex_);
    if (id >= next_id_ || id_local_[id] == kPendingLocal) return true;
    s = id_shard_[id];
    local = id_local_[id];
  }
  return shards_[s]->IsDeleted(local);
}

const float* ShardedIndex::vector(std::uint32_t id) const {
  std::uint32_t s = 0, local = 0;
  {
    std::lock_guard<std::mutex> lock(*id_mutex_);
    s = id_shard_[id];
    local = id_local_[id];
  }
  return shards_[s]->vector(local);
}

bool ShardedIndex::TryShardOf(std::uint32_t id, std::uint32_t* shard) const {
  std::lock_guard<std::mutex> lock(*id_mutex_);
  if (id >= next_id_) return false;
  *shard = id_shard_[id];
  return true;
}

std::uint32_t ShardedIndex::local_of(std::uint32_t id) const {
  std::lock_guard<std::mutex> lock(*id_mutex_);
  return id_local_[id];
}

SearchResponse ShardedIndex::Search(const SearchRequest& request) const {
  SearchResponse response;
  ShardedSearchScratch scratch;
  SearchOptions options = request.options;
  options.ResolveDeadline(std::chrono::steady_clock::now());
  SearchInto(request.query, nullptr, options, options.seed.value_or(0),
             &scratch, &response);
  return response;
}

Status ShardedIndex::SearchWithScratch(const float* query,
                                       const float* rotated_query,
                                       const SearchOptions& params,
                                       std::uint64_t seed,
                                       ShardedSearchScratch* scratch,
                                       std::vector<Neighbor>* out,
                                       IvfSearchStats* stats) const {
  if (out == nullptr || scratch == nullptr) {
    return Status::InvalidArgument("null output/scratch");
  }
  // The response borrows *out, so the merge reuses the caller's capacity.
  SearchResponse response;
  response.neighbors.swap(*out);
  SearchInto(query, rotated_query, params, seed, scratch, &response);
  out->swap(response.neighbors);
  if (stats != nullptr) *stats = response.stats;
  return response.status;
}

void ShardedIndex::SearchInto(const float* query, const float* rotated_query,
                              const SearchOptions& params, std::uint64_t seed,
                              ShardedSearchScratch* scratch,
                              SearchResponse* out) const {
  if (query == nullptr) {
    out->status = Status::InvalidArgument("null query");
    return;
  }
  if (params.k == 0) {
    out->status = Status::InvalidArgument("k must be positive");
    return;
  }
  if (shards_.empty()) {
    out->status = Status::FailedPrecondition("index not built");
    return;
  }
  if (rotated_query == nullptr) {
    // Normalize where we rotate (the IvfRabitqIndex contract): a caller
    // that pre-rotated the query guarantees it was already normalized.
    if (metric() == Metric::kCosine) {
      scratch->norm_query.assign(query, query + dim());
      if (NormalizeInPlace(scratch->norm_query.data(), dim()) == 0.0f) {
        out->status =
            Status::InvalidArgument("zero-norm query under cosine metric");
        return;
      }
      query = scratch->norm_query.data();
    }
    scratch->rotated_query.resize(encoder().total_bits());
    RotateQueryOnce(encoder(), query, scratch->rotated_query.data());
    rotated_query = scratch->rotated_query.data();
  }
  scratch->cells.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    SearchShard(s, query, rotated_query, params, seed,
                &scratch->shard_scratch, &scratch->cells[s]);
  }
  // The per-shard scans above recorded their own spans through
  // shard_scratch.trace (when the caller set one); the gather is the merge
  // stage. The engine's scatter path times its merge chunks the same way.
  obs::ScopedSpan merge_span(scratch->shard_scratch.trace, obs::Stage::kMerge);
  MergeShardResults(query, params, scratch->cells.data(), scratch, out);
}

void ShardedIndex::SearchShard(std::size_t shard, const float* query,
                               const float* rotated_query,
                               const SearchOptions& params, std::uint64_t seed,
                               IvfSearchScratch* scratch,
                               SearchResponse* cell) const {
  RABITQ_FAILPOINT("sharded.search_shard", {
    cell->status = Status::Internal("injected shard failure");
    return;
  });
  SearchOptions shard_params = params;
  if (params.policy == RerankPolicy::kFixedCandidates) {
    // Gather estimates only; the merge selects the globally best
    // max(k, R) of them and re-ranks exactly -- a budget split
    // proportional to per-shard candidate quality.
    shard_params.policy = RerankPolicy::kNone;
    shard_params.k = std::max(params.k, params.rerank_candidates);
  }
  if (params.filter.active()) {
    // Per-shard filter slicing: the caller's filter speaks GLOBAL ids, the
    // shard scan produces LOCAL ids; rebinding through this shard's
    // local->global map keeps the pushdown inside the scan. The map only
    // grows under the shard's exclusive lock, which the caller's shared
    // lock excludes for the duration of this search.
    shard_params.filter =
        params.filter.WithIdMap(local_to_global_[shard].data());
  }
  cell->status = shards_[shard]->SearchWithScratch(
      query, rotated_query, shard_params, seed, scratch, &cell->neighbors,
      &cell->stats);
}

void ShardedIndex::MergeShardResults(const float* query,
                                     const SearchOptions& params,
                                     const SearchResponse* cells,
                                     ShardedSearchScratch* scratch,
                                     SearchResponse* out) const {
  if (params.k == 0) {
    *out = {Status::InvalidArgument("k must be positive"), {}, {}};
    return;
  }
  out->stats = IvfSearchStats{};
  out->shards_ok = 0;
  out->shards_failed = 0;

  // Per-cell degradation tallies. A deadline-exceeded cell still counts as
  // ok (its partial candidates merge below); only hard failures are
  // excluded outright.
  bool any_deadline = false;
  Status first_failure = Status::Ok();
  auto& cands = scratch->cands;
  cands.clear();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const SearchResponse& cell = cells[s];
    const bool deadline = cell.status.code() == StatusCode::kDeadlineExceeded;
    if (!cell.ok() && !deadline) {
      ++out->shards_failed;
      if (first_failure.ok()) first_failure = cell.status;
      continue;
    }
    ++out->shards_ok;
    any_deadline |= deadline;
    out->stats += cell.stats;
    for (const Neighbor& nb : cell.neighbors) {
      cands.push_back({nb.first, local_to_global_[s][nb.second],
                       shards_[s]->vector(nb.second)});
    }
  }
  out->partial = any_deadline || out->shards_failed > 0;
  // (key, global id) order: deterministic under duplicate keys, and -- for
  // build-order ids -- identical to the order a single-shard scan sorts its
  // candidate pool into.
  std::sort(cands.begin(), cands.end(),
            [](const ShardedSearchScratch::MergeCand& a,
               const ShardedSearchScratch::MergeCand& b) {
              return a.key != b.key ? a.key < b.key : a.gid < b.gid;
            });

  if (params.policy == RerankPolicy::kFixedCandidates) {
    // The globally best max(k, R) estimates, re-ranked exactly -- the same
    // candidate set (and, with deterministic ties, the same result) as the
    // single-shard kFixedCandidates path.
    const std::size_t keep =
        std::min(std::max(params.rerank_candidates, params.k), cands.size());
    TopKHeap heap(params.k);
    const std::size_t d = dim();
    for (std::size_t i = 0; i < keep; ++i) {
      heap.Push(MetricDistance(metric(), cands[i].vec, query, d),
                cands[i].gid);
    }
    out->neighbors = heap.ExtractSorted();
    out->stats.candidates_reranked += keep;
  } else {
    // kErrorBound carries exact distances, kNone carries estimates; both
    // merge to the k globally smallest keys.
    const std::size_t keep = std::min(params.k, cands.size());
    out->neighbors.resize(keep);
    for (std::size_t i = 0; i < keep; ++i) {
      out->neighbors[i] = {cands[i].key, cands[i].gid};
    }
  }
  // Degraded-but-useful beats failed: only an all-shards-down fan-out
  // surfaces the shard error itself. A deadline anywhere dominates hard
  // failures -- the caller asked for time bounds and got partial results.
  if (any_deadline) {
    out->status = Status::DeadlineExceeded("query deadline exceeded mid-scan");
  } else if (out->shards_ok == 0) {
    out->status = first_failure;
  } else {
    out->status = Status::Ok();
  }
}

Status ShardedIndex::Add(const float* vec, std::uint32_t* id_out) {
  std::uint32_t id = 0, shard = 0;
  RABITQ_RETURN_IF_ERROR(ReserveId(&id, &shard));
  RABITQ_RETURN_IF_ERROR(CompleteAdd(id, shard, vec));
  if (id_out != nullptr) *id_out = id;
  return Status::Ok();
}

Status ShardedIndex::ReserveId(std::uint32_t* id_out,
                               std::uint32_t* shard_out) {
  if (id_out == nullptr || shard_out == nullptr) {
    return Status::InvalidArgument("null outputs");
  }
  if (shards_.empty()) return Status::FailedPrecondition("index not built");
  std::lock_guard<std::mutex> lock(*id_mutex_);
  const std::uint32_t id = next_id_++;
  id_shard_.push_back(id % static_cast<std::uint32_t>(shards_.size()));
  id_local_.push_back(kPendingLocal);
  *id_out = id;
  *shard_out = id_shard_.back();
  return Status::Ok();
}

Status ShardedIndex::CompleteAdd(std::uint32_t id, std::uint32_t shard,
                                 const float* vec) {
  if (shard >= shards_.size()) return Status::InvalidArgument("bad shard");
  IvfRabitqIndex& target = *shards_[shard];
  const std::size_t before = target.size();
  std::uint32_t local = 0;
  const Status status = target.Add(vec, &local);
  if (target.size() > before) {
    // The shard assigned a local slot (even on a failed append the raw row
    // exists and stays dead); keep the maps in lock-step with it.
    local_to_global_[shard].push_back(id);
    std::lock_guard<std::mutex> lock(*id_mutex_);
    id_local_[id] = static_cast<std::uint32_t>(before);
  }
  return status;
}

Status ShardedIndex::Delete(std::uint32_t id) {
  std::uint32_t s = 0, local = 0;
  {
    std::lock_guard<std::mutex> lock(*id_mutex_);
    if (id >= next_id_ || id_local_[id] == kPendingLocal) {
      return Status::NotFound("id not live");
    }
    s = id_shard_[id];
    local = id_local_[id];
  }
  return shards_[s]->Delete(local);
}

Status ShardedIndex::Update(std::uint32_t id, const float* vec) {
  std::uint32_t s = 0, local = 0;
  {
    std::lock_guard<std::mutex> lock(*id_mutex_);
    if (id >= next_id_ || id_local_[id] == kPendingLocal) {
      return Status::NotFound("id not live");
    }
    s = id_shard_[id];
    local = id_local_[id];
  }
  // IvfRabitqIndex::Update keeps the local id stable, so the maps and the
  // shard assignment (a pure function of the global id) are untouched.
  return shards_[s]->Update(local, vec);
}

Status ShardedIndex::Compact(float min_ratio, std::size_t min_dead) {
  for (auto& shard : shards_) {
    RABITQ_RETURN_IF_ERROR(shard->Compact(min_ratio, min_dead));
  }
  return Status::Ok();
}

Status ShardedIndex::Save(const std::string& path) const {
  if (shards_.empty()) return Status::FailedPrecondition("index not built");
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    return Status::IoError("cannot create snapshot directory " + path);
  }
  // Phase 1: write the manifest and every shard blob under temporary
  // names. A crash or write fault anywhere in this phase leaves a previous
  // snapshot in `path` fully intact.
  const std::string manifest_tmp = ManifestPath(path) + ".tmp";
  Status status = [&]() -> Status {
    std::unique_ptr<BinaryWriter> writer;
    RABITQ_RETURN_IF_ERROR(BinaryWriter::Open(manifest_tmp, &writer));
    RABITQ_RETURN_IF_ERROR(
        WriteHeader(writer.get(), kManifestMagics[0], kManifestVersions[0]));
    RABITQ_RETURN_IF_ERROR(writer->WriteU32(static_cast<std::uint32_t>(metric())));
    RABITQ_RETURN_IF_ERROR(writer->WriteU64(shards_.size()));
    RABITQ_RETURN_IF_ERROR(writer->WriteU64(dim()));
    RABITQ_RETURN_IF_ERROR(writer->WriteU64(next_id_));
    for (const auto& map : local_to_global_) {
      RABITQ_RETURN_IF_ERROR(writer->WriteArray(map.data(), map.size()));
    }
    return writer->Close();
  }();
  if (status.ok()) {
    std::vector<Status> st;
    ForEachShardParallel(
        shards_.size(),
        [&](std::size_t s) {
          // IvfRabitqIndex::Save is itself write-then-rename, so each .new
          // blob only appears once fully written and checksummed.
          return shards_[s]->Save(ShardBlobPath(path, s) + ".new");
        },
        &st);
    status = FirstError(st);
  }
  // Phase 2: publish -- blobs first, manifest last. Renaming the manifest
  // is the commit point; until then a reader's Load sees the old snapshot.
  for (std::size_t s = 0; s < shards_.size() && status.ok(); ++s) {
    const std::string blob = ShardBlobPath(path, s);
    const std::string tmp = blob + ".new";
    if (std::rename(tmp.c_str(), blob.c_str()) != 0) {
      status = Status::IoError("cannot rename '" + tmp + "' to '" + blob + "'");
    }
  }
  if (status.ok() &&
      std::rename(manifest_tmp.c_str(), ManifestPath(path).c_str()) != 0) {
    status = Status::IoError("cannot publish manifest for " + path);
  }
  if (!status.ok()) {
    std::remove(manifest_tmp.c_str());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      std::remove((ShardBlobPath(path, s) + ".new").c_str());
    }
  }
  return status;
}

Status ShardedIndex::Load(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::is_directory(path, ec)) {
    // Single-file v1/v2 snapshot -> 1-shard configuration.
    IvfRabitqIndex single;
    RABITQ_RETURN_IF_ERROR(single.Load(path));
    *this = FromSingle(std::move(single));
    return Status::Ok();
  }

  std::uint64_t num_shards = 0, dim = 0, next_id = 0;
  Metric manifest_metric = Metric::kL2;
  std::vector<std::vector<std::uint32_t>> maps;
  {
    std::unique_ptr<BinaryReader> reader;
    RABITQ_RETURN_IF_ERROR(BinaryReader::Open(ManifestPath(path), &reader));
    std::size_t format = 0;
    RABITQ_RETURN_IF_ERROR(ExpectHeaderOneOf(reader.get(), kManifestMagics,
                                             kManifestVersions,
                                             std::size(kManifestMagics),
                                             &format));
    if (kManifestVersions[format] >= kManifestVersionV2) {
      // Validated before anything else is read -- a corrupt metric fails
      // closed without touching the (much larger) shard blobs.
      std::uint32_t metric_raw = 0;
      RABITQ_RETURN_IF_ERROR(reader->ReadU32(&metric_raw));
      if (metric_raw > kMaxMetricValue) {
        return Status::IoError("corrupt manifest metric");
      }
      manifest_metric = static_cast<Metric>(metric_raw);
    }
    RABITQ_RETURN_IF_ERROR(ValidateMetric(manifest_metric));
    RABITQ_RETURN_IF_ERROR(reader->ReadU64(&num_shards));
    if (num_shards == 0 || num_shards > kMaxShards) {
      return Status::IoError("corrupt shard count");
    }
    RABITQ_RETURN_IF_ERROR(reader->ReadU64(&dim));
    if (dim == 0 || dim > (1u << 20)) return Status::IoError("corrupt dim");
    RABITQ_RETURN_IF_ERROR(reader->ReadU64(&next_id));
    if (next_id > 0xFFFFFFFFull) return Status::IoError("corrupt id count");
    maps.resize(num_shards);
    for (std::uint64_t s = 0; s < num_shards; ++s) {
      RABITQ_RETURN_IF_ERROR(
          (reader->ReadArray<std::uint32_t>(&maps[s], next_id)));
    }
  }

  std::vector<std::unique_ptr<IvfRabitqIndex>> shards(num_shards);
  std::vector<Status> st;
  ForEachShardParallel(
      num_shards,
      [&](std::size_t s) {
        shards[s] = std::make_unique<IvfRabitqIndex>();
        return shards[s]->Load(ShardBlobPath(path, s));
      },
      &st);
  RABITQ_RETURN_IF_ERROR(FirstError(st));
  for (std::uint64_t s = 0; s < num_shards; ++s) {
    if (shards[s]->dim() != dim) {
      return Status::IoError("shard dim mismatch with manifest");
    }
    if (shards[s]->metric() != manifest_metric) {
      return Status::IoError("shard metric mismatch with manifest");
    }
    if (shards[s]->size() != maps[s].size()) {
      return Status::IoError("shard size mismatch with manifest id map");
    }
    if (shards[s]->encoder().total_bits() != shards[0]->encoder().total_bits()) {
      return Status::IoError("shard code width mismatch");
    }
    if (shards[s]->encoder().config().bits_per_dim !=
        shards[0]->encoder().config().bits_per_dim) {
      return Status::IoError("shard bits_per_dim mismatch");
    }
  }
  // The id maps must cover the id space exactly; checked by size here so a
  // corrupt next_id fails closed BEFORE RebuildIdMaps sizes its tables to
  // it, and by bijection below.
  std::uint64_t mapped = 0;
  for (const auto& map : maps) mapped += map.size();
  if (mapped != next_id) {
    return Status::IoError("id maps do not cover the id space");
  }

  shards_ = std::move(shards);
  next_id_ = static_cast<std::uint32_t>(next_id);
  local_to_global_ = std::move(maps);
  return RebuildIdMaps();
}

Status ShardedIndex::RebuildIdMaps() {
  id_shard_.assign(next_id_, 0);
  id_local_.assign(next_id_, kPendingLocal);
  std::vector<std::uint8_t> seen(next_id_, 0);
  for (std::size_t s = 0; s < local_to_global_.size(); ++s) {
    for (std::size_t l = 0; l < local_to_global_[s].size(); ++l) {
      const std::uint32_t gid = local_to_global_[s][l];
      if (gid >= next_id_) return Status::IoError("id map entry out of range");
      if (seen[gid]) return Status::IoError("global id mapped twice");
      seen[gid] = 1;
      id_shard_[gid] = static_cast<std::uint32_t>(s);
      id_local_[gid] = static_cast<std::uint32_t>(l);
    }
  }
  for (std::uint32_t gid = 0; gid < next_id_; ++gid) {
    if (!seen[gid]) return Status::IoError("global id unmapped");
  }
  return Status::Ok();
}

}  // namespace rabitq
