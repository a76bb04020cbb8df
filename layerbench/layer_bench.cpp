// Layer-ladder benchmark: one named workload per run, from the wire down to
// the kernel. Every input (data, queries, arrival schedules, the writer's op
// stream, per-query seeds) is generated from --seed; the library sees only
// the generated inputs.
//
//   layer_bench --workload NAME --seed N --seconds T --trace 0|1
//               [--spans-out FILE] [--work-dir DIR]
//
// --trace 0 sets up the workload several times (median set-up time), warms
// it up for 2 s, drives it for T seconds with engine tracing off, checks the
// answers and prints the end-to-end metrics.
// --trace 1 drives the same workload with every query traced and each
// caller-side request joined to its engine stages, then replays the 256
// queries down the ladder -- core kernels, IvfRabitqIndex, ShardedIndex at
// S=1 and S=4, SearchEngine sync / batch / async, one wire client -- and
// prints the per-layer metrics. The gap between adjacent rungs is that
// layer's cost.
//
// The last stdout line is the result object {correct, attempted, failed,
// metrics}; the line before it holds sample counts and check details. The
// exit code is non-zero when a correctness check fails.

#include <malloc.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bench_util.h"
#include "core/estimator.h"
#include "core/query.h"
#include "engine/search_engine.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "index/ivf.h"
#include "index/sharded.h"
#include "obs/trace.h"
#include "quant/fastscan.h"
#include "server/client.h"
#include "server/server.h"

namespace layerbench {
namespace {

using namespace rabitq;  // NOLINT: a single-purpose benchmark TU

constexpr std::size_t kDim = 96;
constexpr std::size_t kClusters = 64;
constexpr std::size_t kNumQueries = 256;
constexpr std::size_t kK = 10;
constexpr std::size_t kNumLists = 256;
constexpr std::size_t kBatch = 32;
constexpr std::size_t kEngineThreads = 2;
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kLadderReplays = 4;
constexpr std::size_t kWriteOps = 2400;  // ladder write rung
// Caller latency percentiles are medians over this many equal-count slices
// of the window (see SlicedQuantile). The tail is p95, not p99: on a shared
// host, p99 swung 10x between seeds on wire_busy even as a slice median,
// while p95 held within ~10%; each slice's p95 has >= 40 samples beyond it.
constexpr std::size_t kSlices = 5;
constexpr double kWarmupS = 2.0;
constexpr const char* kCollection = "bench";

// Seed streams: MixSeed(--seed, stream) feeds each generated input.
enum Stream : std::uint64_t {
  kDataStream = 1,
  kQueryStream = 2,
  kReadStream = 3,
  kWriteStream = 4,
  kTargetStream = 5,
};

enum class Front { kWire, kSyncBatch, kAsync };

/// One named workload. `read_qps` 0 means a closed loop.
struct Workload {
  const char* name;
  Front front;
  std::size_t n;            // initial vectors
  std::size_t nprobe;
  std::size_t shards;
  std::size_t train_cap;    // KMeans training subsample; 0 = every vector
  std::size_t connections;  // wire workloads
  double read_qps;
  double write_ops;         // open-loop writer rate; 0 = no writer
  double recall_floor;
};

// inproc_large trains KMeans on a 32k subsample: a full-data KMeans over
// 400k vectors costs ~8 s per set-up on 4 cores for the same recall, which
// the repeated set-up timing cannot afford.
constexpr Workload kWorkloads[] = {
    {"wire_sparse", Front::kWire, 20000, 32, 1, 0, 2, 400.0, 0.0, 0.99},
    {"wire_busy", Front::kWire, 20000, 32, 1, 0, 4, 2000.0, 0.0, 0.99},
    {"inproc_large", Front::kSyncBatch, 400000, 16, 1, 32768, 0, 0.0, 0.0, 0.985},
    {"churn", Front::kAsync, 20000, 32, 4, 0, 0, 1000.0, 2000.0, 0.99},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string spans_out;
  std::string work_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

/// Hard failure of set-up plumbing: no result line, non-zero exit.
void Must(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "[layerbench] %s failed: %s\n", what,
                 status.ToString().c_str());
    std::exit(2);
  }
}

/// Lets open-loop threads wake within microseconds of a due time instead of
/// the default 50 us timer slack.
void TightTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

bool SameNeighbors(const std::vector<Neighbor>& a,
                   const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].second != b[i].second ||
        std::bit_cast<std::uint32_t>(a[i].first) !=
            std::bit_cast<std::uint32_t>(b[i].first)) {
      return false;
    }
  }
  return true;
}

using StageVec = std::array<std::uint64_t, obs::kNumStages>;

/// Engine stage vectors handed over by EngineConfig::trace_sink, keyed by
/// query seed. A caller takes its request's vector after the reply arrives
/// (the engine runs the sink before it fulfils the request). Requests for
/// the same query in flight at once share a seed; they are served FIFO.
class StageStore {
 public:
  void Put(std::uint64_t seed, const obs::QueryTrace& trace) {
    StageVec v;
    for (int s = 0; s < obs::kNumStages; ++s) {
      v[s] = trace.Nanos(static_cast<obs::Stage>(s));
    }
    std::lock_guard<std::mutex> lock(mutex_);
    by_seed_[seed].push_back(v);
  }
  bool Take(std::uint64_t seed, StageVec* out) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = by_seed_.find(seed);
    if (it == by_seed_.end() || it->second.empty()) return false;
    *out = it->second.front();
    it->second.pop_front();
    return true;
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    by_seed_.clear();
  }

 private:
  std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::deque<StageVec>> by_seed_;
};

double StageSumUs(const StageVec& v) {
  std::uint64_t ns = 0;
  for (const std::uint64_t x : v) ns += x;
  return static_cast<double>(ns) * 1e-3;
}

/// Caller latency joined with engine stages over a set of traced requests.
struct JoinStats {
  double caller_us = 0.0;
  double stage_us[obs::kNumStages] = {};
  std::size_t joined = 0;
  std::size_t unjoined = 0;
  std::size_t negative = 0;  // stages summed past the caller's latency

  void Add(double caller, const StageVec& v) {
    caller_us += caller;
    for (int s = 0; s < obs::kNumStages; ++s) {
      stage_us[s] += static_cast<double>(v[s]) * 1e-3;
    }
    if (StageSumUs(v) > caller) ++negative;
    ++joined;
  }
  void Merge(const JoinStats& o) {
    caller_us += o.caller_us;
    for (int s = 0; s < obs::kNumStages; ++s) stage_us[s] += o.stage_us[s];
    joined += o.joined;
    unjoined += o.unjoined;
    negative += o.negative;
  }
  double MeanStageUs(obs::Stage s) const {
    return joined ? stage_us[static_cast<int>(s)] / joined : 0.0;
  }
  double MeanUnattributedUs() const {
    double stages = 0.0;
    for (const double x : stage_us) stages += x;
    return joined ? (caller_us - stages) / joined : 0.0;
  }
};

enum class OpType { kInsert, kUpdate, kDelete };
constexpr OpType kOpPattern[] = {OpType::kInsert, OpType::kUpdate,
                                 OpType::kInsert, OpType::kUpdate,
                                 OpType::kDelete};  // 2:2:1

/// The writer's model of the live set: which ids exist and which vector
/// each holds. Only the writer mutates the index, so the model is exact and
/// the op stream is a pure function of the seed.
class WriteModel {
 public:
  struct Op {
    OpType type;
    std::uint32_t id;
    const float* vec;
    std::size_t live_pos;
  };

  WriteModel(const Matrix& data, const Matrix& writes, std::uint64_t seed)
      : writes_(writes), rng_(seed) {
    current_.reserve(data.rows() + writes.rows());
    live_.reserve(data.rows() + writes.rows());
    for (std::size_t i = 0; i < data.rows(); ++i) {
      current_.push_back(data.Row(i));
      live_.push_back(static_cast<std::uint32_t>(i));
    }
  }

  Op Next() {
    Op op{kOpPattern[count_++ % 5], 0, nullptr, 0};
    if (op.type != OpType::kDelete) {
      op.vec = writes_.Row(next_row_++ % writes_.rows());
    }
    if (op.type == OpType::kInsert) {
      op.id = static_cast<std::uint32_t>(current_.size());
    } else {
      op.live_pos = rng_.UniformInt(live_.size());
      op.id = live_[op.live_pos];
    }
    return op;
  }

  void Commit(const Op& op) {
    switch (op.type) {
      case OpType::kInsert:
        current_.push_back(op.vec);
        live_.push_back(op.id);
        break;
      case OpType::kUpdate:
        current_[op.id] = op.vec;
        break;
      case OpType::kDelete:
        current_[op.id] = nullptr;
        live_[op.live_pos] = live_.back();
        live_.pop_back();
        break;
    }
  }

  /// Live vectors as a matrix plus the id of each row.
  void LiveSet(Matrix* vectors, std::vector<std::uint32_t>* ids) const {
    ids->clear();
    for (std::uint32_t id = 0; id < current_.size(); ++id) {
      if (current_[id] != nullptr) ids->push_back(id);
    }
    vectors->Reset(ids->size(), kDim);
    for (std::size_t r = 0; r < ids->size(); ++r) {
      std::copy_n(current_[(*ids)[r]], kDim, vectors->Row(r));
    }
  }

 private:
  const Matrix& writes_;
  Rng rng_;
  std::size_t count_ = 0;
  std::size_t next_row_ = 0;
  std::vector<const float*> current_;  // null = deleted
  std::vector<std::uint32_t> live_;
};

/// Number of inserts plus updates among the first `ops` pattern ops.
std::size_t VectorsForOps(std::size_t ops) {
  return ops / 5 * 4 + std::min<std::size_t>(ops % 5, 4);
}

Clock::duration ToDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// One run's generated inputs and its outputs.
struct Run {
  Run(const Workload& workload, const Args& a)
      : w(workload), args(a), spans(Clock::now()) {
    if (w.write_ops > 0.0) {
      write_schedule = PoissonSchedule(w.write_ops, kWarmupS + args.seconds,
                                       MixSeed(args.seed, kWriteStream));
    }
    const std::size_t num_writes =
        std::max(VectorsForOps(write_schedule.size()),
                 VectorsForOps(kWriteOps));
    // One generator call, so written vectors share the data's clusters.
    Matrix all = Clustered(w.n + num_writes, kDim, kClusters,
                           MixSeed(args.seed, kDataStream));
    data = RowSlice(all, 0, w.n);
    writes = RowSlice(all, w.n, num_writes);
    queries = Clustered(kNumQueries, kDim, kClusters,
                        MixSeed(args.seed, kQueryStream));
    Must(ComputeGroundTruth(data, queries, kK, &gt), "ground truth");
  }

  SearchOptions Options(std::size_t qi) const {
    SearchOptions o;
    o.k = kK;
    o.nprobe = w.nprobe;
    o.seed = SearchEngine::QuerySeed(args.seed, qi);
    return o;
  }

  /// Engine template: tracing and the stage sink only in traced runs.
  EngineConfig EngineCfg() {
    EngineConfig c;
    c.num_threads = kEngineThreads;
    c.trace_sample_period = args.trace ? 1 : 0;
    if (args.trace) {
      StageStore* store = &stages;
      c.trace_sink = [store](std::uint64_t seed, const obs::QueryTrace& t) {
        store->Put(seed, t);
      };
    }
    return c;
  }

  IvfConfig Ivf() const {
    IvfConfig ivf;
    ivf.num_lists = kNumLists;
    ivf.kmeans.max_training_points = w.train_cap;
    return ivf;
  }

  ShardedConfig Sharded(std::size_t shards) const {
    ShardedConfig c;
    c.num_shards = shards;
    c.clustering = ShardClustering::kShared;
    c.ivf = Ivf();
    return c;
  }

  double Recall(const std::vector<std::vector<Neighbor>>& answers) const {
    double sum = 0.0;
    for (std::size_t q = 0; q < answers.size(); ++q) {
      sum += RecallAtK(gt, q, answers[q], kK);
    }
    return answers.empty() ? 0.0 : sum / static_cast<double>(answers.size());
  }

  /// The 256 reference answers of `index` at this run's query seeds.
  std::vector<std::vector<Neighbor>> Answers(const ShardedIndex& index) const {
    std::vector<std::vector<Neighbor>> out(kNumQueries);
    for (std::size_t qi = 0; qi < kNumQueries; ++qi) {
      SearchResponse r = index.Search({queries.Row(qi), Options(qi)});
      Must(r.status, "reference search");
      out[qi] = std::move(r.neighbors);
    }
    return out;
  }

  const Workload& w;
  Args args;
  Matrix data;
  Matrix writes;
  Matrix queries;
  GroundTruth gt;
  std::vector<double> write_schedule;
  Report report;
  SpanLog spans;
  StageStore stages;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t frame_errors = 0;
  std::uint64_t request_errors = 0;
};

/// Load timeline: warm-up from `start`, measurement over [warm_end, end).
struct Window {
  explicit Window(double seconds)
      : start(Clock::now() + std::chrono::milliseconds(50)),
        warm_end(start + ToDuration(kWarmupS)),
        end(warm_end + ToDuration(seconds)) {}
  bool Contains(Clock::time_point t) const { return t >= warm_end && t < end; }
  Clock::time_point start;
  Clock::time_point warm_end;
  Clock::time_point end;
};

/// One call into the workload's front door.
struct Call {
  Clock::time_point due;   // open loop: scheduled; closed loop: ready
  Clock::time_point sent;
  Clock::time_point done;
  bool issued = false;
  bool ok = false;
};

/// What a load phase measured over its window.
struct LoadResult {
  std::vector<double> latency_us;  // successful calls, from due time
  std::vector<double> late_us;     // how long after due each call went out
  std::size_t window_queries = 0;
  double window_s = 0.0;
  std::size_t issued = 0;
  std::size_t backlog_end = 0;  // due before the window end, not yet sent
  std::size_t mismatched = 0;   // answers differing from the reference
  JoinStats join;
};

/// Folds per-call records into `run`'s counters and the window's samples.
/// `queries_per_call` scales closed-loop batch calls.
void Aggregate(const Window& win, const std::vector<Call>& calls,
               std::size_t queries_per_call, Run* run, LoadResult* out) {
  Clock::time_point last_done = win.warm_end;
  for (const Call& c : calls) {
    ++run->attempted;
    if (!c.ok) ++run->failed;
    if (c.issued) ++out->issued;
    if (c.due < win.end && (!c.issued || c.sent >= win.end)) {
      ++out->backlog_end;
    }
    if (!c.issued || !win.Contains(c.due)) continue;
    out->late_us.push_back(MicrosBetween(c.due, c.sent));
    if (!c.ok) continue;
    out->latency_us.push_back(MicrosBetween(queries_per_call > 1 ? c.sent
                                                                 : c.due,
                                            c.done));
    out->window_queries += queries_per_call;
    last_done = std::max(last_done, c.done);
  }
  // Open loops measure the fixed window; a closed loop ends with its last
  // call, which may run past the window end.
  out->window_s = queries_per_call > 1
                      ? std::chrono::duration<double>(last_done - win.warm_end)
                            .count()
                      : std::chrono::duration<double>(win.end - win.warm_end)
                            .count();
}

/// Logs one call's span and, when known, its engine stages as children.
void LogSpan(Run* run, const char* name, std::uint64_t seed,
             Clock::time_point start, Clock::time_point end,
             const StageVec* stages) {
  const std::int64_t parent = run->spans.Add(name, seed, -1, start, end);
  if (parent < 0 || stages == nullptr) return;
  for (int s = 0; s < obs::kNumStages; ++s) {
    if ((*stages)[s] > 0) {
      run->spans.AddDuration(obs::StageName(static_cast<obs::Stage>(s)), seed,
                             parent, (*stages)[s]);
    }
  }
}

/// Traced runs: joins one finished request with its engine stages and logs
/// its spans. Every request takes its stages so the store stays small;
/// only requests inside the window are counted.
void JoinTraced(Run* run, const Window& win, const char* name,
                std::uint64_t seed, Clock::time_point sent,
                Clock::time_point done, JoinStats* join) {
  StageVec v;
  const bool found = run->stages.Take(seed, &v);
  if (!win.Contains(sent)) return;
  if (!found) {
    ++join->unjoined;
    return;
  }
  join->Add(MicrosBetween(sent, done), v);
  LogSpan(run, name, seed, sent, done, &v);
}

/// Open loop over `connections` blocking clients: requests are released on
/// a Poisson schedule and taken in order by whichever connection is free,
/// so a busy server delays later requests and the delay is measured.
LoadResult DriveWire(Run* run, std::uint16_t port,
                     const std::vector<std::vector<Neighbor>>& reference) {
  const std::vector<double> schedule =
      PoissonSchedule(run->w.read_qps, kWarmupS + run->args.seconds,
                      MixSeed(run->args.seed, kReadStream));
  const Window win(run->args.seconds);
  std::vector<Call> calls(schedule.size());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    calls[i].due = win.start + ToDuration(schedule[i]);
  }
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> mismatched{0};
  std::vector<JoinStats> joins(run->w.connections);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < run->w.connections; ++c) {
    threads.emplace_back([&, c] {
      TightTimerSlack();
      server::Client client;
      if (!client.Connect("127.0.0.1", port).ok()) return;
      for (std::size_t i; (i = next.fetch_add(1)) < calls.size();) {
        Call& call = calls[i];
        const std::size_t qi = i % kNumQueries;
        const SearchOptions options = run->Options(qi);
        std::this_thread::sleep_until(call.due);
        call.sent = Clock::now();
        call.issued = true;
        const SearchResponse r = client.Search(
            kCollection, run->queries.Row(qi), kDim, options);
        call.done = Clock::now();
        call.ok = r.ok();
        if (call.ok && !SameNeighbors(r.neighbors, reference[qi])) {
          mismatched.fetch_add(1);
        }
        if (!client.connected()) client.Connect("127.0.0.1", port);
        if (run->args.trace) {
          JoinTraced(run, win, "wire.request", *options.seed, call.sent,
                     call.done, &joins[c]);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  LoadResult out;
  Aggregate(win, calls, 1, run, &out);
  out.mismatched = mismatched.load();
  for (const JoinStats& j : joins) out.join.Merge(j);
  return out;
}

/// Closed loop: one caller thread issuing SearchBatch calls of 32 queries.
LoadResult DriveBatches(Run* run, SearchEngine* engine,
                        const std::vector<std::vector<Neighbor>>& reference) {
  const Window win(run->args.seconds);
  std::vector<Call> calls;
  LoadResult out;
  std::thread caller([&] {
    std::vector<SearchRequest> requests(kBatch);
    std::vector<SearchResponse> responses;
    std::this_thread::sleep_until(win.start);
    Clock::time_point ready = Clock::now();
    for (std::size_t b = 0;; ++b) {
      Call call;
      call.due = ready;
      call.sent = Clock::now();
      if (call.sent >= win.end) break;
      for (std::size_t j = 0; j < kBatch; ++j) {
        const std::size_t qi = (b * kBatch + j) % kNumQueries;
        requests[j] = {run->queries.Row(qi), run->Options(qi)};
      }
      const Status status =
          engine->SearchBatch(requests.data(), kBatch, &responses);
      call.done = Clock::now();
      call.issued = true;
      call.ok = status.ok();
      for (std::size_t j = 0; j < kBatch; ++j) {
        const std::size_t qi = (b * kBatch + j) % kNumQueries;
        if (responses[j].ok() &&
            !SameNeighbors(responses[j].neighbors, reference[qi])) {
          ++out.mismatched;
        }
        if (run->args.trace) {
          JoinTraced(run, win, "engine.batch_query",
                     *requests[j].options.seed, call.sent, call.done,
                     &out.join);
        }
      }
      calls.push_back(call);
      ready = call.done;
    }
  });
  caller.join();
  Aggregate(win, calls, kBatch, run, &out);
  return out;
}

/// Churn: open-loop reads through SubmitAsync (a submitter and a collector
/// thread) beside one open-loop writer. The writer stamps each deleted id
/// with the time its Delete returned; a read submitted after that stamp
/// must not return the id.
struct ChurnResult {
  LoadResult reads;
  std::vector<double> write_latency_us;  // window, from due time
  std::size_t deleted_returned = 0;
  std::size_t id_mismatches = 0;  // Insert returned an unexpected id
};

ChurnResult DriveChurn(Run* run, SearchEngine* engine, WriteModel* model) {
  const std::vector<double> schedule =
      PoissonSchedule(run->w.read_qps, kWarmupS + run->args.seconds,
                      MixSeed(run->args.seed, kReadStream));
  const Window win(run->args.seconds);
  std::vector<Call> reads(schedule.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    reads[i].due = win.start + ToDuration(schedule[i]);
  }
  std::vector<Call> writes(run->write_schedule.size());
  for (std::size_t i = 0; i < writes.size(); ++i) {
    writes[i].due = win.start + ToDuration(run->write_schedule[i]);
  }

  constexpr std::int64_t kAlive = std::numeric_limits<std::int64_t>::max();
  const std::size_t id_cap = run->data.rows() + writes.size();
  std::unique_ptr<std::atomic<std::int64_t>[]> deleted_at(
      new std::atomic<std::int64_t>[id_cap]);
  for (std::size_t i = 0; i < id_cap; ++i) deleted_at[i].store(kAlive);
  auto stamp = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - win.start)
        .count();
  };

  struct Pending {
    std::size_t i;
    std::future<SearchResponse> future;
  };
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<Pending> pending;
  bool submitting = true;
  ChurnResult out;
  std::atomic<std::size_t> deleted_returned{0};

  std::thread submitter([&] {
    TightTimerSlack();
    for (std::size_t i = 0; i < reads.size(); ++i) {
      const std::size_t qi = i % kNumQueries;
      std::this_thread::sleep_until(reads[i].due);
      reads[i].sent = Clock::now();
      reads[i].issued = true;
      auto future =
          engine->SubmitAsync({run->queries.Row(qi), run->Options(qi)});
      std::lock_guard<std::mutex> lock(mutex);
      pending.push_back({i, std::move(future)});
      ready.notify_one();
    }
    std::lock_guard<std::mutex> lock(mutex);
    submitting = false;
    ready.notify_one();
  });
  std::thread collector([&] {
    while (true) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mutex);
        ready.wait(lock, [&] { return !pending.empty() || !submitting; });
        if (pending.empty()) return;
        p = std::move(pending.front());
        pending.pop_front();
      }
      const SearchResponse r = p.future.get();
      Call& call = reads[p.i];
      call.done = Clock::now();
      call.ok = r.ok();
      const std::int64_t sent = stamp(call.sent);
      for (const Neighbor& nb : r.neighbors) {
        if (nb.second < id_cap && deleted_at[nb.second].load() <= sent) {
          deleted_returned.fetch_add(1);
        }
      }
      if (run->args.trace) {
        JoinTraced(run, win, "engine.async_request",
                   *run->Options(p.i % kNumQueries).seed, call.sent,
                   call.done, &out.reads.join);
      }
    }
  });
  std::thread writer([&] {
    TightTimerSlack();
    for (Call& call : writes) {
      const WriteModel::Op op = model->Next();
      std::this_thread::sleep_until(call.due);
      call.sent = Clock::now();
      call.issued = true;
      Status status;
      std::uint32_t id = op.id;
      switch (op.type) {
        case OpType::kInsert:
          status = engine->Insert(op.vec, &id);
          break;
        case OpType::kUpdate:
          status = engine->Update(op.id, op.vec);
          break;
        case OpType::kDelete:
          status = engine->Delete(op.id);
          break;
      }
      call.done = Clock::now();
      call.ok = status.ok();
      if (!call.ok) continue;
      if (id != op.id) ++out.id_mismatches;
      if (op.type == OpType::kDelete) {
        deleted_at[op.id].store(stamp(call.done));
      }
      model->Commit(op);
    }
  });
  submitter.join();
  collector.join();
  writer.join();

  Aggregate(win, reads, 1, run, &out.reads);
  LoadResult write_load;
  Aggregate(win, writes, 1, run, &write_load);
  out.write_latency_us = std::move(write_load.latency_us);
  out.deleted_returned = deleted_returned.load();
  return out;
}

Status ApplyToEngine(SearchEngine* engine, const WriteModel::Op& op,
                     std::uint32_t* id) {
  switch (op.type) {
    case OpType::kInsert:
      return engine->Insert(op.vec, id);
    case OpType::kUpdate:
      return engine->Update(op.id, op.vec);
    case OpType::kDelete:
      return engine->Delete(op.id);
  }
  return Status::Ok();
}

void CheckLoad(Run* run, const LoadResult& load) {
  Report& r = run->report;
  r.Check(load.mismatched == 0,
          std::to_string(load.mismatched) +
              " answers differ from the in-process reference");
  r.Check(load.backlog_end * 100 <= load.issued,
          "load generator backlog at the window end exceeds 1% of requests");
  r.Check(!load.latency_us.empty(), "no request completed in the window");
  r.Detail("latency_samples", static_cast<double>(load.latency_us.size()));
  r.Detail("backlog_end", static_cast<double>(load.backlog_end));
}

void EmitEndToEnd(Run* run, const std::vector<double>& setup_s,
                  const LoadResult& load, double recall) {
  Report& r = run->report;
  r.Metric("setup_s", Quantile(setup_s, 0.5), "s");
  r.Metric("qps",
           static_cast<double>(load.window_queries) /
               std::max(load.window_s, 1e-9),
           "queries/s");
  r.Metric("p50_us", SlicedQuantile(load.latency_us, 0.50, kSlices), "us");
  r.Metric("p95_us", SlicedQuantile(load.latency_us, 0.95, kSlices), "us");
  r.Metric("recall_at_10", recall, "fraction");
  r.Metric("peak_rss_mb", PeakRssMiB(), "MiB");
  r.Detail("setup_reps", static_cast<double>(setup_s.size()));
  r.Detail("samples_per_slice",
           static_cast<double>(load.latency_us.size() / kSlices));
}

/// Per-layer metrics of the traced rerun: the caller's view, its requests
/// joined to their engine stages, and the serving engine's own counters.
void EmitTracedLoad(Run* run, const LoadResult& load, SearchEngine* engine,
                    double load_seconds) {
  Report& r = run->report;
  const JoinStats& j = load.join;
  r.Check(j.joined > 0, "no traced request was joined to engine stages");
  r.Metric("loadgen.traced_p50_us",
           SlicedQuantile(load.latency_us, 0.50, kSlices), "us");
  r.Metric("loadgen.traced_p95_us",
           SlicedQuantile(load.latency_us, 0.95, kSlices), "us");
  r.Metric("loadgen.late_p99_us", Quantile(load.late_us, 0.99), "us");
  r.Metric("loadgen.backlog_end", static_cast<double>(load.backlog_end),
           "requests");
  r.Metric("loadgen.unattributed_us", j.MeanUnattributedUs(), "us");
  r.Metric("engine.queue_wait_share",
           j.stage_us[static_cast<int>(obs::Stage::kQueueWait)] /
               std::max(j.caller_us, 1e-9),
           "fraction");
  r.Metric("engine.preprocess_us", j.MeanStageUs(obs::Stage::kPreprocess),
           "us");
  r.Metric("engine.probe_order_us", j.MeanStageUs(obs::Stage::kProbeOrder),
           "us");
  r.Metric("engine.scan_us", j.MeanStageUs(obs::Stage::kScan), "us");
  r.Metric("engine.rerank_us", j.MeanStageUs(obs::Stage::kRerank), "us");
  r.Metric("engine.merge_us", j.MeanStageUs(obs::Stage::kMerge), "us");
  const EngineStatsSnapshot stats = engine->Stats();
  const obs::MetricsSnapshot metrics = engine->SnapshotMetrics();
  const obs::MetricValue* passes =
      metrics.Find("rabitq_compaction_pass_seconds");
  r.Metric("engine.mean_batch_size", stats.mean_batch_size, "queries");
  r.Metric("engine.rejected", static_cast<double>(stats.queries_rejected),
           "requests");
  r.Metric("engine.shed", static_cast<double>(stats.queries_shed),
           "requests");
  r.Metric("engine.compactions", static_cast<double>(stats.compactions),
           "lists");
  r.Metric("engine.compaction_busy_share",
           (passes != nullptr ? passes->hist.sum : 0.0) / load_seconds,
           "fraction");
  r.Metric("engine.tombstone_frac_end",
           static_cast<double>(stats.tombstones) /
               std::max<double>(1.0, static_cast<double>(
                                         stats.live_vectors + stats.tombstones)),
           "fraction");
  r.Detail("traced_joined", static_cast<double>(j.joined));
  r.Detail("traced_unjoined", static_cast<double>(j.unjoined));
  r.Detail("traced_stages_over_caller", static_cast<double>(j.negative));
}

void CollectServerErrors(Run* run, server::Server* server) {
  const obs::MetricsSnapshot m = server->metrics()->Snapshot();
  if (const auto* v = m.Find("rabitq_server_frame_errors_total")) {
    run->frame_errors += v->u64;
  }
  if (const auto* v = m.Find("rabitq_server_request_errors_total")) {
    run->request_errors += v->u64;
  }
}

server::WireCollectionSpec Spec() {
  server::WireCollectionSpec spec;
  spec.dim = static_cast<std::uint32_t>(kDim);
  spec.metric = Metric::kL2;
  spec.bits_per_dim = 1;
  spec.num_shards = 1;
  spec.num_lists = static_cast<std::uint32_t>(kNumLists);
  return spec;
}

double LoadSeconds(const Run& run) { return kWarmupS + run.args.seconds; }

/// wire_sparse / wire_busy: the server runs in this process on 127.0.0.1;
/// set-up is CreateCollection over the wire.
void RunWire(Run* run) {
  server::ServerConfig config;
  config.collections.engine = run->EngineCfg();
  server::Server server(config);
  Must(server.Start(), "server start");
  server::Client admin;
  Must(admin.Connect("127.0.0.1", server.port()), "connect");
  std::vector<double> setup_s;
  const std::size_t reps = run->args.trace ? 1 : kSetupReps;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const Clock::time_point t = Clock::now();
    Must(admin.CreateCollection(kCollection, Spec(), run->data), "create");
    setup_s.push_back(SecondsSince(t));
    if (rep + 1 < reps) Must(admin.DropCollection(kCollection), "drop");
  }
  // In-process twin over the same spec: every wire answer must equal it.
  std::vector<std::vector<Neighbor>> reference;
  {
    ShardedIndex twin;
    Must(twin.Build(run->data, run->Sharded(1)), "reference build");
    reference = run->Answers(twin);
  }
  const LoadResult load = DriveWire(run, server.port(), reference);
  CheckLoad(run, load);
  run->report.Check(run->Recall(reference) >= run->w.recall_floor,
                    "recall@10 below the floor");
  if (run->args.trace) {
    const auto collection = server.collections()->Get(kCollection);
    EmitTracedLoad(run, load, collection->engine.get(), LoadSeconds(*run));
  } else {
    EmitEndToEnd(run, setup_s, load, run->Recall(reference));
  }
  CollectServerErrors(run, &server);
  admin.Close();
  server.Stop();
  server.Wait();
}

/// inproc_large: set-up is Build plus engine construction.
void RunBatchWorkload(Run* run) {
  std::unique_ptr<SearchEngine> engine;
  std::vector<double> setup_s;
  const std::size_t reps = run->args.trace ? 1 : kSetupReps;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    engine.reset();
    const Clock::time_point t = Clock::now();
    IvfRabitqIndex index;
    Must(index.Build(run->data, run->Ivf(), RabitqConfig{}), "build");
    engine = std::make_unique<SearchEngine>(std::move(index), run->EngineCfg());
    setup_s.push_back(SecondsSince(t));
  }
  const std::vector<std::vector<Neighbor>> reference =
      run->Answers(engine->index());
  const LoadResult load = DriveBatches(run, engine.get(), reference);
  CheckLoad(run, load);
  run->report.Check(run->Recall(reference) >= run->w.recall_floor,
                    "recall@10 below the floor");
  if (run->args.trace) {
    EmitTracedLoad(run, load, engine.get(), LoadSeconds(*run));
  } else {
    EmitEndToEnd(run, setup_s, load, run->Recall(reference));
  }
}

/// churn: set-up is a 4-shard kShared Build plus engine construction. The
/// end-state recall is measured against brute force over the writer's model
/// of the live set.
void RunChurn(Run* run) {
  std::unique_ptr<SearchEngine> engine;
  std::vector<double> setup_s;
  const std::size_t reps = run->args.trace ? 1 : kSetupReps;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    engine.reset();
    const Clock::time_point t = Clock::now();
    ShardedIndex index;
    Must(index.Build(run->data, run->Sharded(run->w.shards)), "build");
    engine = std::make_unique<SearchEngine>(std::move(index), run->EngineCfg());
    setup_s.push_back(SecondsSince(t));
  }
  WriteModel model(run->data, run->writes,
                   MixSeed(run->args.seed, kTargetStream));
  const ChurnResult churn = DriveChurn(run, engine.get(), &model);
  CheckLoad(run, churn.reads);
  Report& r = run->report;
  r.Check(churn.deleted_returned == 0,
          std::to_string(churn.deleted_returned) +
              " reads returned an id deleted before they were submitted");
  r.Check(churn.id_mismatches == 0, "insert returned an unexpected id");

  Matrix live;
  std::vector<std::uint32_t> live_ids;
  model.LiveSet(&live, &live_ids);
  GroundTruth truth;
  Must(ComputeGroundTruth(live, run->queries, kK, &truth), "live truth");
  double recall_sum = 0.0;
  std::vector<SearchRequest> requests(kNumQueries);
  for (std::size_t qi = 0; qi < kNumQueries; ++qi) {
    requests[qi] = {run->queries.Row(qi), run->Options(qi)};
  }
  std::vector<SearchResponse> responses;
  Must(engine->SearchBatch(requests.data(), kNumQueries, &responses),
       "end-state search");
  for (std::size_t qi = 0; qi < kNumQueries; ++qi) {
    std::unordered_set<std::uint32_t> want;
    for (std::size_t j = 0; j < kK; ++j) {
      want.insert(live_ids[truth.IdsFor(qi)[j]]);
    }
    std::size_t hits = 0;
    for (const Neighbor& nb : responses[qi].neighbors) {
      hits += want.count(nb.second);
    }
    recall_sum += static_cast<double>(hits) / kK;
  }
  run->stages.Clear();
  const double recall = recall_sum / kNumQueries;
  r.Check(recall >= run->w.recall_floor, "end-state recall@10 below the floor");
  r.Detail("live_vectors_end", static_cast<double>(live_ids.size()));
  r.Detail("write_samples", static_cast<double>(churn.write_latency_us.size()));
  r.Detail("write_p50_us", Quantile(churn.write_latency_us, 0.50));
  r.Detail("write_p99_us", Quantile(churn.write_latency_us, 0.99));
  if (run->args.trace) {
    EmitTracedLoad(run, churn.reads, engine.get(), LoadSeconds(*run));
  } else {
    EmitEndToEnd(run, setup_s, churn.reads, recall);
  }
}

// ------------------------------------------------------------------ ladder

/// Kernel rung over the index's own probed lists: the once-per-query
/// rotation, the per-list query preparation, and the fast-scan accumulate
/// plus fused estimate over each probed list's packed codes.
void CoreRung(Run* run, const IvfRabitqIndex& index) {
  const RabitqEncoder& encoder = index.encoder();
  const float eps0 = encoder.config().epsilon0;
  std::vector<float> rotated(encoder.total_bits());
  std::vector<std::pair<float, std::uint32_t>> order;
  QuantizedQuery qq;
  std::vector<float> est;
  std::vector<float> lb;
  std::uint32_t sums[kFastScanBlockSize];
  double rotate_ns = 0.0, prep_ns = 0.0, scan_ns = 0.0;
  std::size_t rotations = 0, lists = 0, codes = 0, survivors = 0;
  auto ns = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::nano>(b - a).count();
  };
  for (std::size_t rep = 0; rep < kLadderReplays; ++rep) {
    for (std::size_t qi = 0; qi < kNumQueries; ++qi) {
      const float* query = run->queries.Row(qi);
      const std::uint64_t seed = *run->Options(qi).seed;
      const Clock::time_point t0 = Clock::now();
      RotateQueryOnce(encoder, query, rotated.data());
      rotate_ns += ns(t0, Clock::now());
      ++rotations;
      index.ProbeOrderInto(query, run->w.nprobe, &order);
      const std::size_t nprobe = std::min(run->w.nprobe, order.size());
      for (std::size_t p = 0; p < nprobe; ++p) {
        const std::uint32_t list_id = order[p].second;
        const RabitqCodeStore& store = index.list_codes(list_id);
        if (store.size() == 0) continue;
        const FastScanCodes& packed = store.packed();
        est.resize(packed.num_blocks * kFastScanBlockSize);
        lb.resize(est.size());
        Rng rng(MixSeed(seed, list_id));
        const Clock::time_point a = Clock::now();
        Must(PrepareQueryFromRotated(encoder, rotated.data(),
                                     index.rotated_centroids().Row(list_id),
                                     std::sqrt(std::max(0.0f, order[p].first)),
                                     &rng, &qq),
             "PrepareQueryFromRotated");
        const Clock::time_point b = Clock::now();
        for (std::size_t block = 0; block < packed.num_blocks; ++block) {
          FastScanAccumulateBlock(packed.BlockPtr(block), packed.num_segments,
                                  qq.luts.data(), sums);
          survivors += static_cast<std::size_t>(std::popcount(
              EstimateBlockFusedPruned(
                  qq, store, block, sums, eps0,
                  std::numeric_limits<float>::infinity(), nullptr,
                  est.data() + block * kFastScanBlockSize,
                  lb.data() + block * kFastScanBlockSize)));
        }
        const Clock::time_point c = Clock::now();
        prep_ns += ns(a, b);
        scan_ns += ns(b, c);
        ++lists;
        codes += store.size();
      }
    }
  }
  Report& r = run->report;
  // With an infinite threshold every real code survives.
  r.Check(survivors == codes, "fused kernel dropped codes at +inf threshold");
  r.Metric("core.rotate_us", rotate_ns * 1e-3 / rotations, "us");
  r.Metric("core.query_prep_us_per_list", prep_ns * 1e-3 / lists, "us");
  r.Metric("core.scan_ns_per_code", scan_ns / codes, "ns");
}

/// Replays the 256 queries kLadderReplays times through `call`, which
/// returns the answer and the call's end time; logs a span per call and
/// returns per-call microseconds. `answers` receives the first replay.
std::vector<double> Replay(
    Run* run, const char* name,
    const std::function<std::vector<Neighbor>(std::size_t qi,
                                              const StageVec** stages)>& call,
    std::vector<std::vector<Neighbor>>* answers) {
  std::vector<double> us;
  answers->assign(kNumQueries, {});
  for (std::size_t rep = 0; rep < kLadderReplays; ++rep) {
    for (std::size_t qi = 0; qi < kNumQueries; ++qi) {
      const StageVec* stages = nullptr;
      const Clock::time_point t = Clock::now();
      std::vector<Neighbor> out = call(qi, &stages);
      const Clock::time_point done = Clock::now();
      us.push_back(MicrosBetween(t, done));
      LogSpan(run, name, *run->Options(qi).seed, t, done, stages);
      if (rep == 0) (*answers)[qi] = std::move(out);
    }
  }
  return us;
}

std::size_t CountDifferent(const std::vector<std::vector<Neighbor>>& a,
                           const std::vector<std::vector<Neighbor>>& b) {
  std::size_t differ = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differ += SameNeighbors(a[i], b[i]) ? 0 : 1;
  }
  return differ;
}

/// The ladder: the same 256 queries and seeds through each layer's public
/// calls on a freshly built copy of the workload's index. The index, S=1,
/// engine and wire rungs must return identical neighbors.
void RunLadder(Run* run) {
  Report& r = run->report;
  using Answers = std::vector<std::vector<Neighbor>>;
  ShardedIndex s1;
  Must(s1.Build(run->data, run->Sharded(1)), "ladder S=1 build");
  const IvfRabitqIndex& index = s1.shard(0);
  CoreRung(run, index);

  // IvfRabitqIndex: untraced timing, then one traced pass for its stages.
  Answers base;
  IvfSearchStats totals;
  {
    IvfSearchScratch scratch;
    const std::vector<double> us = Replay(
        run, "index.search",
        [&](std::size_t qi, const StageVec**) {
          const SearchOptions o = run->Options(qi);
          std::vector<Neighbor> out;
          IvfSearchStats st;
          Must(index.SearchWithScratch(run->queries.Row(qi), nullptr, o,
                                       *o.seed, &scratch, &out, &st),
               "index search");
          totals.codes_estimated += st.codes_estimated;
          totals.lists_probed += st.lists_probed;
          totals.candidates_reranked += st.candidates_reranked;
          return out;
        },
        &base);
    obs::QueryTrace trace;
    scratch.trace = &trace;
    double stage_us[obs::kNumStages] = {};
    for (std::size_t qi = 0; qi < kNumQueries; ++qi) {
      const SearchOptions o = run->Options(qi);
      std::vector<Neighbor> out;
      trace.Clear();
      Must(index.SearchWithScratch(run->queries.Row(qi), nullptr, o, *o.seed,
                                   &scratch, &out, nullptr),
           "traced index search");
      for (int s = 0; s < obs::kNumStages; ++s) {
        stage_us[s] += trace.Micros(static_cast<obs::Stage>(s)) / kNumQueries;
      }
    }
    const double calls = static_cast<double>(kNumQueries * kLadderReplays);
    r.Metric("index.search_p50_us", Quantile(us, 0.50), "us");
    r.Metric("index.search_p99_us", Quantile(us, 0.99), "us");
    r.Metric("index.preprocess_us",
             stage_us[static_cast<int>(obs::Stage::kPreprocess)], "us");
    r.Metric("index.probe_order_us",
             stage_us[static_cast<int>(obs::Stage::kProbeOrder)], "us");
    r.Metric("index.scan_us", stage_us[static_cast<int>(obs::Stage::kScan)],
             "us");
    r.Metric("index.rerank_us",
             stage_us[static_cast<int>(obs::Stage::kRerank)], "us");
    r.Metric("index.codes_per_query", totals.codes_estimated / calls, "codes");
    r.Metric("index.lists_per_query", totals.lists_probed / calls, "lists");
    r.Metric("index.reranked_per_query", totals.candidates_reranked / calls,
             "candidates");
    r.Metric("index.rerank_useful_frac",
             static_cast<double>(kK) * calls /
                 std::max<double>(1.0, totals.candidates_reranked),
             "fraction");
  }
  const double recall = run->Recall(base);
  r.Check(recall >= run->w.recall_floor, "ladder recall@10 below the floor");
  r.Metric("ladder.recall_at_10", recall, "fraction");

  // ShardedIndex at S=1 (same index) and S=4 (kShared clustering).
  auto sharded_rung = [&](const ShardedIndex& idx, const char* name,
                          Answers* answers) {
    ShardedSearchScratch scratch;
    return Replay(
        run, name,
        [&](std::size_t qi, const StageVec**) {
          const SearchOptions o = run->Options(qi);
          std::vector<Neighbor> out;
          Must(idx.SearchWithScratch(run->queries.Row(qi), nullptr, o, *o.seed,
                                     &scratch, &out),
               "sharded search");
          return out;
        },
        answers);
  };
  Answers s1_answers;
  r.Metric("sharded.s1_us",
           Quantile(sharded_rung(s1, "sharded.s1", &s1_answers), 0.5), "us");
  r.Check(CountDifferent(base, s1_answers) == 0,
          "ShardedIndex S=1 answers differ from IvfRabitqIndex");
  {
    ShardedIndex s4;
    Must(s4.Build(run->data, run->Sharded(4)), "ladder S=4 build");
    Answers s4_answers;
    r.Metric("sharded.s4_us",
             Quantile(sharded_rung(s4, "sharded.s4", &s4_answers), 0.5), "us");
    // kErrorBound prunes per shard against a weaker threshold, so S=4 may
    // legitimately differ where a bound is violated at the k-th boundary.
    r.Metric("sharded.parity_mismatches",
             static_cast<double>(CountDifferent(s1_answers, s4_answers)),
             "queries");
    ShardedSearchScratch scratch;
    obs::QueryTrace trace;
    scratch.shard_scratch.trace = &trace;
    double merge_us = 0.0;
    for (std::size_t qi = 0; qi < kNumQueries; ++qi) {
      const SearchOptions o = run->Options(qi);
      std::vector<Neighbor> out;
      trace.Clear();
      Must(s4.SearchWithScratch(run->queries.Row(qi), nullptr, o, *o.seed,
                                &scratch, &out),
           "traced sharded search");
      merge_us += trace.Micros(obs::Stage::kMerge) / kNumQueries;
    }
    r.Metric("sharded.merge_us", merge_us, "us");
  }

  // The wire rung serves a restored snapshot of this exact index.
  const std::filesystem::path root =
      std::filesystem::path(run->args.work_dir) /
      ("ladder-" + std::to_string(::getpid()));
  server::ServerConfig config;
  config.collections.root_dir = root.string();
  config.collections.engine = run->EngineCfg();
  server::Server server(config);
  Must(s1.Save(server.collections()->SnapshotDir("ladder")), "snapshot");

  // SearchEngine: sync, 32-query batches, and async one at a time.
  SearchEngine engine(std::move(s1), run->EngineCfg());
  run->stages.Clear();
  StageVec stage_buf;
  auto take = [&](std::size_t qi, const StageVec** stages) {
    if (run->stages.Take(*run->Options(qi).seed, &stage_buf)) {
      *stages = &stage_buf;
    }
  };
  Answers sync_answers;
  const std::vector<double> sync_us = Replay(
      run, "engine.sync",
      [&](std::size_t qi, const StageVec** stages) {
        SearchResponse resp = engine.Search({run->queries.Row(qi),
                                             run->Options(qi)});
        Must(resp.status, "engine search");
        take(qi, stages);
        return std::move(resp.neighbors);
      },
      &sync_answers);
  r.Metric("engine.sync_us", Quantile(sync_us, 0.5), "us");
  r.Check(CountDifferent(base, sync_answers) == 0,
          "SearchEngine::Search answers differ from IvfRabitqIndex");
  {
    std::vector<double> per_query_us;
    std::vector<SearchRequest> requests(kBatch);
    std::vector<SearchResponse> responses;
    std::size_t differ = 0;
    for (std::size_t rep = 0; rep < kLadderReplays; ++rep) {
      for (std::size_t b = 0; b < kNumQueries; b += kBatch) {
        for (std::size_t j = 0; j < kBatch; ++j) {
          requests[j] = {run->queries.Row(b + j), run->Options(b + j)};
        }
        const Clock::time_point t = Clock::now();
        Must(engine.SearchBatch(requests.data(), kBatch, &responses),
             "engine batch");
        const Clock::time_point done = Clock::now();
        per_query_us.push_back(MicrosBetween(t, done) / kBatch);
        LogSpan(run, "engine.batch32", *requests[0].options.seed, t, done,
                nullptr);
        for (std::size_t j = 0; j < kBatch; ++j) {
          differ += SameNeighbors(responses[j].neighbors, base[b + j]) ? 0 : 1;
        }
      }
    }
    run->stages.Clear();
    r.Metric("engine.batch32_us_per_query", Quantile(per_query_us, 0.5), "us");
    r.Check(differ == 0, "SearchEngine::SearchBatch answers differ");
  }
  {
    double queue_wait_us = 0.0;
    std::size_t joined = 0;
    Answers async_answers;
    const std::vector<double> us = Replay(
        run, "engine.async",
        [&](std::size_t qi, const StageVec** stages) {
          SearchResponse resp =
              engine.SubmitAsync({run->queries.Row(qi), run->Options(qi)})
                  .get();
          Must(resp.status, "engine async");
          take(qi, stages);
          if (*stages != nullptr) {
            queue_wait_us +=
                (**stages)[static_cast<int>(obs::Stage::kQueueWait)] * 1e-3;
            ++joined;
          }
          return std::move(resp.neighbors);
        },
        &async_answers);
    r.Check(CountDifferent(base, async_answers) == 0,
            "SearchEngine::SubmitAsync answers differ");
    r.Metric("engine.async_p50_us", Quantile(us, 0.50), "us");
    r.Metric("engine.async_p99_us", Quantile(us, 0.99), "us");
    r.Metric("engine.queue_wait_us", queue_wait_us / std::max<std::size_t>(1, joined),
             "us");
  }

  // One wire client, one request at a time. The residual is the round trip
  // minus that request's engine stages: framing, sockets, dispatch.
  Must(server.Start(), "ladder server start");
  {
    server::Client client;
    Must(client.Connect("127.0.0.1", server.port()), "ladder connect");
    Must(client.Restore("ladder"), "ladder restore");
    double residual_us = 0.0;
    std::size_t joined = 0, negative = 0;
    Answers wire_answers;
    const std::vector<double> us = Replay(
        run, "server.roundtrip",
        [&](std::size_t qi, const StageVec** stages) {
          const Clock::time_point t = Clock::now();
          SearchResponse resp = client.Search("ladder", run->queries.Row(qi),
                                              kDim, run->Options(qi));
          const double rt = MicrosBetween(t, Clock::now());
          Must(resp.status, "wire search");
          take(qi, stages);
          if (*stages != nullptr) {
            const double residual = rt - StageSumUs(**stages);
            residual_us += residual;
            negative += residual < 0.0 ? 1 : 0;
            ++joined;
          }
          return std::move(resp.neighbors);
        },
        &wire_answers);
    r.Check(CountDifferent(base, wire_answers) == 0,
            "wire answers differ from IvfRabitqIndex");
    r.Check(joined == us.size(), "wire requests without engine stages");
    r.Check(negative == 0, "engine stages exceed a wire round trip");
    r.Metric("server.roundtrip_p50_us", Quantile(us, 0.50), "us");
    r.Metric("server.roundtrip_p99_us", Quantile(us, 0.99), "us");
    r.Metric("server.residual_us", residual_us / std::max<std::size_t>(1, joined),
             "us");
  }
  CollectServerErrors(run, &server);
  server.Stop();
  server.Wait();
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  r.Metric("server.frame_errors", static_cast<double>(run->frame_errors),
           "frames");
  r.Metric("server.request_errors", static_cast<double>(run->request_errors),
           "requests");

  // Writes on the ladder engine, then a forced compaction of every list.
  {
    WriteModel model(run->data, run->writes,
                     MixSeed(run->args.seed, kTargetStream));
    std::vector<double> us[3];
    for (std::size_t k = 0; k < kWriteOps; ++k) {
      const WriteModel::Op op = model.Next();
      std::uint32_t id = op.id;
      const Clock::time_point t = Clock::now();
      Must(ApplyToEngine(&engine, op, &id), "ladder write");
      us[static_cast<int>(op.type)].push_back(MicrosBetween(t, Clock::now()));
      r.Check(id == op.id, "insert returned an unexpected id");
      model.Commit(op);
    }
    const Clock::time_point t = Clock::now();
    Must(engine.CompactNow(), "CompactNow");
    const double compact_ms = MicrosBetween(t, Clock::now()) * 1e-3;
    run->stages.Clear();
    const char* names[] = {"insert", "update", "delete"};
    for (int i = 0; i < 3; ++i) {
      const std::string prefix = std::string("engine.") + names[i];
      r.Metric(prefix + "_p50_us", Quantile(us[i], 0.50), "us");
      r.Metric(prefix + "_p99_us", Quantile(us[i], 0.99), "us");
    }
    r.Metric("engine.compact_now_ms", compact_ms, "ms");
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: layer_bench --workload NAME --seed N --seconds T "
                 "--trace 0|1 [--spans-out FILE] [--work-dir DIR]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // A fixed mmap threshold turns off glibc's adaptive one, under which
  // whether a freed multi-megabyte frame buffer stays resident depends on
  // thread timing -- peak RSS was bimodal by ~8 MiB across identical runs.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Run run(*workload, args);
  switch (workload->front) {
    case Front::kWire:
      RunWire(&run);
      break;
    case Front::kSyncBatch:
      RunBatchWorkload(&run);
      break;
    case Front::kAsync:
      RunChurn(&run);
      break;
  }
  if (args.trace) {
    RunLadder(&run);
    if (!args.spans_out.empty()) {
      run.report.Check(run.spans.Write(args.spans_out),
                       "cannot write " + args.spans_out);
    }
  }
  run.report.Check(run.failed == 0,
                   std::to_string(run.failed) + " operations failed");
  run.report.Print(run.attempted, run.failed);
  return run.report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace layerbench

int main(int argc, char** argv) { return layerbench::Main(argc, argv); }
