// Overload-robustness tests for the serving engine: bounded admission
// (queue-full fast failure), deadline shedding of queued requests, partial
// results for expired/mid-scan deadlines, bit-safety of the deadline checks
// (a deadline that never trips must not perturb results), and graceful
// Drain() semantics -- including a drain racing concurrent submitters,
// which the CI ThreadSanitizer job runs.
//
// The queue tests need the scheduler WEDGED so submissions pile up
// deterministically. A filter predicate doubles as a gate: the first
// blocker query parks the scheduler's one in-flight batch inside the scan
// until the test opens the gate. No sleeps are load-bearing for the
// accept/reject counts -- once the gate reports the scheduler entered the
// scan, rejection is a pure function of queue capacity.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "engine/search_engine.h"
#include "gate.h"
#include "index/ivf.h"
#include "index/sharded.h"
#include "linalg/vector_ops.h"
#include "util/prng.h"

namespace rabitq {
namespace {

Matrix ClusteredData(std::size_t n, std::size_t dim, std::size_t clusters,
                     std::uint64_t seed) {
  Rng rng(seed);
  Matrix centers(clusters, dim);
  for (std::size_t i = 0; i < centers.size(); ++i) {
    centers.data()[i] = static_cast<float>(rng.Gaussian()) * 8.0f;
  }
  Matrix data(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = rng.UniformInt(clusters);
    for (std::size_t j = 0; j < dim; ++j) {
      data.At(i, j) = centers.At(c, j) + static_cast<float>(rng.Gaussian());
    }
  }
  return data;
}

IvfRabitqIndex BuildIndex(const Matrix& data, std::size_t num_lists) {
  IvfRabitqIndex index;
  IvfConfig ivf;
  ivf.num_lists = num_lists;
  EXPECT_TRUE(index.Build(data, ivf, RabitqConfig{}).ok());
  return index;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& a,
                         const std::vector<Neighbor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].second, b[i].second) << "rank " << i;
    EXPECT_EQ(a[i].first, b[i].first) << "rank " << i;
  }
}

class OverloadTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 1024;
  static constexpr std::size_t kDim = 24;

  void SetUp() override {
    data_ = ClusteredData(kN, kDim, 10, 7);
    queries_ = ClusteredData(16, kDim, 10, 8);
    params_.k = 10;
    params_.nprobe = 6;
  }

  // An engine whose scheduler serves one query at a time, so a
  // gate-blocked batch wedges it completely.
  SearchEngine MakeWedgeableEngine(std::size_t max_queue_depth) {
    EngineConfig config;
    config.num_threads = 2;
    config.max_batch = 1;
    config.max_queue_depth = max_queue_depth;
    return SearchEngine(BuildIndex(data_, 8), config);
  }

  SearchRequest PlainRequest(std::size_t qi) const {
    SearchRequest request;
    request.query = queries_.Row(qi);
    request.options = params_;
    return request;
  }

  Matrix data_;
  Matrix queries_;
  SearchOptions params_;
};

// The pinned regression for bounded admission: with the scheduler wedged, a
// flood of submissions is accepted up to EXACTLY max_queue_depth and every
// excess request fails fast with kResourceExhausted (and counts in stats)
// instead of growing the backlog without limit.
TEST_F(OverloadTest, QueueFullRejectsExcessSubmissions) {
  constexpr std::size_t kDepth = 4;
  constexpr std::size_t kFlood = 32;
  SearchEngine engine = MakeWedgeableEngine(kDepth);

  Gate gate;
  SearchRequest blocker = PlainRequest(0);
  blocker.options.filter =
      IdFilter::FromPredicate(&Gate::BlockUntilOpen, &gate);
  std::future<SearchResponse> blocked = engine.SubmitAsync(blocker);
  gate.AwaitEntered();  // scheduler is now parked inside the blocker's scan

  std::vector<std::future<SearchResponse>> flood;
  flood.reserve(kFlood);
  for (std::size_t i = 0; i < kFlood; ++i) {
    flood.push_back(engine.SubmitAsync(PlainRequest(1 + i % 8)));
  }

  // Rejections resolve immediately, before the gate opens: fail-fast is the
  // point. Exactly kFlood - kDepth of them, and with a single producer and
  // a FIFO queue the accepted ones are the first kDepth.
  std::size_t rejected = 0;
  for (std::size_t i = kDepth; i < kFlood; ++i) {
    ASSERT_EQ(flood[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "rejection " << i << " should not wait on the queue";
    const SearchResponse response = flood[i].get();
    EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
    EXPECT_TRUE(response.neighbors.empty());
    ++rejected;
  }
  EXPECT_EQ(rejected, kFlood - kDepth);

  gate.Open();
  EXPECT_TRUE(blocked.get().ok());
  for (std::size_t i = 0; i < kDepth; ++i) {
    const SearchResponse response = flood[i].get();
    EXPECT_TRUE(response.ok()) << response.status.message();
    EXPECT_FALSE(response.neighbors.empty());
  }

  const EngineStatsSnapshot stats = engine.Stats();
  EXPECT_EQ(stats.queries_rejected, kFlood - kDepth);
  EXPECT_EQ(stats.queries_shed, 0u);
}

// Requests whose deadline expires while they wait in the queue are shed
// unexecuted: kDeadlineExceeded, empty + partial response, shed counter.
TEST_F(OverloadTest, QueuedRequestsPastDeadlineAreShed) {
  SearchEngine engine = MakeWedgeableEngine(/*max_queue_depth=*/64);

  Gate gate;
  SearchRequest blocker = PlainRequest(0);
  blocker.options.filter =
      IdFilter::FromPredicate(&Gate::BlockUntilOpen, &gate);
  std::future<SearchResponse> blocked = engine.SubmitAsync(blocker);
  gate.AwaitEntered();

  // A 1us budget resolved at admission: long expired by the time the
  // scheduler unwedges. A no-deadline request queued behind them must still
  // be served -- shedding skips it without consuming its batch slot.
  constexpr std::size_t kDoomed = 3;
  std::vector<std::future<SearchResponse>> doomed;
  for (std::size_t i = 0; i < kDoomed; ++i) {
    SearchRequest request = PlainRequest(1 + i);
    request.options.timeout_us = 1;
    doomed.push_back(engine.SubmitAsync(request));
  }
  std::future<SearchResponse> patient = engine.SubmitAsync(PlainRequest(5));

  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  gate.Open();
  EXPECT_TRUE(blocked.get().ok());

  for (auto& future : doomed) {
    const SearchResponse response = future.get();
    EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(response.partial);
    EXPECT_TRUE(response.neighbors.empty());
  }
  const SearchResponse served = patient.get();
  EXPECT_TRUE(served.ok()) << served.status.message();
  EXPECT_FALSE(served.neighbors.empty());

  const EngineStatsSnapshot stats = engine.Stats();
  EXPECT_EQ(stats.queries_shed, kDoomed);
  EXPECT_EQ(stats.queries_rejected, 0u);
}

// Batch formation is greedy and capped by max_batch: a backlog queued
// behind the wedged scheduler drains as one full batch of max_batch and one
// of the rest, and a lone request afterwards runs as a batch of its own.
// Batching never changes an answer: each equals the synchronous path's at
// the same seed.
TEST_F(OverloadTest, BacklogRunsInGreedyBatchesCappedByMaxBatch) {
  EngineConfig config;
  config.num_threads = 2;
  config.max_batch = 3;
  SearchEngine engine(BuildIndex(data_, 8), config);

  Gate gate;
  SearchRequest blocker = PlainRequest(0);
  blocker.options.filter =
      IdFilter::FromPredicate(&Gate::BlockUntilOpen, &gate);
  std::future<SearchResponse> blocked = engine.SubmitAsync(blocker);
  gate.AwaitEntered();  // the blocker is a batch of one, parked in its scan

  constexpr std::size_t kBacklog = 5;
  std::vector<SearchRequest> backlog;
  std::vector<std::future<SearchResponse>> futures;
  for (std::size_t i = 0; i < kBacklog; ++i) {
    SearchRequest request = PlainRequest(1 + i);
    request.options.seed = 700 + i;
    backlog.push_back(request);
    futures.push_back(engine.SubmitAsync(request));
  }
  gate.Open();
  EXPECT_TRUE(blocked.get().ok());
  std::vector<SearchResponse> answers;
  for (auto& future : futures) answers.push_back(future.get());

  EngineStatsSnapshot stats = engine.Stats();
  EXPECT_EQ(stats.batches, 3u);  // 1 + 3 + 2
  EXPECT_EQ(stats.queries, 1 + kBacklog);

  SearchRequest lone = PlainRequest(6);
  lone.options.seed = 800;
  const SearchResponse lone_answer = engine.SubmitAsync(lone).get();
  stats = engine.Stats();
  EXPECT_EQ(stats.batches, 4u);
  EXPECT_EQ(stats.queries, 2 + kBacklog);

  // The synchronous references run last: they count as batches too.
  for (std::size_t i = 0; i < kBacklog; ++i) {
    ASSERT_TRUE(answers[i].ok()) << answers[i].status.message();
    ExpectSameNeighbors(engine.Search(backlog[i]).neighbors,
                        answers[i].neighbors);
  }
  ASSERT_TRUE(lone_answer.ok()) << lone_answer.status.message();
  ExpectSameNeighbors(engine.Search(lone).neighbors, lone_answer.neighbors);
}

// An already-expired deadline on the synchronous path returns immediately:
// kDeadlineExceeded, partial, zero probes -- but a well-formed response.
TEST_F(OverloadTest, ExpiredDeadlineReturnsPartialEmptyResponse) {
  SearchEngine engine(BuildIndex(data_, 8));

  SearchRequest request = PlainRequest(0);
  request.options.deadline =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  const SearchResponse response = engine.Search(request);
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(response.partial);
  EXPECT_TRUE(response.neighbors.empty());
  EXPECT_EQ(response.stats.lists_probed, 0u);
  EXPECT_EQ(response.shards_failed, 0u);

  const EngineStatsSnapshot stats = engine.Stats();
  EXPECT_GE(stats.deadline_exceeded, 1u);
  EXPECT_GE(stats.partial_responses, 1u);
}

// Bit-safety: arming a deadline that never trips must not change a single
// bit of the results -- the checks may read the clock but never perturb the
// search state. Covers the bare-index path and the engine path.
TEST_F(OverloadTest, GenerousDeadlineIsBitIdenticalToNoDeadline) {
  IvfRabitqIndex index = BuildIndex(data_, 8);

  for (std::size_t qi = 0; qi < 8; ++qi) {
    SearchRequest plain;
    plain.query = queries_.Row(qi);
    plain.options = params_;
    plain.options.seed = 99 + qi;

    SearchRequest budgeted = plain;
    budgeted.options.timeout_us = 60ull * 1000 * 1000;  // one minute

    const SearchResponse a = index.Search(plain);
    const SearchResponse b = index.Search(budgeted);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_FALSE(b.partial);
    ExpectSameNeighbors(a.neighbors, b.neighbors);
  }

  SearchEngine engine(BuildIndex(data_, 8));
  for (std::size_t qi = 0; qi < 8; ++qi) {
    SearchRequest plain = PlainRequest(qi);
    plain.options.seed = 99 + qi;
    SearchRequest budgeted = plain;
    budgeted.options.timeout_us = 60ull * 1000 * 1000;
    const SearchResponse a = engine.Search(plain);
    const SearchResponse b = engine.Search(budgeted);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectSameNeighbors(a.neighbors, b.neighbors);
  }
}

// A deadline tripping mid-scan must degrade, not corrupt: whatever comes
// back is sorted, within k, and drawn from real ids. Run many times with a
// tiny budget so some runs stop after 0 probes and some partway through.
TEST_F(OverloadTest, MidScanDeadlineKeepsResultInvariants) {
  Matrix big = ClusteredData(4000, kDim, 16, 11);
  IvfRabitqIndex index = BuildIndex(big, 32);

  SearchOptions options = params_;
  options.nprobe = 32;
  options.seed = 1234;
  std::vector<Neighbor> reference;
  {
    SearchRequest request;
    request.query = queries_.Row(0);
    request.options = options;
    const SearchResponse full = index.Search(request);
    ASSERT_TRUE(full.ok());
    reference = full.neighbors;
  }

  for (int run = 0; run < 20; ++run) {
    SearchRequest request;
    request.query = queries_.Row(0);
    request.options = options;
    request.options.timeout_us = static_cast<std::uint64_t>(run) * 3;
    request.options.ResolveDeadline(std::chrono::steady_clock::now());
    const SearchResponse response = index.Search(request);

    ASSERT_TRUE(response.ok() ||
                response.status.code() == StatusCode::kDeadlineExceeded)
        << response.status.message();
    EXPECT_LE(response.neighbors.size(), options.k);
    for (std::size_t i = 1; i < response.neighbors.size(); ++i) {
      EXPECT_LE(response.neighbors[i - 1].first, response.neighbors[i].first);
    }
    for (const Neighbor& n : response.neighbors) {
      EXPECT_LT(n.second, big.rows());
    }
    if (response.ok()) {
      // Never tripped: must be the bit-identical full answer.
      EXPECT_FALSE(response.partial);
      ExpectSameNeighbors(reference, response.neighbors);
    } else {
      EXPECT_TRUE(response.partial);
    }
  }
}

// Drain(): already-accepted work is served, later submissions are refused,
// the synchronous path stays usable, and a second drain is a no-op.
TEST_F(OverloadTest, DrainServesAcceptedWorkThenRefusesNew) {
  EngineConfig config;
  config.num_threads = 2;
  config.max_batch = 4;
  SearchEngine engine(BuildIndex(data_, 8), config);

  std::vector<std::future<SearchResponse>> inflight;
  for (std::size_t i = 0; i < 8; ++i) {
    inflight.push_back(engine.SubmitAsync(PlainRequest(i % 8)));
  }
  engine.Drain();
  for (auto& future : inflight) {
    const SearchResponse response = future.get();
    EXPECT_TRUE(response.ok()) << response.status.message();
  }

  const SearchResponse refused = engine.SubmitAsync(PlainRequest(0)).get();
  EXPECT_EQ(refused.status.code(), StatusCode::kFailedPrecondition);

  const SearchResponse sync = engine.Search(PlainRequest(1));
  EXPECT_TRUE(sync.ok()) << sync.status.message();
  EXPECT_FALSE(sync.neighbors.empty());

  engine.Drain();  // idempotent
}

// Drain racing a herd of submitters (the TSan target): every future must
// resolve -- served, rejected at the full queue, or refused post-close --
// and nothing may deadlock or race.
TEST_F(OverloadTest, DrainDuringConcurrentSubmittersResolvesEveryFuture) {
  EngineConfig config;
  config.num_threads = 2;
  config.max_batch = 4;
  config.max_queue_depth = 32;
  SearchEngine engine(BuildIndex(data_, 8), config);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 40;
  std::vector<std::vector<std::future<SearchResponse>>> futures(kThreads);
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([this, &engine, &futures, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        futures[t].push_back(engine.SubmitAsync(PlainRequest((t + i) % 8)));
      }
    });
  }
  engine.Drain();
  for (std::thread& thread : submitters) thread.join();

  std::size_t served = 0;
  for (auto& per_thread : futures) {
    for (auto& future : per_thread) {
      const SearchResponse response = future.get();
      if (response.ok()) {
        ++served;
        EXPECT_FALSE(response.neighbors.empty());
      } else {
        EXPECT_TRUE(response.status.code() == StatusCode::kResourceExhausted ||
                    response.status.code() == StatusCode::kFailedPrecondition)
            << response.status.message();
      }
    }
  }
  // Drain serves whatever was admitted before close; the exact split with
  // the refusals is timing-dependent, but nothing may be lost and every
  // served query is accounted for.
  const EngineStatsSnapshot stats = engine.Stats();
  EXPECT_EQ(stats.queries, served);
}

}  // namespace
}  // namespace rabitq
