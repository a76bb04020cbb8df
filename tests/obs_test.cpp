// Unit tests for the obs layer: lock-free counters/histograms (exactness
// under contention), the geometric bucket layout and interpolated quantiles
// (the fix for the old upper-edge overestimate), deterministic trace
// sampling, the metrics registry contract, and the JSON/Prometheus exports.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rabitq {
namespace obs {
namespace {

// ---------------------------------------------------------------- counters

TEST(ObsCounterTest, MultiThreadedIncrementsAreExact) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& t : threads) t.join();
  // Striped relaxed adds must not lose a single increment: the total is
  // exact, not approximate.
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(ObsCounterTest, AddAccumulates) {
  Counter counter;
  counter.Add(3);
  counter.Add(39);
  EXPECT_EQ(counter.Value(), 42u);
}

TEST(ObsFloatCounterTest, MultiThreadedSumsAreExact) {
  FloatCounter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      // 0.5 is exactly representable, so per-stripe partial sums are exact
      // and the cross-stripe total has no rounding slack to hide a lost add.
      for (int i = 0; i < kPerThread; ++i) counter.Add(0.5);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(counter.Value(), 0.5 * kThreads * kPerThread);
  counter.Reset();
  EXPECT_DOUBLE_EQ(counter.Value(), 0.0);
}

TEST(ObsGaugeTest, LastWriteWins) {
  Gauge gauge;
  gauge.Set(1.5);
  gauge.Set(-2.0);
  EXPECT_DOUBLE_EQ(gauge.Value(), -2.0);
  gauge.Reset();
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
}

// ------------------------------------------------------------- bucket math

TEST(ObsBucketTest, GeometricLayout) {
  EXPECT_EQ(BucketIndex(0.0), 0);
  EXPECT_EQ(BucketIndex(0.5), 0);
  EXPECT_EQ(BucketIndex(1.0), 0);
  // 2^(6/4) = 2.828.. <= 3 < 3.363.. = 2^(7/4)  ->  bucket 6.
  EXPECT_EQ(BucketIndex(3.0), 6);
  EXPECT_EQ(BucketIndex(1e12), kNumBuckets - 1);
  EXPECT_DOUBLE_EQ(BucketLower(0), 0.0);
  EXPECT_DOUBLE_EQ(BucketUpper(0), std::exp2(0.25));
  EXPECT_DOUBLE_EQ(BucketLower(6), std::exp2(6 / 4.0));
  EXPECT_DOUBLE_EQ(BucketUpper(6), std::exp2(7 / 4.0));
  // Adjacent buckets tile: upper(i) == lower(i+1).
  for (int i = 1; i + 1 < kNumBuckets; ++i) {
    EXPECT_DOUBLE_EQ(BucketUpper(i), BucketLower(i + 1));
  }
}

TEST(ObsBucketTest, EmptyQuantileIsZero) {
  std::uint64_t buckets[kNumBuckets] = {};
  EXPECT_DOUBLE_EQ(BucketQuantile(buckets, 0, 0.0, 0.5), 0.0);
}

// Pinned expectation for the interpolated quantile: 3.0 and 3.2 both land
// in bucket 6, so the median interpolates halfway into [2^1.5, 2^1.75).
TEST(ObsBucketTest, QuantileInterpolatesWithinBucket) {
  Histogram hist;
  hist.Record(3.0);
  hist.Record(3.2);
  const HistogramSnapshot snap = hist.Snapshot();
  const double lower = std::exp2(6 / 4.0);
  const double upper = std::exp2(7 / 4.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), lower + 0.5 * (upper - lower));
  // The top quantile interpolates to the bucket's upper edge but is clamped
  // to the recorded maximum.
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 3.2);
}

// Regression for the old upper-edge reporting: a single sample must report
// itself (clamped to max), not its bucket's upper edge (1024 for 1000).
TEST(ObsBucketTest, SingleSampleQuantileClampsToMax) {
  Histogram hist;
  hist.Record(1000.0);
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 1000.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 1000.0);
}

TEST(ObsBucketTest, UniformMedianIsAccurate) {
  Histogram hist;
  for (int v = 1; v <= 1000; ++v) hist.Record(static_cast<double>(v));
  const double p50 = hist.Snapshot().Quantile(0.50);
  // Interpolation keeps the error well under the 19% bucket width; the old
  // upper-edge rule would sit at the far edge of the median's bucket.
  EXPECT_NEAR(p50, 500.0, 0.05 * 500.0);
}

// --------------------------------------------------------------- histogram

TEST(ObsHistogramTest, ConcurrentRecordsAreExact) {
  Histogram hist;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record(static_cast<double>(t + 1));  // integral: sums are exact
      }
    });
  }
  for (auto& t : threads) t.join();
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  double expected_sum = 0.0;
  for (int t = 0; t < kThreads; ++t) expected_sum += (t + 1) * kPerThread;
  EXPECT_DOUBLE_EQ(snap.sum, expected_sum);
  EXPECT_DOUBLE_EQ(snap.max, static_cast<double>(kThreads));
}

TEST(ObsHistogramTest, MergeIsAssociative) {
  Histogram ha, hb, hc;
  for (int v = 1; v <= 10; ++v) ha.Record(static_cast<double>(v));
  for (int v = 5; v <= 200; v += 5) hb.Record(static_cast<double>(v));
  hc.Record(10000.0);
  const HistogramSnapshot a = ha.Snapshot();
  const HistogramSnapshot b = hb.Snapshot();
  const HistogramSnapshot c = hc.Snapshot();

  HistogramSnapshot left = a;   // (a + b) + c
  left.Merge(b);
  left.Merge(c);
  HistogramSnapshot bc = b;     // a + (b + c)
  bc.Merge(c);
  HistogramSnapshot right = a;
  right.Merge(bc);

  for (int i = 0; i < kNumBuckets; ++i) {
    ASSERT_EQ(left.buckets[i], right.buckets[i]) << "bucket " << i;
  }
  EXPECT_EQ(left.count, right.count);
  // Integral recordings: double sums are exact, so reassociation is too.
  EXPECT_DOUBLE_EQ(left.sum, right.sum);
  EXPECT_DOUBLE_EQ(left.max, right.max);
  EXPECT_EQ(left.count, a.count + b.count + c.count);
}

// ---------------------------------------------------------------- registry

TEST(ObsRegistryTest, SameNameReturnsSameObject) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("requests", "help");
  Counter* b = registry.GetCounter("requests");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
  a->Add(7);
  EXPECT_EQ(b->Value(), 7u);
}

TEST(ObsRegistryTest, KindMismatchReturnsNull) {
  MetricsRegistry registry;
  ASSERT_NE(registry.GetCounter("metric"), nullptr);
  EXPECT_EQ(registry.GetGauge("metric"), nullptr);
  EXPECT_EQ(registry.GetHistogram("metric"), nullptr);
  EXPECT_EQ(registry.GetFloatCounter("metric"), nullptr);
}

TEST(ObsRegistryTest, SnapshotAndReset) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Add(5);
  registry.GetFloatCounter("f")->Add(1.25);
  registry.GetGauge("g")->Set(3.0);
  registry.GetHistogram("h")->Record(10.0);

  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.metrics.size(), 4u);
  EXPECT_GE(snap.window_seconds, 0.0);
  const MetricValue* c = snap.Find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind, MetricKind::kCounter);
  EXPECT_EQ(c->u64, 5u);
  EXPECT_DOUBLE_EQ(c->value, 5.0);
  EXPECT_DOUBLE_EQ(snap.Find("f")->value, 1.25);
  EXPECT_DOUBLE_EQ(snap.Find("g")->value, 3.0);
  EXPECT_EQ(snap.Find("h")->hist.count, 1u);
  EXPECT_EQ(snap.Find("missing"), nullptr);

  registry.Reset();
  snap = registry.Snapshot();
  EXPECT_EQ(snap.Find("c")->u64, 0u);
  EXPECT_DOUBLE_EQ(snap.Find("f")->value, 0.0);
  EXPECT_DOUBLE_EQ(snap.Find("g")->value, 0.0);
  EXPECT_EQ(snap.Find("h")->hist.count, 0u);
}

// ---------------------------------------------------------------- sampling

TEST(ObsSampleTest, PeriodZeroAndOne) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    EXPECT_FALSE(SampleTrace(seed, 0));
    EXPECT_TRUE(SampleTrace(seed, 1));
  }
}

TEST(ObsSampleTest, DeterministicPerSeed) {
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    EXPECT_EQ(SampleTrace(seed, 16), SampleTrace(seed, 16));
  }
}

TEST(ObsSampleTest, SamplesAtRoughlyOneOverPeriod) {
  constexpr std::uint32_t kPeriod = 16;
  constexpr std::uint64_t kSeeds = 10000;
  std::uint64_t sampled = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    sampled += SampleTrace(seed, kPeriod);
  }
  // Expectation 625; the mixed stream should land comfortably in a wide
  // band around it (this also catches a degenerate always/never sampler).
  EXPECT_GT(sampled, 450u);
  EXPECT_LT(sampled, 800u);
}

// ------------------------------------------------------------------ export

TEST(ObsExportTest, PrometheusTextFormat) {
  MetricsRegistry registry;
  registry.GetCounter("rabitq_queries_total", "Queries served")->Add(3);
  registry.GetGauge("rabitq_live_vectors")->Set(42.0);
  Histogram* hist = registry.GetHistogram("rabitq_query_latency_us");
  hist->Record(3.0);
  hist->Record(3.0);
  hist->Record(100.0);

  const std::string text = ExportPrometheus(registry.Snapshot());
  EXPECT_NE(text.find("# HELP rabitq_queries_total Queries served\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE rabitq_queries_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("rabitq_queries_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rabitq_live_vectors gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("rabitq_live_vectors 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rabitq_query_latency_us histogram\n"),
            std::string::npos);
  // Cumulative bucket counts: 2 at the 3.0-bucket edge, 3 at +Inf.
  EXPECT_NE(text.find("} 2\n"), std::string::npos);
  EXPECT_NE(text.find("rabitq_query_latency_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("rabitq_query_latency_us_sum 106\n"),
            std::string::npos);
  EXPECT_NE(text.find("rabitq_query_latency_us_count 3\n"),
            std::string::npos);
}

TEST(ObsExportTest, JsonShape) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Add(9);
  registry.GetFloatCounter("f")->Add(0.5);
  registry.GetGauge("g")->Set(-1.5);
  registry.GetHistogram("h")->Record(2.0);

  const std::string json = ExportJson(registry.Snapshot());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"window_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"c\":9"), std::string::npos);
  EXPECT_NE(json.find("\"f\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{\"g\":-1.5}"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{\"h\":{\"count\":1,"),
            std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace rabitq
