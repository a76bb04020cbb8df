// Helpers shared by the layer-ladder benchmark: the seeded data generator,
// open-loop arrival schedules, order statistics, peak-memory reading, the
// metric report printed as the benchmark's last line, and the in-memory
// span log written by --spans-out.

#ifndef LAYERBENCH_BENCH_UTIL_H_
#define LAYERBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "util/prng.h"

namespace layerbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Gaussian blobs (unit variance) around `clusters` random centers drawn
/// with standard deviation 8 -- the generator every bench in the repo uses.
inline rabitq::Matrix Clustered(std::size_t n, std::size_t dim,
                                std::size_t clusters, std::uint64_t seed) {
  rabitq::Rng rng(seed);
  rabitq::Matrix centers(clusters, dim);
  for (std::size_t i = 0; i < centers.size(); ++i) {
    centers.data()[i] = static_cast<float>(rng.Gaussian()) * 8.0f;
  }
  rabitq::Matrix data(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = rng.UniformInt(clusters);
    for (std::size_t j = 0; j < dim; ++j) {
      data.At(i, j) = centers.At(c, j) + static_cast<float>(rng.Gaussian());
    }
  }
  return data;
}

/// Rows [begin, begin + count) of `m` as a new matrix.
inline rabitq::Matrix RowSlice(const rabitq::Matrix& m, std::size_t begin,
                               std::size_t count) {
  rabitq::Matrix out(count, m.cols());
  std::copy_n(m.Row(begin), count * m.cols(), out.data());
  return out;
}

/// Arrival offsets in seconds of a Poisson process at `rate` per second
/// over [0, duration).
inline std::vector<double> PoissonSchedule(double rate, double duration,
                                           std::uint64_t seed) {
  rabitq::Rng rng(seed);
  std::vector<double> at;
  at.reserve(static_cast<std::size_t>(rate * duration * 1.1) + 16);
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.UniformDouble()) / rate;
    if (t >= duration) break;
    at.push_back(t);
  }
  return at;
}

/// Nearest-rank quantile; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  return v[idx];
}

/// Median, over `slices` consecutive equal-count slices of the time-ordered
/// sample `v`, of each slice's q-quantile. A stall confined to a minority of
/// the window moves the result by at most one slice rank, where it can move
/// a whole-window p99 arbitrarily.
inline double SlicedQuantile(const std::vector<double>& v, double q,
                             std::size_t slices) {
  if (v.size() < slices) return Quantile(v, q);
  std::vector<double> per_slice;
  for (std::size_t s = 0; s < slices; ++s) {
    per_slice.push_back(Quantile(
        std::vector<double>(v.begin() + v.size() * s / slices,
                            v.begin() + v.size() * (s + 1) / slices),
        q));
  }
  return Quantile(per_slice, 0.5);
}

/// Peak resident set size (VmHWM) in MiB; 0 when /proc is unavailable.
inline double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

/// Metrics and run details, printed as two JSON lines: a detail object
/// (sample counts, check outcomes) and, last, the result object the
/// benchmark contract reads.
class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      Fail("metric " + name + " is not finite");
      value = 0.0;
    }
    metrics_.push_back({name, value, unit});
  }
  void Detail(const std::string& key, double value) {
    details_.push_back({key, value, ""});
  }
  /// Records a failed correctness check (the run exits non-zero).
  void Fail(const std::string& why) {
    std::fprintf(stderr, "[layerbench] check failed: %s\n", why.c_str());
    correct_ = false;
  }
  /// Fails unless `ok`.
  void Check(bool ok, const std::string& why) {
    if (!ok) Fail(why);
  }
  bool correct() const { return correct_; }

  void Print(std::size_t attempted, std::size_t failed) const {
    std::string detail = "{\"detail\": {";
    for (std::size_t i = 0; i < details_.size(); ++i) {
      detail += (i ? ", \"" : "\"") + details_[i].name +
                "\": " + Number(details_[i].value);
    }
    std::printf("%s}}\n", detail.c_str());
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " +
             Number(metrics_[i].value) + ", \"unit\": \"" + metrics_[i].unit +
             "\"}";
    }
    std::printf("%s}}\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  static std::string Number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }
  std::vector<Entry> metrics_;
  std::vector<Entry> details_;
  bool correct_ = true;
};

/// In-memory spans around the benchmark's calls into each layer. A span
/// with start_ns < 0 carries only a duration: the engine reports per-stage
/// durations, not timestamps, so its stage spans are children without a
/// position. A layer's self time is its span minus its children.
class SpanLog {
 public:
  static constexpr std::size_t kMaxSpans = 200000;

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// Appends a span and returns its index (the parent handle of children),
  /// or -1 once the log is full.
  std::int64_t Add(const char* name, std::uint64_t id, std::int64_t parent,
                   Clock::time_point start, Clock::time_point end) {
    return Push({name, id, parent,
                 std::chrono::duration_cast<std::chrono::nanoseconds>(
                     start - origin_).count(),
                 std::chrono::duration_cast<std::chrono::nanoseconds>(
                     end - start).count()});
  }
  std::int64_t AddDuration(const char* name, std::uint64_t id,
                           std::int64_t parent, std::uint64_t dur_ns) {
    return Push({name, id, parent, -1, static_cast<std::int64_t>(dur_ns)});
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"id\": %llu, \"parent\": %lld, "
                   "\"start_ns\": %lld, \"dur_ns\": %lld}\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.dur_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::int64_t parent;
    std::int64_t start_ns;
    std::int64_t dur_ns;
  };
  std::int64_t Push(const Span& s) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (spans_.size() >= kMaxSpans) return -1;
    spans_.push_back(s);
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  Clock::time_point origin_;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace layerbench

#endif  // LAYERBENCH_BENCH_UTIL_H_
