// Shared plumbing for the figure/table reproduction harness. Every bench
// binary prints the rows/series of one table or figure from the paper's
// evaluation (Section 5 / Appendix F).
//
// Environment knobs (all optional):
//   RABITQ_BENCH_SCALE    dataset size multiplier vs the built-in laptop
//                         defaults (default 1.0; the built-in suite is
//                         already ~15x smaller than the paper's 1M scale).
//   RABITQ_BENCH_QUERIES  cap on queries per dataset (default per-bench).

#ifndef RABITQ_BENCH_BENCH_COMMON_H_
#define RABITQ_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "eval/datasets.h"
#include "linalg/matrix.h"
#include "linalg/vector_ops.h"
#include "util/status.h"

namespace rabitq {
namespace bench {

/// Aborts the binary with a message when a Status is not OK.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "[bench] %s failed: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

inline double EnvScale() {
  const char* value = std::getenv("RABITQ_BENCH_SCALE");
  if (value == nullptr) return 1.0;
  const double parsed = std::atof(value);
  return parsed > 0.0 ? parsed : 1.0;
}

inline std::size_t EnvQueryCap(std::size_t default_cap) {
  const char* value = std::getenv("RABITQ_BENCH_QUERIES");
  if (value == nullptr) return default_cap;
  const long parsed = std::atol(value);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : default_cap;
}

/// "--shards S" from argv (the sharded-sweep benches); `fallback` when the
/// flag is absent or malformed.
inline std::size_t ParseShards(int argc, char** argv, std::size_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--shards") {
      const long parsed = std::atol(argv[i + 1]);
      if (parsed > 0) return static_cast<std::size_t>(parsed);
    }
  }
  return fallback;
}

/// The suite sized for a bench run: the paper's six datasets at roughly
/// N = 9k..18k (scale them up with RABITQ_BENCH_SCALE for deeper runs).
inline std::vector<SyntheticSpec> BenchSuite(std::size_t query_cap) {
  std::vector<SyntheticSpec> suite = PaperSuite(0.15 * EnvScale());
  query_cap = EnvQueryCap(query_cap);
  for (auto& spec : suite) {
    if (spec.num_queries > query_cap) spec.num_queries = query_cap;
  }
  return suite;
}

/// Mean of the rows of `data`.
inline std::vector<float> DatasetCentroid(const Matrix& data) {
  std::vector<float> centroid(data.cols(), 0.0f);
  const float inv = 1.0f / static_cast<float>(data.rows());
  for (std::size_t i = 0; i < data.rows(); ++i) {
    Axpy(inv, data.Row(i), centroid.data(), data.cols());
  }
  return centroid;
}

/// Mean of all entries of a matrix (used to floor relative-error
/// denominators at 1% of the typical squared distance, so near-duplicate
/// synthetic pairs do not dominate the max-error column).
inline double MeanOfMatrix(const Matrix& m) {
  double sum = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) sum += m.data()[i];
  return m.size() > 0 ? sum / static_cast<double>(m.size()) : 0.0;
}

/// Largest divisor of `dim` that is <= `target` (PQ needs M | D).
inline std::size_t LargestDivisorAtMost(std::size_t dim, std::size_t target) {
  for (std::size_t m = std::min(target, dim); m >= 1; --m) {
    if (dim % m == 0) return m;
  }
  return 1;
}

}  // namespace bench
}  // namespace rabitq

#endif  // RABITQ_BENCH_BENCH_COMMON_H_
