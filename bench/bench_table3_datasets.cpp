// Reproduces Table 3 (dataset statistics) for the synthetic stand-in suite.
// The dimensionalities and query-set proportions match the paper; sizes are
// scaled to laptop scale (multiply with RABITQ_BENCH_SCALE to grow them).
// Also prints the statistical signature of each generator so the substitution
// of synthetic generators for the public datasets is auditable.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "eval/metrics.h"

using namespace rabitq;

namespace {

const char* KindName(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kGaussianMixture: return "clustered (SIFT/Image-like)";
    case DatasetKind::kCorrelatedMixture: return "low-rank corr. (GIST/DEEP)";
    case DatasetKind::kHeavyTailed: return "heavy-tailed (MSong-like)";
    case DatasetKind::kAngular: return "angular (Word2Vec-like)";
    case DatasetKind::kUniformSphere: return "uniform sphere";
  }
  return "?";
}

}  // namespace

int main() {
  std::printf("=== Table 3: dataset statistics (synthetic stand-ins; paper "
              "sizes ~1M) ===\n\n");
  TablePrinter table({"Dataset", "Size", "D", "Query Size", "Data Type",
                      "var(dim) max/med", "kurtosis"});
  for (const SyntheticSpec& spec : bench::BenchSuite(1000)) {
    Matrix base, queries;
    bench::CheckOk(GenerateDataset(spec, &base, &queries), spec.name.c_str());

    // Per-dimension variance spread and excess kurtosis (signatures of the
    // heavy-tailed generator vs the Gaussian ones).
    std::vector<double> variance(spec.dim, 0.0);
    double kurt_num = 0.0, kurt_den = 0.0;
    for (std::size_t j = 0; j < spec.dim; ++j) {
      double mean = 0.0;
      for (std::size_t i = 0; i < base.rows(); ++i) mean += base.At(i, j);
      mean /= base.rows();
      double m2 = 0.0, m4 = 0.0;
      for (std::size_t i = 0; i < base.rows(); ++i) {
        const double d = base.At(i, j) - mean;
        m2 += d * d;
        m4 += d * d * d * d;
      }
      m2 /= base.rows();
      m4 /= base.rows();
      variance[j] = m2;
      kurt_num += m4;
      kurt_den += m2 * m2;
    }
    std::sort(variance.begin(), variance.end());
    const double spread =
        variance.back() / (variance[spec.dim / 2] + 1e-30);
    const double kurtosis = kurt_num / (kurt_den / spec.dim * spec.dim);

    table.AddRow({spec.name, std::to_string(base.rows()),
                  std::to_string(spec.dim), std::to_string(queries.rows()),
                  KindName(spec.kind),
                  TablePrinter::FormatDouble(spread, 1),
                  TablePrinter::FormatDouble(kurtosis, 1)});
  }
  table.Print();
  std::printf("\nPaper's Table 3 (for reference): MSong 992k/420, SIFT "
              "1M/128, DEEP 1M/256,\nWord2Vec 1M/300, GIST 1M/960, Image "
              "2.34M/150.\n");
  return 0;
}
