// Image-retrieval scenario: build an IVF+RaBitQ index over image-like
// embeddings (clustered 150-d vectors, mirroring the paper's "Image"
// dataset) and run top-100 searches with the paper's tuning-free
// error-bound re-ranking. Embedding retrieval usually ranks by angle, so
// the distance metric is a flag: cosine (or ip) serves maximum-similarity
// search through the same index and the same error-bound machinery.
//
//   $ ./build/examples/image_search [--metric l2|ip|cosine]

#include <cstdio>
#include <cstring>

#include "eval/datasets.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "index/ivf.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace rabitq;

  Metric metric = Metric::kL2;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metric") == 0 && i + 1 < argc &&
        ParseMetricName(argv[i + 1], &metric)) {
      ++i;
    } else {
      std::fprintf(stderr, "usage: image_search [--metric l2|ip|cosine]\n");
      return 1;
    }
  }

  // --- Synthetic image-embedding workload (see eval/datasets.h). ----------
  SyntheticSpec spec;
  spec.name = "image-embeddings";
  spec.n = 50000;
  spec.dim = 150;
  spec.num_queries = 100;
  spec.kind = DatasetKind::kGaussianMixture;
  spec.num_clusters = 120;
  spec.cluster_spread = 0.7f;
  Matrix base, queries;
  Status status = GenerateDataset(spec, &base, &queries);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("dataset: %zu images, dim %zu, %zu queries\n", base.rows(),
              base.cols(), queries.rows());

  // --- Build the index. -----------------------------------------------------
  IvfRabitqIndex index;
  IvfConfig ivf;
  ivf.num_lists = 256;  // ~4 sqrt(N)
  ivf.metric = metric;
  WallTimer build_timer;
  status = index.Build(base, ivf, RabitqConfig{});
  if (!status.ok()) {
    std::fprintf(stderr, "build failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("index built in %.1fs (%zu lists, %zu-bit codes, metric %s)\n",
              build_timer.ElapsedSeconds(), index.num_lists(),
              index.encoder().total_bits(), MetricName(metric));

  // --- Ground truth for recall reporting (same metric as the index; the
  // mismatch guard below turns a drifted flag into an error, not a silently
  // wrong recall table). ----------------------------------------------------
  GroundTruth gt;
  status = ComputeGroundTruth(base, queries, 100, metric, &gt);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  status = CheckGroundTruthMetric(gt, index.metric());
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  // --- Search at several probe widths. --------------------------------------
  TablePrinter table({"nprobe", "recall@100", "avg dist ratio", "QPS",
                      "reranked/query"});
  Rng rng(7);
  for (const std::size_t nprobe : {4u, 8u, 16u, 32u, 64u}) {
    SearchOptions params;
    params.k = 100;
    params.nprobe = nprobe;
    double recall = 0.0, ratio = 0.0;
    std::size_t reranked = 0;
    WallTimer timer;
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      params.seed = rng.NextU64();
      const rabitq::SearchResponse response =
          index.Search(rabitq::SearchRequest{queries.Row(q), params});
      if (!response.ok()) {
        std::fprintf(stderr, "%s\n", response.status.ToString().c_str());
        return 1;
      }
      recall += RecallAtK(gt, q, response.neighbors, 100);
      ratio += AverageDistanceRatio(gt, q, response.neighbors, 100);
      reranked += response.stats.candidates_reranked;
    }
    const double seconds = timer.ElapsedSeconds();
    table.AddRow({std::to_string(nprobe),
                  TablePrinter::FormatDouble(100.0 * recall / queries.rows(), 2),
                  TablePrinter::FormatDouble(ratio / queries.rows(), 4),
                  TablePrinter::FormatDouble(queries.rows() / seconds, 0),
                  std::to_string(reranked / queries.rows())});
  }
  table.Print();
  std::printf("\nNote: re-ranking is driven by the eps0=1.9 error bound -- "
              "no per-dataset tuning.\n");
  return 0;
}
