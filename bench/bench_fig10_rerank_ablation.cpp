// Reproduces Figure 10 (Appendix F.3): the necessity of re-ranking. For
// each dataset, compares at full probe depth:
//   * IVF-RaBitQ with error-bound re-ranking   (the full method),
//   * IVF-RaBitQ without re-ranking            (rank by estimates),
//   * IVF-OPQx4fs without re-ranking at D bits and 2D bits.
//
// Expected: without re-ranking, recall saturates well below 100% for every
// quantizer (distances of close neighbors are within quantization error);
// RaBitQ-without-rerank still beats OPQ-without-rerank at equal bits.

#include <cstdio>

#include "bench_common.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "index/ivf.h"
#include "index/ivf_pq.h"
#include "util/timer.h"

using namespace rabitq;

int main() {
  std::printf("=== Fig. 10: re-ranking ablation (recall@100 at nprobe in "
              "{8, 32, all}) ===\n");
  const std::size_t k = 100;
  for (const SyntheticSpec& spec : bench::BenchSuite(10)) {
    Matrix base, queries;
    bench::CheckOk(GenerateDataset(spec, &base, &queries), spec.name.c_str());
    GroundTruth gt;
    bench::CheckOk(ComputeGroundTruth(base, queries, k, &gt), "ground truth");

    // Keep the paper's occupancy (~250 vectors/list at 1M/4096) rather than
    // its absolute list count: at laptop N a 4*sqrt(N) grid leaves ~25
    // vectors/list, where probe order alone decides recall and the
    // quantizer never matters.
    IvfConfig ivf;
    ivf.num_lists = std::max<std::size_t>(16, base.rows() / 256);
    IvfRabitqIndex rabitq_index;
    bench::CheckOk(rabitq_index.Build(base, ivf, RabitqConfig{}), "build");

    auto build_opq = [&](std::size_t segments, IvfPqIndex* index) {
      IvfPqConfig config;
      config.ivf = ivf;
      config.pq.num_segments = segments;
      config.pq.bits = 4;
      config.pq.kmeans_iterations = 8;
      config.use_opq = true;
      config.opq_iterations = 3;
      config.opq_max_training_points = 8000;
      bench::CheckOk(index->Build(base, config), "opq build");
    };
    IvfPqIndex opq_d, opq_2d;  // D bits (M=D/4) and 2D bits (M=D/2)
    build_opq(bench::LargestDivisorAtMost(spec.dim, spec.dim / 4), &opq_d);
    build_opq(bench::LargestDivisorAtMost(spec.dim, spec.dim / 2), &opq_2d);

    std::printf("\n--- %s (N=%zu, D=%zu) ---\n", spec.name.c_str(),
                base.rows(), spec.dim);
    TablePrinter table({"method", "nprobe", "recall@100 (%)", "QPS"});
    const std::size_t probes[] = {8, 32, rabitq_index.num_lists()};
    for (const std::size_t nprobe : probes) {
      // RaBitQ with and without re-ranking.
      for (const bool rerank : {true, false}) {
        Rng rng(3);
        SearchOptions params;
        params.k = k;
        params.nprobe = nprobe;
        params.policy =
            rerank ? RerankPolicy::kErrorBound : RerankPolicy::kNone;
        double recall = 0.0;
        WallTimer timer;
        for (std::size_t q = 0; q < queries.rows(); ++q) {
          SearchRequest request{queries.Row(q), params};
          request.options.seed = rng.NextU64();
          const SearchResponse response = rabitq_index.Search(request);
          bench::CheckOk(response.status, "search");
          recall += RecallAtK(gt, q, response.neighbors, k);
        }
        const double seconds = timer.ElapsedSeconds();
        table.AddRow({rerank ? "IVF-RaBitQ (with rerank)"
                             : "IVF-RaBitQ (w/o rerank)",
                      std::to_string(nprobe),
                      TablePrinter::FormatDouble(
                          100 * recall / queries.rows(), 2),
                      TablePrinter::FormatDouble(queries.rows() / seconds, 0)});
      }
      // OPQ without re-ranking at two code lengths.
      struct OpqRow {
        const char* label;
        IvfPqIndex* index;
      };
      for (const OpqRow& row : {OpqRow{"IVF-OPQx4fs D bits, w/o rerank",
                                       &opq_d},
                                OpqRow{"IVF-OPQx4fs 2D bits, w/o rerank",
                                       &opq_2d}}) {
        IvfPqSearchParams params;
        params.k = k;
        params.nprobe = nprobe;
        params.rerank_candidates = 0;
        double recall = 0.0;
        WallTimer timer;
        for (std::size_t q = 0; q < queries.rows(); ++q) {
          std::vector<Neighbor> result;
          bench::CheckOk(row.index->Search(queries.Row(q), params, &result),
                         "search");
          recall += RecallAtK(gt, q, result, k);
        }
        const double seconds = timer.ElapsedSeconds();
        table.AddRow({row.label, std::to_string(nprobe),
                      TablePrinter::FormatDouble(
                          100 * recall / queries.rows(), 2),
                      TablePrinter::FormatDouble(queries.rows() / seconds, 0)});
      }
    }
    table.Print();
  }
  return 0;
}
