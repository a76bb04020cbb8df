// Reproduces Figure 4: QPS vs recall@100 and QPS vs average distance ratio
// for in-memory ANN search. Methods, as in the paper:
//   * IVF-RaBitQ      (error-bound re-ranking, no tuning),
//   * IVF-OPQx4fs     (fixed re-ranking with 500 / 1000 / 2500 candidates),
//   * HNSW            (efSearch sweep; M=16 -> max out-degree 32).
// One row per operating point; single-threaded queries per the paper.
//
// Expected shapes: IVF-RaBitQ dominates IVF-OPQ at every re-rank setting on
// all datasets; on MSong-like data OPQ's recall collapses (and *decreases*
// with more probing); no single OPQ re-rank parameter works everywhere.

#include <cstdio>

#include "bench_common.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "index/hnsw.h"
#include "index/ivf.h"
#include "index/ivf_pq.h"
#include "util/timer.h"

using namespace rabitq;

namespace {

constexpr std::size_t kK = 100;

struct OperatingPoint {
  std::string method;
  std::string param;
  double recall;
  double ratio;
  double qps;
};

template <typename SearchFn>
OperatingPoint MeasureSweepPoint(const std::string& method,
                                 const std::string& param,
                                 const Matrix& queries, const GroundTruth& gt,
                                 const SearchFn& search) {
  double recall = 0.0, ratio = 0.0;
  WallTimer timer;
  std::vector<Neighbor> result;
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    search(q, &result);
    recall += RecallAtK(gt, q, result, kK);
    ratio += AverageDistanceRatio(gt, q, result, kK);
  }
  const double seconds = timer.ElapsedSeconds();
  return OperatingPoint{method, param, recall / queries.rows(),
                        ratio / queries.rows(),
                        queries.rows() / seconds};
}

}  // namespace

int main() {
  std::printf("=== Fig. 4: QPS vs recall@100 / avg distance ratio (ANN) "
              "===\n");
  const std::vector<std::size_t> nprobes = {1, 2, 4, 8, 16, 32, 64};
  const std::vector<std::size_t> efs = {100, 200, 400, 800};

  for (const SyntheticSpec& spec : bench::BenchSuite(15)) {
    Matrix base, queries;
    bench::CheckOk(GenerateDataset(spec, &base, &queries), spec.name.c_str());
    GroundTruth gt;
    bench::CheckOk(ComputeGroundTruth(base, queries, kK, &gt), "ground truth");

    // Keep the paper's occupancy (~250 vectors/list at 1M/4096) rather than
    // its absolute list count: at laptop N a 4*sqrt(N) grid leaves ~25
    // vectors/list, where probe order alone decides recall and the
    // quantizer never matters.
    IvfConfig ivf;
    ivf.num_lists = std::max<std::size_t>(16, base.rows() / 256);

    IvfRabitqIndex rabitq_index;
    bench::CheckOk(rabitq_index.Build(base, ivf, RabitqConfig{}),
                   "IVF-RaBitQ build");

    IvfPqConfig opq_config;
    opq_config.ivf = ivf;
    opq_config.pq.num_segments = bench::LargestDivisorAtMost(spec.dim,
                                                             spec.dim / 2);
    opq_config.pq.bits = 4;
    opq_config.pq.kmeans_iterations = 8;
    opq_config.use_opq = true;
    opq_config.opq_iterations = 3;
    opq_config.opq_max_training_points = 8000;
    IvfPqIndex opq_index;
    bench::CheckOk(opq_index.Build(base, opq_config), "IVF-OPQ build");

    HnswIndex hnsw;
    HnswConfig hnsw_config;
    hnsw_config.m = 16;
    hnsw_config.ef_construction = 200;
    bench::CheckOk(hnsw.Build(base, hnsw_config), "HNSW build");

    std::vector<OperatingPoint> points;
    for (std::size_t nprobe : nprobes) {
      nprobe = std::min(nprobe, rabitq_index.num_lists());
      Rng rng(1);
      SearchOptions params;
      params.k = kK;
      params.nprobe = nprobe;
      points.push_back(MeasureSweepPoint(
          "IVF-RaBitQ", "nprobe=" + std::to_string(nprobe), queries, gt,
          [&](std::size_t q, std::vector<Neighbor>* out) {
            SearchRequest request{queries.Row(q), params};
            request.options.seed = rng.NextU64();
            SearchResponse response = rabitq_index.Search(request);
            bench::CheckOk(response.status, "search");
            *out = std::move(response.neighbors);
          }));
    }
    for (const std::size_t rerank : {500u, 1000u, 2500u}) {
      for (std::size_t nprobe : nprobes) {
        nprobe = std::min(nprobe, opq_index.num_lists());
        IvfPqSearchParams params;
        params.k = kK;
        params.nprobe = nprobe;
        params.rerank_candidates = rerank;
        points.push_back(MeasureSweepPoint(
            "IVF-OPQx4fs", "rerank=" + std::to_string(rerank) +
                               ",nprobe=" + std::to_string(nprobe),
            queries, gt, [&](std::size_t q, std::vector<Neighbor>* out) {
              bench::CheckOk(opq_index.Search(queries.Row(q), params, out),
                             "search");
            }));
      }
    }
    for (const std::size_t ef : efs) {
      points.push_back(MeasureSweepPoint(
          "HNSW", "efSearch=" + std::to_string(ef), queries, gt,
          [&](std::size_t q, std::vector<Neighbor>* out) {
            bench::CheckOk(hnsw.Search(queries.Row(q), kK, ef, out), "search");
          }));
    }

    std::printf("\n--- %s (N=%zu, D=%zu, %zu queries, K=%zu) ---\n",
                spec.name.c_str(), base.rows(), spec.dim, queries.rows(), kK);
    TablePrinter table(
        {"method", "param", "recall@100 (%)", "avg dist ratio", "QPS"});
    for (const OperatingPoint& p : points) {
      table.AddRow({p.method, p.param,
                    TablePrinter::FormatDouble(100 * p.recall, 2),
                    TablePrinter::FormatDouble(p.ratio, 4),
                    TablePrinter::FormatDouble(p.qps, 0)});
    }
    table.Print();
  }
  return 0;
}
