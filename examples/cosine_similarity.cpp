// Extension from the paper's conclusion (footnote 8): RaBitQ estimates
// cosine similarity / inner product unbiasedly, because the cosine of two
// vectors IS the inner product of their unit normalizations -- exactly what
// the estimator targets. Part 1 demonstrates the raw estimator on
// unit-normalized "document embeddings"; part 2 retrieves through the
// first-class Metric::kCosine index path (normalization, probe ordering and
// exact re-ranking handled by the index).
//
//   $ ./build/cosine_similarity

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/estimator.h"
#include "core/query.h"
#include "core/rabitq.h"
#include "eval/datasets.h"
#include "index/ivf.h"
#include "linalg/vector_ops.h"
#include "util/prng.h"

int main() {
  using namespace rabitq;

  // Word2Vec-like angular data, already unit-normalized by the generator.
  SyntheticSpec spec;
  spec.name = "doc-embeddings";
  spec.n = 20000;
  spec.dim = 300;
  spec.num_queries = 20;
  spec.kind = DatasetKind::kAngular;
  Matrix base, queries;
  if (Status s = GenerateDataset(spec, &base, &queries); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  const std::size_t dim = spec.dim;

  // Centroid = origin: normalized residual of a unit vector is itself, so
  // the estimated <o, q> *is* the cosine similarity.
  RabitqEncoder encoder;
  if (Status s = encoder.Init(dim, RabitqConfig{}); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  RabitqCodeStore store(encoder.total_bits());
  for (std::size_t i = 0; i < base.rows(); ++i) {
    if (Status s = encoder.EncodeAppend(base.Row(i), nullptr, &store);
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }

  Rng rng(11);
  double total_abs_err = 0.0;
  std::size_t pairs = 0;
  std::size_t top1_hits = 0;
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    QuantizedQuery qq;
    if (Status s = PrepareQuery(encoder, queries.Row(q), nullptr, &rng, &qq);
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    // Estimated cosine = est.ip (both sides unit). Track top-1 retrieval.
    float best_est = -2.0f, best_true = -2.0f;
    std::size_t best_est_id = 0, best_true_id = 0;
    for (std::size_t i = 0; i < store.size(); ++i) {
      const float est_cos = EstimateDistance(qq, store.View(i), 0.0f).ip;
      const float true_cos = Dot(queries.Row(q), base.Row(i), dim);
      total_abs_err += std::abs(est_cos - true_cos);
      ++pairs;
      if (est_cos > best_est) {
        best_est = est_cos;
        best_est_id = i;
      }
      if (true_cos > best_true) {
        best_true = true_cos;
        best_true_id = i;
      }
    }
    if (best_est_id == best_true_id) ++top1_hits;
    if (q < 5) {
      std::printf("query %zu: est top-1 doc %zu (cos~%.3f), true top-1 doc "
                  "%zu (cos=%.3f)\n",
                  q, best_est_id, best_est, best_true_id, best_true);
    }
  }
  std::printf("\nmean |cosine error| = %.4f over %zu pairs "
              "(theory: O(1/sqrt(B)), B=%zu -> ~%.3f)\n",
              total_abs_err / pairs, pairs, encoder.total_bits(),
              1.0 / std::sqrt(static_cast<double>(encoder.total_bits())));
  std::printf("top-1 agreement before re-ranking: %zu / %zu queries\n",
              top1_hits, queries.rows());

  // --- Part 2: the same retrieval through the Metric::kCosine index. ------
  // The index normalizes at ingest and query time itself, so raw (even
  // un-normalized) embeddings are fine; results rank by -cosine.
  IvfRabitqIndex index;
  IvfConfig ivf;
  ivf.num_lists = 64;
  ivf.metric = Metric::kCosine;
  if (Status s = index.Build(base, ivf, RabitqConfig{}); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::size_t index_top1_hits = 0;
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    SearchOptions params;
    params.k = 1;
    params.nprobe = 16;
    params.seed = 100 + q;
    const SearchResponse response =
        index.Search(SearchRequest{queries.Row(q), params});
    if (!response.ok()) {
      std::fprintf(stderr, "%s\n", response.status.ToString().c_str());
      return 1;
    }
    float best_true = -2.0f;
    std::size_t best_true_id = 0;
    for (std::size_t i = 0; i < base.rows(); ++i) {
      const float true_cos = Dot(queries.Row(q), base.Row(i), dim);
      if (true_cos > best_true) {
        best_true = true_cos;
        best_true_id = i;
      }
    }
    if (!response.neighbors.empty() &&
        response.neighbors[0].second == best_true_id) {
      ++index_top1_hits;
    }
  }
  std::printf("Metric::kCosine index (nprobe=16/64, error-bound re-rank): "
              "top-1 agreement %zu / %zu queries\n",
              index_top1_hits, queries.rows());
  return 0;
}
