// Synthetic dataset suite standing in for the paper's six public datasets
// (Table 3). The environment is offline, so each generator reproduces the
// statistical property that drives the corresponding experimental result:
//
//   kGaussianMixture    SIFT/DEEP/Image-like: anisotropic Gaussian clusters.
//   kCorrelatedMixture  GIST-like: clusters mixed through a random low-rank
//                       map; strong inter-dimension correlation in high D.
//   kHeavyTailed        MSong-like: per-dimension log-normal scales plus
//                       correlated energy -- the regime where 4-bit PQ with
//                       u8-requantized LUTs collapses while RaBitQ's
//                       distribution-free bound holds.
//   kAngular            Word2Vec-like: heavy-tailed directions, rows
//                       normalized to the unit sphere.
//   kUniformSphere      isotropic control (hardest case for clustering).
//
// Queries are fresh draws from the same distribution.

#ifndef RABITQ_EVAL_DATASETS_H_
#define RABITQ_EVAL_DATASETS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "util/status.h"

namespace rabitq {

enum class DatasetKind {
  kGaussianMixture,
  kCorrelatedMixture,
  kHeavyTailed,
  kAngular,
  kUniformSphere,
};

struct SyntheticSpec {
  std::string name;
  std::size_t n = 10000;
  std::size_t dim = 128;
  std::size_t num_queries = 100;
  DatasetKind kind = DatasetKind::kGaussianMixture;
  std::size_t num_clusters = 50;      // mixture components
  float cluster_spread = 1.0f;        // within-cluster std dev scale
  float scale_sigma = 2.0f;           // kHeavyTailed: log-normal sigma
  std::size_t mixing_rank = 32;       // kCorrelatedMixture: rank of the mix
  std::uint64_t seed = 123;
};

/// Generates base and query sets for a spec.
Status GenerateDataset(const SyntheticSpec& spec, Matrix* base,
                       Matrix* queries);

/// The six-dataset suite analogous to paper Table 3, scaled by `scale`
/// (1.0 = default laptop-sized N; the paper's N is ~1M). Dimensionalities
/// match the paper: 420, 128, 256, 300, 960, 150.
std::vector<SyntheticSpec> PaperSuite(double scale = 1.0);

/// Single specs used by the focused verification benches.
SyntheticSpec SiftLikeSpec(std::size_t n, std::size_t num_queries);
SyntheticSpec GistLikeSpec(std::size_t n, std::size_t num_queries);
SyntheticSpec MsongLikeSpec(std::size_t n, std::size_t num_queries);

}  // namespace rabitq

#endif  // RABITQ_EVAL_DATASETS_H_
