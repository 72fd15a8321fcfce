#pragma once
// The traced replay of the fit and score paths.  It calls the library's
// public layer functions in the order krr::KRRModel::fit and its hss-rand-h
// backend call them:
//
//   cluster::build_cluster_tree
//   cluster::apply_row_permutation + kernel::KernelMatrix
//   hmat::HMatrix
//   hss::build_hss_randomized (extract and sample wrapped by CallMeters)
//   hss::ULVFactorization, then one solve per output column
//   predict::BatchPredictor::predict_batch
//
// with one span around each call.  Its results must equal the untraced
// product path's (the replica check) for the per-layer numbers to describe
// the run the end-to-end metrics measured.

#include <map>
#include <string>

#include "krr/krr.hpp"
#include "la/matrix.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct Metric {
  double value = 0.0;
  const char* unit = "";
};

struct ReplayResult {
  /// Per-layer metrics by BENCHMARK.json name.
  std::map<std::string, Metric> metrics;
  /// The fit span (ordering through solve) and its split into layers.
  ClockSplit fit_clock;
  int max_rank = 0;
  std::size_t compressed_bytes = 0;
  khss::la::Matrix scores;  // test points x outputs
};

/// Replay a fit of `train` against `targets` (n x c, +-1, original order)
/// with `opts` (hss-rand-h backend), then score `test` in one batch.
/// `predictor_in_fit` puts predictor construction inside the fit span, as
/// krr::OneVsAllKRR::fit does; krr::KRRClassifier builds it at score time.
ReplayResult replay_fit(const khss::la::Matrix& train,
                        const khss::la::Matrix& targets,
                        const khss::la::Matrix& test,
                        const khss::krr::KRROptions& opts,
                        bool predictor_in_fit, Trace& trace);

}  // namespace perfbench
