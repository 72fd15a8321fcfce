#include "replay.hpp"

#include <memory>
#include <vector>

#include "cluster/ordering.hpp"
#include "cluster/tree.hpp"
#include "hmat/hmatrix.hpp"
#include "hss/build.hpp"
#include "hss/ulv.hpp"
#include "kernel/kernel.hpp"
#include "predict/batch_predictor.hpp"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace

ReplayResult replay_fit(const khss::la::Matrix& train,
                        const khss::la::Matrix& targets,
                        const khss::la::Matrix& test,
                        const khss::krr::KRROptions& opts,
                        bool predictor_in_fit, Trace& trace) {
  namespace k = khss;
  ReplayResult out;
  std::map<std::string, Metric>& m = out.metrics;
  const k::solver::SolverOptions so = opts.solver_options();
  const int n = train.rows();

  k::cluster::ClusterTree tree;
  std::unique_ptr<k::kernel::KernelMatrix> kernel;
  std::unique_ptr<k::hmat::HMatrix> hmat;
  k::hss::HSSMatrix hss;
  std::unique_ptr<k::hss::ULVFactorization> ulv;
  k::la::Matrix weights;  // n x c, permuted order
  std::unique_ptr<k::predict::BatchPredictor> predictor;
  CallMeter extract_meter;
  CallMeter sample_meter;
  long evals_before = 0;

  auto build_predictor = [&] {
    ScopedSpan s(trace, "predict.build");
    predictor = std::make_unique<k::predict::BatchPredictor>(*kernel, weights);
  };

  int fit_id = -1;
  {
    ScopedSpan fit(trace, "fit");
    fit_id = fit.id();
    {
      ScopedSpan s(trace, "cluster.order");
      k::cluster::OrderingOptions copts;
      copts.leaf_size = opts.leaf_size;
      copts.seed = opts.seed;
      copts.sieve = opts.sieve;
      tree = k::cluster::build_cluster_tree(train, opts.ordering, copts);
    }
    {
      ScopedSpan s(trace, "cluster.permute");
      kernel = std::make_unique<k::kernel::KernelMatrix>(
          k::cluster::apply_row_permutation(train, tree.perm()), opts.kernel,
          opts.lambda);
      kernel->set_eval_budget(opts.eval_budget);
      evals_before = kernel->element_evals();
    }
    {
      ScopedSpan s(trace, "hmat.build");
      k::hmat::HOptions hopts = so.hmatrix;
      if (hopts.rtol <= 0.0) hopts.rtol = so.rtol;
      hmat = std::make_unique<k::hmat::HMatrix>(*kernel, tree, hopts);
    }
    {
      ScopedSpan s(trace, "hss.build");
      k::hss::ExtractFn extract = [&](const std::vector<int>& rows,
                                      const std::vector<int>& cols) {
        const Clock::time_point t0 = Clock::now();
        k::la::Matrix block = kernel->extract(rows, cols);
        extract_meter.add(static_cast<long>(rows.size() * cols.size()), t0);
        return block;
      };
      k::hss::SampleFn sample = [&](const k::la::Matrix& r) {
        const Clock::time_point t0 = Clock::now();
        k::la::Matrix product = hmat->multiply(r);
        sample_meter.add(r.cols(), t0);
        return product;
      };
      k::hss::HSSOptions hopts;
      hopts.rtol = so.rtol;
      hopts.init_samples = so.hss_init_samples;
      hopts.max_rank = so.max_rank;
      hopts.symmetric = true;
      hopts.seed = so.seed;
      hss = k::hss::build_hss_randomized(tree, extract, sample, {}, hopts);
      kernel->check_eval_budget();
    }
    {
      ScopedSpan s(trace, "ulv.factor");
      ulv = std::make_unique<k::hss::ULVFactorization>(hss);
    }
    {
      // As the product solves: one single-vector ULV solve per output
      // column (krr::KRRModel::solve), in tree order.
      ScopedSpan s(trace, "ulv.solve");
      const std::vector<int>& perm = tree.perm();
      weights.resize(n, targets.cols());
      k::la::Vector y(static_cast<std::size_t>(n));
      for (int c = 0; c < targets.cols(); ++c) {
        for (int i = 0; i < n; ++i) {
          y[static_cast<std::size_t>(i)] =
              targets(perm[static_cast<std::size_t>(i)], c);
        }
        const k::la::Vector w = ulv->solve(y);
        for (int i = 0; i < n; ++i) {
          weights(i, c) = w[static_cast<std::size_t>(i)];
        }
      }
    }
    if (predictor_in_fit) build_predictor();
  }
  out.fit_clock =
      split_clock(trace.spans()[static_cast<std::size_t>(fit_id)].seconds(),
                  trace.child_seconds(fit_id));

  {
    ScopedSpan score(trace, "score");
    if (!predictor_in_fit) build_predictor();
    ScopedSpan s(trace, "predict.batch");
    predictor->predict_batch(test, out.scores);
  }

  // The extract callback runs on the HSS construction's OpenMP threads,
  // interleaved with its own arithmetic: its wall time is the union of the
  // calls' intervals, its thread-seconds their sum.  What remains of the
  // build's wall when neither callback was running is HSS's own time.
  std::vector<Interval> callbacks = extract_meter.intervals();
  const double extract_s = union_seconds(callbacks);
  const double extract_cpu_s = summed_seconds(callbacks);
  const double sample_s = union_seconds(sample_meter.intervals());
  callbacks.insert(callbacks.end(), sample_meter.intervals().begin(),
                   sample_meter.intervals().end());
  const double callbacks_s = union_seconds(callbacks);
  const double hss_s = trace.seconds("hss.build");
  const double score_s = trace.seconds("predict.batch");
  const long sampled_cols = sample_meter.items();
  const k::predict::PredictStats ps = predictor->stats();

  auto set = [&](const char* name, double value, const char* unit) {
    m[name] = Metric{value, unit};
  };
  const k::hmat::HStats& hs = hmat->stats();
  set("cluster.order_s", trace.seconds("cluster.order"), "s");
  set("cluster.permute_s", trace.seconds("cluster.permute"), "s");
  set("kernel.evals",
      static_cast<double>(kernel->element_evals() - evals_before), "count");
  set("kernel.extract_s", extract_s, "s");
  set("kernel.extract_cpu_s", extract_cpu_s, "s");
  set("kernel.extract_calls", static_cast<double>(extract_meter.calls()),
      "count");
  set("kernel.extract_evals", static_cast<double>(extract_meter.items()),
      "count");
  set("hmat.build_s", trace.seconds("hmat.build"), "s");
  set("hmat.memory_mb", static_cast<double>(hs.memory_bytes) / kMiB, "MB");
  set("hmat.lowrank_blocks", hs.num_lowrank_blocks, "count");
  set("hmat.max_block_rank", hs.max_block_rank, "count");
  set("hmat.sample_s", sample_s, "s");
  set("hmat.sample_calls", static_cast<double>(sample_meter.calls()),
      "count");
  set("hmat.sampled_cols", static_cast<double>(sampled_cols), "count");
  set("hss.build_s", hss_s, "s");
  set("hss.self_s", hss_s - callbacks_s, "s");
  set("hss.samples", hss.samples_used_, "count");
  set("hss.restarts", hss.restarts_, "count");
  set("hss.sample_useful_frac",
      sampled_cols > 0 ? hss.samples_used_ / static_cast<double>(sampled_cols)
                       : 0.0,
      "frac");
  set("hss.max_rank", hss.max_rank(), "count");
  set("hss.memory_mb", static_cast<double>(hss.memory_bytes()) / kMiB, "MB");
  set("ulv.factor_s", trace.seconds("ulv.factor"), "s");
  set("ulv.factor_mb", static_cast<double>(ulv->memory_bytes()) / kMiB, "MB");
  set("ulv.solve_s", trace.seconds("ulv.solve"), "s");
  set("predict.score_s", score_s, "s");
  set("predict.pts_per_s", score_s > 0.0 ? test.rows() / score_s : 0.0,
      "pts/s");
  set("predict.kernel_evals", static_cast<double>(ps.kernel_evals), "count");
  // Computed, not counted: the panel GEMM's 2*m*n*d flops over the wall.
  set("predict.gflops_computed",
      score_s > 0.0 ? 2.0 * test.rows() * predictor->support_size() *
                          test.cols() / score_s * 1e-9
                    : 0.0,
      "GF/s");

  out.max_rank = hss.max_rank();
  out.compressed_bytes = hss.memory_bytes();
  return out;
}

}  // namespace perfbench
