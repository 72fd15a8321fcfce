// Race stress harness for the parallel core (DESIGN.md "Correctness
// tooling").  Every test here hammers ONE shared object from many
// std::threads, each of which may itself open OpenMP parallel regions — the
// nesting the serving and solver layers produce in practice.  The tests are
// meaningful in two modes:
//
//   * Plain build: results must be bit-identical to a serial reference
//     (the level-synchronous engines promise thread-count invariance).
//   * KHSS_TSAN=ON build: ThreadSanitizer checks every interleaving's
//     happens-before edges.  Races fixed against this harness: the ULV
//     solve-timing stats (now mutex-published), KernelMatrix::element_evals_
//     (now relaxed-atomic) and the cached KRRModel stats merge (now a
//     by-value snapshot).
//
// Cases named *Stress* run in the stress tier; the rest are fast-tier and
// sized for the push TSan CI job (TSan slows execution ~5-15x).
//
// RaceCanary is a deliberately broken increment loop, gated behind
// KHSS_RACE_CANARY=1: CI runs it expecting TSan to FAIL, proving the job is
// actually able to catch a race (a suppression file that silenced everything
// would pass every test and detect nothing).

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/ordering.hpp"
#include "data/synthetic.hpp"
#include "hmat/hmatrix.hpp"
#include "hodlr/hodlr.hpp"
#include "hss/build.hpp"
#include "hss/ulv.hpp"
#include "kernel/kernel.hpp"
#include "krr/krr.hpp"
#include "la/blas.hpp"
#include "predict/batch_predictor.hpp"
#include "util/rng.hpp"
#include "util/threads.hpp"

namespace cl = khss::cluster;
namespace hd = khss::hodlr;
namespace hs = khss::hss;
namespace kn = khss::kernel;
namespace la = khss::la;

namespace {

constexpr int kThreads = 8;  // std::threads per test, > typical core count

struct Case {
  cl::ClusterTree tree;
  std::unique_ptr<kn::KernelMatrix> kernel;
};

Case make_case(int n, int d, double h, double lambda, std::uint64_t seed) {
  khss::util::Rng rng(seed);
  khss::data::BlobSpec spec;
  spec.n = n;
  spec.dim = d;
  spec.num_classes = 4;
  spec.center_spread = 6.0;
  auto ds = khss::data::make_blobs(spec, rng);

  Case c;
  cl::OrderingOptions copts;
  copts.leaf_size = 16;
  c.tree = cl::build_cluster_tree(ds.points, cl::OrderingMethod::kTwoMeans,
                                  copts);
  la::Matrix permuted = cl::apply_row_permutation(ds.points, c.tree.perm());
  c.kernel = std::make_unique<kn::KernelMatrix>(
      std::move(permuted),
      kn::KernelParams{kn::KernelType::kGaussian, h, 2, 1.0}, lambda);
  return c;
}

la::Vector random_vec(int n, std::uint64_t seed) {
  khss::util::Rng rng(seed);
  la::Vector v(n);
  for (auto& e : v) e = rng.normal();
  return v;
}

la::Matrix random_mat(int r, int c, std::uint64_t seed) {
  khss::util::Rng rng(seed);
  la::Matrix m(r, c);
  rng.fill_normal(m.data(), m.size());
  return m;
}

/// Run `fn(t)` on kThreads std::threads and join them all.
template <typename Fn>
void hammer(Fn fn) {
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(fn, t);
  for (auto& th : threads) th.join();
}

}  // namespace

// Concurrent single- and multi-RHS solves on ONE ULV factorization, with a
// stats() reader in the mix.  Solves are const and read-only on the factor;
// the timing fields they publish were the TSan-found race this pins.
TEST(RaceHarness, ConcurrentULVSolves) {
  Case c = make_case(512, 4, 1.0, 2.0, 11);
  hs::HSSOptions opts;
  opts.rtol = 1e-8;
  hs::HSSMatrix hss = hs::build_hss_from_dense(c.kernel->dense(), c.tree, opts);
  hs::ULVFactorization ulv(hss);

  const la::Vector b = random_vec(512, 21);
  const la::Matrix bm = random_mat(512, 5, 22);
  const la::Vector x_ref = ulv.solve(b);
  const la::Matrix xm_ref = ulv.solve(bm);

  std::vector<int> mismatches(kThreads, 0);
  hammer([&](int t) {
    for (int rep = 0; rep < 4; ++rep) {
      la::Vector x = ulv.solve(b);
      la::Matrix xm = ulv.solve(bm);
      hs::ULVStats st = ulv.stats();  // concurrent snapshot read
      if (st.last_rhs != 1 && st.last_rhs != 5) ++mismatches[t];
      for (int i = 0; i < 512; ++i) {
        if (x[i] != x_ref[i]) ++mismatches[t];
        for (int j = 0; j < 5; ++j) {
          if (xm(i, j) != xm_ref(i, j)) ++mismatches[t];
        }
      }
    }
  });
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

// Concurrent task-DAG factorizations and solves over ONE shared HSS matrix:
// each std::thread constructs its own ULVFactorization — the default
// task-DAG engine opens an OpenMP parallel region with `task depend` chains
// inside every caller — then solves.  The HSS matrix is shared read-only;
// every thread's factor and solution must be bit-identical to the reference.
// Sized below the other harness cases: kThreads nested task-DAG regions are
// the most expensive shape here under TSan (every task spawn/completion is
// a history event), and n=256 already covers a 4-level dependence chain.
TEST(RaceHarness, ConcurrentTaskDagFactorSolve) {
  Case c = make_case(256, 3, 1.0, 2.0, 43);
  hs::HSSOptions opts;
  opts.rtol = 1e-8;
  hs::HSSMatrix hss = hs::build_hss_from_dense(c.kernel->dense(), c.tree, opts);

  const la::Matrix bm = random_mat(256, 4, 44);
  hs::ULVFactorization ref(hss, hs::ULVSchedule::kTaskDag);
  const la::Matrix xm_ref = ref.solve(bm);

  std::vector<int> mismatches(kThreads, 0);
  hammer([&](int t) {
    hs::ULVFactorization ulv(hss, hs::ULVSchedule::kTaskDag);
    la::Matrix xm = ulv.solve(bm);
    for (int i = 0; i < 256; ++i) {
      for (int j = 0; j < 4; ++j) {
        if (xm(i, j) != xm_ref(i, j)) ++mismatches[t];
      }
    }
  });
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

// Concurrent matvec/matmat on one HSS matrix (pure reads; guards against a
// future cache sneaking mutable state into the const path).
TEST(RaceHarness, ConcurrentHSSApply) {
  Case c = make_case(384, 3, 1.2, 1.0, 13);
  hs::HSSOptions opts;
  opts.rtol = 1e-7;
  hs::HSSMatrix hss = hs::build_hss_from_dense(c.kernel->dense(), c.tree, opts);

  const la::Vector v = random_vec(384, 31);
  const la::Matrix m = random_mat(384, 3, 32);
  const la::Vector y_ref = hss.matvec(v);
  const la::Matrix ym_ref = hss.matmat(m);

  std::vector<int> mismatches(kThreads, 0);
  hammer([&](int t) {
    for (int rep = 0; rep < 4; ++rep) {
      la::Vector y = hss.matvec(v);
      la::Matrix ym = hss.matmat(m);
      for (int i = 0; i < 384; ++i) {
        if (y[i] != y_ref[i]) ++mismatches[t];
        for (int j = 0; j < 3; ++j) {
          if (ym(i, j) != ym_ref(i, j)) ++mismatches[t];
        }
      }
    }
  });
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

// Concurrent H-matrix products on one shared operator (the PCG matvec and
// the HSS sampling path): every std::thread opens its own OpenMP team over
// the two tiled phases, with one and several columns.  Each product must be
// bit-identical to the serial reference.
TEST(RaceHarness, ConcurrentHMatrixMultiply) {
  Case c = make_case(768, 3, 1.0, 1.0, 19);
  khss::hmat::HOptions hopts;
  hopts.rtol = 1e-6;
  hopts.dense_block_cutoff = 16;
  const khss::hmat::HMatrix h(*c.kernel, c.tree, hopts);

  const la::Vector v = random_vec(768, 33);
  const la::Matrix m = random_mat(768, 6, 34);
  khss::util::set_threads(1);
  const la::Vector y_ref = h.multiply(v);
  const la::Matrix ym_ref = h.multiply(m);
  khss::util::set_threads(khss::util::hardware_threads());

  std::vector<int> mismatches(kThreads, 0);
  hammer([&](int t) {
    for (int rep = 0; rep < 3; ++rep) {
      const la::Vector y = h.multiply(v);
      const la::Matrix ym = h.multiply(m);
      for (int i = 0; i < 768; ++i) {
        if (y[i] != y_ref[i]) ++mismatches[t];
        for (int j = 0; j < 6; ++j) {
          if (ym(i, j) != ym_ref(i, j)) ++mismatches[t];
        }
      }
    }
  });
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

// Concurrent SMW solves on one factorization.  n = 1536 puts the top-level
// children (768 points) above kSmwTaskPoints (512), so the internal
// `omp task` spawns actually fire inside each caller's region — the nesting
// TSan needs to see.
TEST(RaceHarness, ConcurrentSMWSolves) {
  Case c = make_case(1536, 3, 1.0, 2.0, 17);
  hd::HODLRMatrix m(*c.kernel, c.tree, {});
  hd::SMWFactorization smw(m);

  const la::Vector b = random_vec(1536, 41);
  const la::Vector x_ref = smw.solve(b);

  std::vector<int> mismatches(kThreads, 0);
  hammer([&](int t) {
    for (int rep = 0; rep < 2; ++rep) {
      la::Vector x = smw.solve(b);
      for (int i = 0; i < 1536; ++i) {
        if (x[i] != x_ref[i]) ++mismatches[t];
      }
    }
  });
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

// Concurrent mini-batch streaming through ONE BatchPredictor plus a stats()
// reader — the serving deployment shape.  Counter accumulation is
// relaxed-atomic; scores must be bit-identical to the serial pass.
TEST(RaceHarness, ConcurrentBatchPredictorStreaming) {
  Case c = make_case(400, 4, 1.0, 0.5, 19);
  const la::Matrix weights = random_mat(400, 3, 51);
  khss::predict::BatchPredictor pred(*c.kernel, weights);

  std::vector<la::Matrix> batches;
  for (int t = 0; t < kThreads; ++t) {
    batches.push_back(random_mat(64 + 8 * t, 4, 60 + t));
  }
  std::vector<la::Matrix> refs;
  for (const auto& b : batches) refs.push_back(pred.predict(b));

  std::vector<int> mismatches(kThreads, 0);
  hammer([&](int t) {
    la::Matrix scores;
    for (int rep = 0; rep < 3; ++rep) {
      pred.predict_batch(batches[t], scores);
      khss::predict::PredictStats st = pred.stats();  // concurrent reader
      if (st.points <= 0 || st.kernel_evals <= 0) ++mismatches[t];
      if (!scores.same_shape(refs[t])) {
        ++mismatches[t];
        continue;
      }
      for (int i = 0; i < scores.rows(); ++i) {
        for (int j = 0; j < scores.cols(); ++j) {
          if (scores(i, j) != refs[t](i, j)) ++mismatches[t];
        }
      }
    }
  });
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);

  khss::predict::PredictStats st = pred.stats();
  long expected_points = 0;
  for (const auto& b : batches) expected_points += b.rows();
  // Serial warm-up pass + 3 reps per thread.
  EXPECT_EQ(st.points, expected_points * (1 + 3));
}

// Concurrent bulk operations on one KernelMatrix: dense(), extract() and
// multiply() all bump the element_evals_ profiling counter — the plain `+=`
// in dense() was a TSan-found lost-update race before the counter went
// relaxed-atomic.
TEST(RaceHarness, ConcurrentKernelMatrixCounters) {
  Case c = make_case(256, 3, 1.0, 0.5, 23);
  const kn::KernelMatrix& km = *c.kernel;
  const long evals0 = km.element_evals();

  std::vector<int> rows(32), cols(48);
  for (int i = 0; i < 32; ++i) rows[i] = 3 * i;
  for (int j = 0; j < 48; ++j) cols[j] = 5 * j;
  const la::Matrix x = random_mat(256, 2, 71);

  hammer([&](int t) {
    for (int rep = 0; rep < 2; ++rep) {
      la::Matrix d = km.dense();
      la::Matrix e = km.extract(rows, cols);
      la::Matrix y = km.multiply(x);
      (void)d;
      (void)e;
      (void)y;
      (void)t;
    }
  });

  // Counter semantics under concurrency: atomic, so NO lost updates — the
  // total is exactly the per-call costs summed over all calls.
  const long per_iter = 256L * 256 + 32L * 48 + 256L * 256;
  EXPECT_EQ(km.element_evals() - evals0, kThreads * 2L * per_iter);
}

// Concurrent stats() snapshots on one fitted KRRModel.  The merged view was
// cached in a mutable member (a write race between const readers); it is now
// computed into a by-value snapshot.
TEST(RaceHarness, ConcurrentKRRStatsReaders) {
  khss::util::Rng rng(29);
  khss::data::BlobSpec spec;
  spec.n = 300;
  spec.dim = 3;
  spec.num_classes = 2;
  auto ds = khss::data::make_blobs(spec, rng);

  khss::krr::KRROptions opts;
  opts.backend = khss::solver::SolverBackend::kHSSRandomDense;
  khss::krr::KRRModel model(opts);
  model.fit(ds.points);
  la::Vector y = random_vec(300, 81);
  la::Vector w = model.solve(y);

  std::vector<int> mismatches(kThreads, 0);
  hammer([&](int t) {
    for (int rep = 0; rep < 8; ++rep) {
      khss::krr::KRRStats st = model.stats();
      if (st.compress_seconds < 0.0 || st.cluster_seconds < 0.0) {
        ++mismatches[t];
      }
      la::Vector scores = model.decision_scores(ds.points, w);
      if (static_cast<int>(scores.size()) != 300) ++mismatches[t];
    }
  });
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

// Heavier stress-tier variant: bigger operator, more reps, mixed ULV + HSS
// apply + stats traffic on the same objects at once.
TEST(RaceHarness, MixedWorkloadStress) {
  Case c = make_case(1536, 4, 1.0, 3.0, 37);
  hs::HSSOptions opts;
  opts.rtol = 1e-7;
  hs::HSSMatrix hss = hs::build_hss_from_dense(c.kernel->dense(), c.tree, opts);
  hs::ULVFactorization ulv(hss);

  const la::Vector b = random_vec(1536, 91);
  const la::Matrix bm = random_mat(1536, 4, 92);
  const la::Vector x_ref = ulv.solve(b);
  const la::Matrix y_ref = hss.matmat(bm);

  std::vector<int> mismatches(kThreads, 0);
  hammer([&](int t) {
    for (int rep = 0; rep < 3; ++rep) {
      if (t % 2 == 0) {
        la::Vector x = ulv.solve(b);
        for (int i = 0; i < 1536; ++i) {
          if (x[i] != x_ref[i]) ++mismatches[t];
        }
      } else {
        la::Matrix y = hss.matmat(bm);
        for (int i = 0; i < 1536; ++i) {
          for (int j = 0; j < 4; ++j) {
            if (y(i, j) != y_ref(i, j)) ++mismatches[t];
          }
        }
      }
      (void)ulv.stats();
      (void)c.kernel->element_evals();
    }
  });
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

// Deliberately-racy canary, OFF by default.  CI's TSan job runs this with
// KHSS_RACE_CANARY=1 and asserts the run FAILS — proving the suppression
// file has not silenced real reports and the harness can actually catch a
// race.  Without TSan the test still passes (the data race is benign enough
// in practice that the final EXPECT is made unconditional).
TEST(RaceHarness, RaceCanary) {
  const char* arm = std::getenv("KHSS_RACE_CANARY");
  if (arm == nullptr || std::string(arm) != "1") {
    GTEST_SKIP() << "canary disarmed (set KHSS_RACE_CANARY=1 to arm)";
  }
  long counter = 0;  // plain long, incremented unsynchronized — the race
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < 100000; ++i) counter += 1;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(counter, 0);
}
