// Tests for Adaptive Cross Approximation and SVD recompression.
#include <gtest/gtest.h>

#include <cmath>

#include "hmat/aca.hpp"
#include "la/blas.hpp"
#include "la/qr.hpp"
#include "util/rng.hpp"
#include "util/threads.hpp"

namespace hm = khss::hmat;
namespace la = khss::la;

namespace {

la::Matrix random_matrix(int m, int n, std::uint64_t seed) {
  khss::util::Rng rng(seed);
  la::Matrix a(m, n);
  rng.fill_normal(a.data(), a.size());
  return a;
}

la::Matrix rank_k_matrix(int m, int n, int k, std::uint64_t seed) {
  return la::matmul(random_matrix(m, k, seed), random_matrix(k, n, seed + 1));
}

hm::EntryFn entry_of(const la::Matrix& a) {
  return [&a](int i, int j) { return a(i, j); };
}

}  // namespace

class ACARanks : public ::testing::TestWithParam<int> {};

TEST_P(ACARanks, RecoversExactLowRank) {
  const int k = GetParam();
  la::Matrix a = rank_k_matrix(60, 45, k, 20 + k);
  hm::ACAOptions opts;
  opts.rtol = 1e-10;
  hm::LowRank lr;
  ASSERT_TRUE(hm::aca(60, 45, entry_of(a), opts, &lr));
  EXPECT_LE(lr.rank(), k + 2);  // ACA may slightly overshoot
  EXPECT_LT(la::diff_f(lr.dense(), a), 1e-7 * (1.0 + la::norm_f(a)));
}

INSTANTIATE_TEST_SUITE_P(Ranks, ACARanks, ::testing::Values(1, 2, 5, 12));

TEST(ACA, SmoothKernelBlockCompresses) {
  // 1/(1+|x-y|) interaction between two separated 1-D clusters: smooth and
  // strongly compressible — the H-matrix use case.
  const int m = 100, n = 120;
  auto entry = [&](int i, int j) {
    const double x = 0.01 * i;        // cluster at [0, 1]
    const double y = 10.0 + 0.01 * j; // cluster at [10, 11.2]
    return 1.0 / (1.0 + std::fabs(x - y));
  };
  hm::ACAOptions opts;
  opts.rtol = 1e-8;
  hm::LowRank lr;
  ASSERT_TRUE(hm::aca(m, n, entry, opts, &lr));
  EXPECT_LT(lr.rank(), 20);

  la::Matrix a(m, n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) a(i, j) = entry(i, j);
  }
  EXPECT_LT(la::diff_f(lr.dense(), a), 1e-6 * la::norm_f(a));
}

TEST(ACA, ToleranceControlsError) {
  la::Matrix a(50, 50);
  // Geometric singular value decay via outer products.
  for (int k = 0; k < 20; ++k) {
    la::Matrix u = random_matrix(50, 1, 100 + k);
    la::Matrix v = random_matrix(50, 1, 200 + k);
    const double s = std::pow(0.4, k);
    for (int i = 0; i < 50; ++i) {
      for (int j = 0; j < 50; ++j) a(i, j) += s * u(i, 0) * v(j, 0);
    }
  }
  double prev_err = 1e300;
  for (double tol : {1e-1, 1e-3, 1e-6}) {
    hm::ACAOptions opts;
    opts.rtol = tol;
    hm::LowRank lr;
    ASSERT_TRUE(hm::aca(50, 50, entry_of(a), opts, &lr));
    const double err = la::diff_f(lr.dense(), a) / la::norm_f(a);
    EXPECT_LT(err, 50.0 * tol);
    EXPECT_LE(err, prev_err + 1e-12);
    prev_err = err;
  }
}

TEST(ACA, FailsGracefullyOnFullRankNoise) {
  // Dense Gaussian noise has no low-rank structure; with a small rank cap
  // ACA must report failure (the H-matrix then stores the block dense).
  la::Matrix a = random_matrix(40, 40, 33);
  hm::ACAOptions opts;
  opts.rtol = 1e-8;
  opts.max_rank = 5;
  hm::LowRank lr;
  EXPECT_FALSE(hm::aca(40, 40, entry_of(a), opts, &lr));
  EXPECT_EQ(lr.rank(), 5);  // partial factors still returned
}

TEST(ACA, ZeroBlockGivesRankZeroOrOne) {
  la::Matrix a(10, 8);
  hm::ACAOptions opts;
  hm::LowRank lr;
  ASSERT_TRUE(hm::aca(10, 8, entry_of(a), opts, &lr));
  EXPECT_LE(lr.rank(), 1);
  EXPECT_LT(la::norm_f(lr.dense()), 1e-12);
}

TEST(ACA, SingleRowAndColumn) {
  la::Matrix a = random_matrix(1, 7, 44);
  hm::LowRank lr;
  ASSERT_TRUE(hm::aca(1, 7, entry_of(a), {}, &lr));
  EXPECT_LT(la::diff_f(lr.dense(), a), 1e-10);

  la::Matrix b = random_matrix(9, 1, 45);
  hm::LowRank lr2;
  ASSERT_TRUE(hm::aca(9, 1, entry_of(b), {}, &lr2));
  EXPECT_LT(la::diff_f(lr2.dense(), b), 1e-10);
}

TEST(Recompress, ReducesInflatedRank) {
  // A rank-3 matrix deliberately represented with rank-10 factors: the extra
  // u columns are random but paired with zero v columns.
  la::Matrix a = random_matrix(30, 3, 50);
  la::Matrix b = random_matrix(25, 3, 51);
  la::Matrix core = la::matmul(a, b, la::Trans::kNo, la::Trans::kYes);

  hm::LowRank lr;
  lr.u = la::Matrix(30, 10);
  lr.v = la::Matrix(25, 10);
  lr.u.set_block(0, 0, a);
  lr.v.set_block(0, 0, b);
  la::Matrix junk = random_matrix(30, 7, 52);
  lr.u.set_block(0, 3, junk);  // v columns 3..9 stay zero

  ASSERT_LT(la::diff_f(lr.dense(), core), 1e-10 * la::norm_f(core));
  hm::recompress(&lr, 1e-10);
  EXPECT_LE(lr.rank(), 4);
  EXPECT_LT(la::diff_f(lr.dense(), core), 1e-7 * la::norm_f(core));
}

TEST(Recompress, NoopOnTightRank) {
  la::Matrix a = rank_k_matrix(20, 20, 2, 60);
  hm::LowRank lr;
  ASSERT_TRUE(hm::aca(20, 20, entry_of(a), {}, &lr));
  const int before = lr.rank();
  hm::recompress(&lr, 1e-12);
  EXPECT_LE(lr.rank(), before);
  EXPECT_LT(la::diff_f(lr.dense(), a), 1e-6 * (1.0 + la::norm_f(a)));
}

namespace {

// U V^T with singular values sigma_i = decay^i exactly (Qu, Qv orthonormal),
// spread over k factor columns by a random orthogonal mix so neither factor
// is orthogonal itself — the shape of an ACA result on a tall block.
hm::LowRank mixed_lowrank(int m, int n, int k, double decay,
                          std::uint64_t seed) {
  la::Matrix qu = la::QRFactor(random_matrix(m, k, seed)).q_thin();
  la::Matrix qv = la::QRFactor(random_matrix(n, k, seed + 1)).q_thin();
  la::Matrix mix = la::QRFactor(random_matrix(k, k, seed + 2)).q_thin();
  double sigma = 1.0;
  for (int j = 0; j < k; ++j, sigma *= decay) {
    for (int i = 0; i < m; ++i) qu(i, j) *= sigma;
  }
  hm::LowRank lr;
  lr.u = la::matmul(qu, mix);
  lr.v = la::matmul(qv, mix);
  return lr;
}

void expect_bits_equal(const la::Matrix& a, const la::Matrix& b) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "entry " << i;
  }
}

struct TallCase {
  int m, n, k;
  double decay, rtol;
};

}  // namespace

// Tall factors with ACA ranks up to the speculative cap: the truncation
// meets rtol in the Frobenius norm and never raises the rank.
TEST(Recompress, TallFactorsMeetToleranceWithoutRankGrowth) {
  const TallCase cases[] = {{5000, 600, 96, 0.8, 1e-2},
                            {5000, 300, 96, 0.8, 1e-6},
                            {2000, 500, 48, 0.7, 1e-4},
                            {700, 2000, 17, 0.5, 1e-2},
                            {3000, 128, 64, 0.95, 1e-1}};
  std::uint64_t seed = 300;
  for (const TallCase& tc : cases) {
    hm::LowRank lr = mixed_lowrank(tc.m, tc.n, tc.k, tc.decay, seed += 10);
    const la::Matrix before = lr.dense();
    hm::recompress(&lr, tc.rtol);
    EXPECT_LE(lr.rank(), tc.k) << tc.m << "x" << tc.n << " k=" << tc.k;
    EXPECT_LT(lr.rank(), tc.k) << "geometric decay leaves room to truncate";
    EXPECT_EQ(lr.u.rows(), tc.m);
    EXPECT_EQ(lr.v.rows(), tc.n);
    EXPECT_LE(la::diff_f(lr.dense(), before), tc.rtol * la::norm_f(before))
        << tc.m << "x" << tc.n << " k=" << tc.k << " rtol=" << tc.rtol;
  }
}

// recompress() is bit-identical at 1 and 4 threads and when it runs inside
// an OpenMP task (how the H build calls it).
TEST(Recompress, BitIdenticalAcrossThreadsAndTasks) {
  const hm::LowRank input = mixed_lowrank(5000, 400, 96, 0.85, 77);
  auto run = [&input](int threads) {
    khss::util::set_threads(threads);
    hm::LowRank lr = input;
    hm::recompress(&lr, 1e-3);
    return lr;
  };
  const hm::LowRank serial = run(1);
  const hm::LowRank parallel = run(4);
  ASSERT_LT(serial.rank(), input.rank());
  expect_bits_equal(serial.u, parallel.u);
  expect_bits_equal(serial.v, parallel.v);

  hm::LowRank in_task = input;
#pragma omp parallel num_threads(4)
  {
#pragma omp single
    {
#pragma omp task shared(in_task)
      hm::recompress(&in_task, 1e-3);
    }
  }
  expect_bits_equal(serial.u, in_task.u);
  expect_bits_equal(serial.v, in_task.v);
  khss::util::set_threads(khss::util::hardware_threads());
}

TEST(LowRank, BytesAccounting) {
  hm::LowRank lr;
  lr.u = la::Matrix(10, 3);
  lr.v = la::Matrix(8, 3);
  EXPECT_EQ(lr.bytes(), (10 * 3 + 8 * 3) * sizeof(double));
  EXPECT_EQ(lr.rank(), 3);
}
