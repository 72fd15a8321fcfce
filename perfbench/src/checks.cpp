#include "checks.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "la/blas.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

double op_rel_err(const khss::krr::KRRModel& model, int rows,
                  std::uint64_t seed) {
  const int n = model.n();
  khss::util::Rng rng(seed);
  khss::la::Vector x(static_cast<std::size_t>(n));
  for (double& v : x) v = rng.normal();
  const khss::la::Vector ax_c = model.backend_solver().matvec(x);

  const std::vector<int> sampled = sample_rows(n, rows, seed + 1);
  std::vector<int> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  std::vector<double> approx;
  std::vector<double> exact;
  // Extract in row chunks so the exact rows never hold more than
  // kChunk x n doubles at once.
  constexpr std::size_t kChunk = 32;
  for (std::size_t lo = 0; lo < sampled.size(); lo += kChunk) {
    const std::vector<int> chunk(
        sampled.begin() + static_cast<std::ptrdiff_t>(lo),
        sampled.begin() +
            static_cast<std::ptrdiff_t>(std::min(lo + kChunk, sampled.size())));
    const khss::la::Matrix a = model.kernel().extract(chunk, all);
    for (int r = 0; r < a.rows(); ++r) {
      const double* row = a.row(r);
      double dot = 0.0;
      for (int j = 0; j < n; ++j) {
        dot += row[j] * x[static_cast<std::size_t>(j)];
      }
      exact.push_back(dot);
      approx.push_back(
          ax_c[static_cast<std::size_t>(chunk[static_cast<std::size_t>(r)])]);
    }
  }
  return relative_error(approx, exact);
}

bool bit_identical(const khss::la::Matrix& a, const khss::la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool rows_bit_identical(const khss::la::Matrix& a, int i,
                        const khss::la::Matrix& b, int j) {
  return a.cols() == b.cols() &&
         std::memcmp(a.row(i), b.row(j),
                     static_cast<std::size_t>(a.cols()) * sizeof(double)) == 0;
}

double gemm_gflops() {
  constexpr int kN = 512;
  constexpr int kReps = 9;
  khss::la::Matrix a(kN, kN), b(kN, kN), c(kN, kN);
  khss::util::Rng rng(1);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = rng.normal();
    b.data()[i] = rng.normal();
  }
  khss::la::gemm(1.0, a, khss::la::Trans::kNo, b, khss::la::Trans::kNo, 0.0,
                 c);  // warm-up: packing buffers, thread team
  std::vector<double> rates;
  for (int r = 0; r < kReps; ++r) {
    const Clock::time_point t0 = Clock::now();
    khss::la::gemm(1.0, a, khss::la::Trans::kNo, b, khss::la::Trans::kNo,
                   0.0, c);
    rates.push_back(2.0 * kN * kN * kN / since(t0) * 1e-9);
  }
  return median(rates);
}

}  // namespace perfbench
