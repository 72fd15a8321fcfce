#pragma once
// Measurements and output checks that need the library: the operator error
// of a fitted model, bit-identity of two score matrices, and the GEMM
// reference rate every layer is compared with.

#include <cstdint>

#include "krr/krr.hpp"
#include "la/matrix.hpp"

namespace perfbench {

/// Rows the operator-error estimate samples.
inline constexpr int kOpErrorRows = 256;

/// Row-sampled ||(A_c - A) x|| / ||A x|| of a fitted model, A = K + lambda I
/// in the model's permuted order, x standard Gaussian from `seed`.  A_c x
/// comes from the backend's matvec; the exact rows from kernel().extract
/// over `rows` rows drawn from `seed`.  Rows >= n gives the exact error.
double op_rel_err(const khss::krr::KRRModel& model, int rows,
                  std::uint64_t seed);

/// Bitwise equality of two score matrices (shape and every double).
bool bit_identical(const khss::la::Matrix& a, const khss::la::Matrix& b);

/// Bitwise equality of row `i` of `a` and row `j` of `b`.
bool rows_bit_identical(const khss::la::Matrix& a, int i,
                        const khss::la::Matrix& b, int j);

/// Median GF/s of a fixed 512^3 la::gemm at the current thread count.
double gemm_gflops();

}  // namespace perfbench
