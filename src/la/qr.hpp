#pragma once
// Householder orthogonal factorizations: QR, and the QL / LQ variants the
// ULV factorization needs (QL introduces zeros at the *top* of the U basis,
// LQ triangularizes eliminated rows from the left).

#include <vector>

#include "la/matrix.hpp"

namespace khss::la {

/// Compact Householder QR of an m x n matrix (no pivoting).
/// A = Q R with Q m x m orthogonal and R m x n upper-trapezoidal.
class QRFactor {
 public:
  /// Factor A (copied).
  explicit QRFactor(Matrix a);

  int rows() const { return at_.cols(); }
  int cols() const { return at_.rows(); }

  /// R as an explicit min(m,n) x n upper-triangular matrix.
  Matrix r() const;

  /// Thin Q: m x min(m,n) with orthonormal columns.
  Matrix q_thin() const;

  /// Full Q: m x m orthogonal.
  Matrix q_full() const;

  /// B <- Q^T B (B has m rows).
  void apply_qt(Matrix& b) const;

  /// B <- Q B (B has m rows).  Applying Q to [C; 0] yields Q_thin C without
  /// forming Q_thin.
  void apply_q(Matrix& b) const;

 private:
  // B <- Q^T B (transpose) or B <- Q B.
  void apply_reflectors(Matrix& b, bool transpose) const;

  // A^T, factored in place (n x m): row j holds column j of the factored
  // A — R(0..j, j) in its first j+1 entries and Householder vector j past
  // the diagonal — so reflectors and trailing columns are contiguous.
  Matrix at_;
  std::vector<double> tau_;  // reflector coefficients
};

/// QL-style factorization used by ULV elimination:
/// returns orthogonal Omega (m x m) and lower-triangular L (r x r) such that
///   Omega * U = [0; L]   (zeros in the first m - r rows).
/// Requires m >= r.  Implemented by reversing rows/columns and running QR.
struct QLResult {
  Matrix omega;  // m x m orthogonal
  Matrix l;      // r x r lower triangular
};
QLResult ql_zero_top(const Matrix& u);

/// LQ factorization of a wide matrix A (me x m, me <= m):
///   A = [L 0] * Q   with L (me x me) lower triangular, Q (m x m) orthogonal.
struct LQResult {
  Matrix l;  // me x me lower triangular
  Matrix q;  // m x m orthogonal
};
LQResult lq(const Matrix& a);

/// Orthonormality defect || Q^T Q - I ||_F, for tests.
double orthogonality_error(const Matrix& q);

}  // namespace khss::la
