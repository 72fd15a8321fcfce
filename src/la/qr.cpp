#include "la/qr.hpp"

#include <cassert>
#include <cmath>

#include "la/blas.hpp"

namespace khss::la {

namespace {

// Reverse the rows of A in place.
void reverse_rows(Matrix& a) {
  for (int i = 0, j = a.rows() - 1; i < j; ++i, --j) {
    for (int c = 0; c < a.cols(); ++c) std::swap(a(i, c), a(j, c));
  }
}

// Reverse the columns of A in place.
void reverse_cols(Matrix& a) {
  for (int r = 0; r < a.rows(); ++r) {
    for (int i = 0, j = a.cols() - 1; i < j; ++i, --j) {
      std::swap(a(r, i), a(r, j));
    }
  }
}

}  // namespace

QRFactor::QRFactor(Matrix a) : at_(a.transposed()) {
  const int m = rows(), n = cols();
  const int k = m < n ? m : n;
  tau_.assign(k, 0.0);

  for (int j = 0; j < k; ++j) {
    // Build the Householder reflector for column j (row j of at_), entries
    // j..m-1.
    double* vj = at_.row(j);
    double norm = 0.0;
    for (int i = j; i < m; ++i) norm += vj[i] * vj[i];
    norm = std::sqrt(norm);
    if (norm == 0.0) {
      tau_[j] = 0.0;
      continue;
    }
    const double alpha = vj[j] >= 0 ? -norm : norm;
    const double v0 = vj[j] - alpha;
    // Normalize so v(j) = 1; store v(j+1..) past the diagonal.
    for (int i = j + 1; i < m; ++i) vj[i] /= v0;
    tau_[j] = -v0 / alpha;  // = 2 / (v^T v) with v(j) = 1 scaling
    vj[j] = alpha;

    // Apply (I - tau v v^T) to the trailing columns.  Columns are
    // independent (each reads the shared reflector, writes its own column),
    // so the parallel split cannot change any accumulation order.
    const double tj = tau_[j];
#pragma omp parallel for schedule(static) \
    if (static_cast<long>(n - j) * (m - j) > 16384)
    for (int c = j + 1; c < n; ++c) {
      double* ac = at_.row(c);
      double s = ac[j];
      for (int i = j + 1; i < m; ++i) s += vj[i] * ac[i];
      s *= tj;
      ac[j] -= s;
      for (int i = j + 1; i < m; ++i) ac[i] -= s * vj[i];
    }
  }
}

Matrix QRFactor::r() const {
  const int m = rows(), n = cols();
  const int k = m < n ? m : n;
  Matrix out(k, n);
  for (int i = 0; i < k; ++i) {
    for (int j = i; j < n; ++j) out(i, j) = at_(j, i);
  }
  return out;
}

namespace {

// Columns of B per work item of the reflector sweeps below.
constexpr int kApplyCols = 32;

}  // namespace

void QRFactor::apply_reflectors(Matrix& b, bool transpose) const {
  // Each column of B runs the whole reflector chain with the same
  // accumulation order as a column-at-a-time sweep; B is walked by rows so
  // the inner loops run over contiguous column chunks.  Chunks are
  // independent, so the parallel split over them cannot change any bits
  // (tau == 0 reflectors are identity and skipped — semantic, not a perf
  // branch).
  const int m = rows(), nrhs = b.cols();
  const int k = static_cast<int>(tau_.size());
  const int chunks = (nrhs + kApplyCols - 1) / kApplyCols;
#pragma omp parallel for schedule(static) \
    if (chunks > 1 && static_cast<long>(m) * k > 16384)
  for (int ch = 0; ch < chunks; ++ch) {
    const int c0 = ch * kApplyCols;
    const int nc = nrhs - c0 < kApplyCols ? nrhs - c0 : kApplyCols;
    double w[kApplyCols] = {};
    for (int step = 0; step < k; ++step) {
      const int j = transpose ? step : k - 1 - step;
      const double t = tau_[j];
      if (t == 0.0) continue;
      const double* v = at_.row(j);
      double* bj = b.row(j) + c0;
      for (int c = 0; c < nc; ++c) w[c] = bj[c];
      for (int i = j + 1; i < m; ++i) {
        const double vi = v[i];
        const double* bi = b.row(i) + c0;
        for (int c = 0; c < nc; ++c) w[c] += vi * bi[c];
      }
      for (int c = 0; c < nc; ++c) {
        w[c] *= t;
        bj[c] -= w[c];
      }
      for (int i = j + 1; i < m; ++i) {
        const double vi = v[i];
        double* bi = b.row(i) + c0;
        for (int c = 0; c < nc; ++c) bi[c] -= w[c] * vi;
      }
    }
  }
}

void QRFactor::apply_qt(Matrix& b) const {
  // Q^T = H_{k-1} ... H_1 H_0.
  KHSS_REQUIRE(b.rows() == rows(),
               "QRFactor::apply_qt: B has " << b.rows()
                   << " rows; Q is " << rows() << " x " << rows());
  apply_reflectors(b, /*transpose=*/true);
}

void QRFactor::apply_q(Matrix& b) const {
  // Q = H_0 H_1 ... H_{k-1}: reflectors in reverse order.
  KHSS_REQUIRE(b.rows() == rows(),
               "QRFactor::apply_q: B has " << b.rows()
                   << " rows; Q is " << rows() << " x " << rows());
  apply_reflectors(b, /*transpose=*/false);
}

Matrix QRFactor::q_thin() const {
  const int m = rows(), n = cols();
  const int k = m < n ? m : n;
  Matrix q(m, k);
  for (int i = 0; i < k; ++i) q(i, i) = 1.0;
  apply_q(q);
  return q;
}

Matrix QRFactor::q_full() const {
  Matrix q = Matrix::identity(rows());
  apply_q(q);
  return q;
}

QLResult ql_zero_top(const Matrix& u) {
  const int m = u.rows(), r = u.cols();
  KHSS_REQUIRE(m >= r, "la::ql_zero_top: U is " << m << " x " << r
                           << "; needs rows >= cols");

  // Reverse rows and columns, factor with plain QR, then map back:
  //   P_m U P_r = Q R  =>  U = (P_m Q P_m) (P_m R P_r)
  // and P_m R P_r has the [0; L] shape with L lower triangular.
  Matrix w = u;
  reverse_rows(w);
  reverse_cols(w);
  QRFactor qr(std::move(w));

  Matrix qfull = qr.q_full();  // m x m
  // omega = P_m Q^T P_m: transpose then reverse rows and columns.
  Matrix omega = qfull.transposed();
  reverse_rows(omega);
  reverse_cols(omega);

  QLResult out;
  out.omega = std::move(omega);
  // L = bottom-right r x r of P_m R P_r where R is the m x r trapezoid.
  Matrix rfac(m, r);
  {
    Matrix rr = qr.r();  // k x r with k = min(m, r) = r
    for (int i = 0; i < rr.rows(); ++i) {
      for (int j = 0; j < r; ++j) rfac(i, j) = rr(i, j);
    }
  }
  reverse_rows(rfac);
  reverse_cols(rfac);
  out.l = rfac.block(m - r, 0, r, r);
  return out;
}

LQResult lq(const Matrix& a) {
  const int me = a.rows(), m = a.cols();
  KHSS_REQUIRE(me <= m, "la::lq: A is " << me << " x " << m
                            << "; needs rows <= cols");

  // A^T = Q2 R2 (full Q2 m x m, R2 upper-trapezoid m x me)
  // => A = R2^T Q2^T = [L 0] Q with Q = Q2^T, L = top me x me of R2, transposed.
  QRFactor qr(a.transposed());
  LQResult out;
  Matrix r2 = qr.r();  // me x me upper triangular (min(m, me) = me rows)
  out.l = r2.transposed();
  out.q = qr.q_full().transposed();
  return out;
}

double orthogonality_error(const Matrix& q) {
  Matrix g = matmul(q, q, Trans::kYes, Trans::kNo);
  g.shift_diagonal(-1.0);
  return norm_f(g);
}

}  // namespace khss::la
