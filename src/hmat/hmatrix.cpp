#include "hmat/hmatrix.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "la/gemm_kernel.hpp"
#include "util/contracts.hpp"
#include "util/timer.hpp"

namespace khss::hmat {

namespace {

double centroid_distance(const cluster::ClusterNode& a,
                         const cluster::ClusterNode& b) {
  double s = 0.0;
  for (std::size_t j = 0; j < a.centroid.size(); ++j) {
    const double d = a.centroid[j] - b.centroid[j];
    s += d * d;
  }
  return std::sqrt(s);
}

// Strong admissibility on ball summaries:
//   min(diam_a, diam_b) <= eta * dist(a, b),  dist = ||c_a-c_b|| - r_a - r_b.
bool admissible(const cluster::ClusterNode& a, const cluster::ClusterNode& b,
                double eta) {
  const double dist = centroid_distance(a, b) - a.radius - b.radius;
  if (dist <= 0.0) return false;
  const double diam = 2.0 * std::min(a.radius, b.radius);
  return diam <= eta * dist;
}

struct BuildCtx {
  const kernel::KernelMatrix& kernel;
  const cluster::ClusterTree& tree;
  const HOptions& opts;
  std::vector<HBlock>* blocks;
};

void emit_dense(BuildCtx& ctx, const cluster::ClusterNode& a,
                const cluster::ClusterNode& b) {
  HBlock blk;
  blk.row_lo = a.lo;
  blk.row_hi = a.hi;
  blk.col_lo = b.lo;
  blk.col_hi = b.hi;
  blk.low_rank = false;
  std::vector<int> rows(a.size()), cols(b.size());
  for (int i = 0; i < a.size(); ++i) rows[i] = a.lo + i;
  for (int j = 0; j < b.size(); ++j) cols[j] = b.lo + j;
  blk.dense = ctx.kernel.extract(rows, cols);
#pragma omp critical(hmat_blocks)
  ctx.blocks->push_back(std::move(blk));
}

void build_rec(BuildCtx& ctx, int na, int nb) {
  const auto& a = ctx.tree.node(na);
  const auto& b = ctx.tree.node(nb);

  const bool disjoint = na != nb;
  const bool strong = disjoint && admissible(a, b, ctx.opts.eta);
  // Speculative path: large off-diagonal block that failed the geometric
  // test; bounded-rank ACA decides whether it is low-rank anyway.
  const bool speculate =
      disjoint && !strong && ctx.opts.speculative &&
      std::min(a.size(), b.size()) >= 2 * ctx.opts.dense_block_cutoff;

  if (strong || speculate) {
    // Index ranges of off-diagonal blocks are disjoint by construction (the
    // recursion only keeps a == b on the diagonal), so the lambda shift
    // never leaks into low-rank factors.
    EntryFn entry = [&ctx, &a, &b](int i, int j) {
      return ctx.kernel.entry(a.lo + i, b.lo + j);
    };
    ACAOptions aca_opts;
    aca_opts.rtol = ctx.opts.rtol;
    aca_opts.max_rank = ctx.opts.max_rank;
    if (speculate) {
      const int half = std::min(a.size(), b.size()) / 2;
      aca_opts.max_rank = std::min(ctx.opts.speculative_rank_cap,
                                   std::max(1, half));
    }
    LowRank lr;
    if (aca(a.size(), b.size(), entry, aca_opts, &lr)) {
      if (ctx.opts.recompress && lr.rank() > 1) {
        recompress(&lr, ctx.opts.rtol);
      }
      HBlock blk;
      blk.row_lo = a.lo;
      blk.row_hi = a.hi;
      blk.col_lo = b.lo;
      blk.col_hi = b.hi;
      blk.low_rank = true;
      blk.lr = std::move(lr);
#pragma omp critical(hmat_blocks)
      ctx.blocks->push_back(std::move(blk));
      return;
    }
    // ACA hit the rank cap: fall through to subdivision (or dense when the
    // block cannot be split further).
  }

  const bool small = std::max(a.size(), b.size()) <= ctx.opts.dense_block_cutoff;
  if ((a.is_leaf() && b.is_leaf()) || small) {
    emit_dense(ctx, a, b);
    return;
  }

  // Subdivide whichever sides can be subdivided.
  const int as[2] = {a.is_leaf() ? na : a.left, a.is_leaf() ? -1 : a.right};
  const int bs[2] = {b.is_leaf() ? nb : b.left, b.is_leaf() ? -1 : b.right};
  for (int ia = 0; ia < 2; ++ia) {
    if (as[ia] < 0) continue;
    for (int ib = 0; ib < 2; ++ib) {
      if (bs[ib] < 0) continue;
      const int ca = as[ia], cb = bs[ib];
      const long work = static_cast<long>(ctx.tree.node(ca).size()) *
                        ctx.tree.node(cb).size();
#pragma omp task default(shared) if (work > 16384)
      build_rec(ctx, ca, cb);
    }
  }
#pragma omp taskwait
}

}  // namespace

HMatrix::HMatrix(const kernel::KernelMatrix& kernel,
                 const cluster::ClusterTree& tree, const HOptions& opts) {
  KHSS_REQUIRE(kernel.n() == tree.num_points(),
               "HMatrix: kernel has " << kernel.n() << " points but tree has "
                                      << tree.num_points());
  n_ = kernel.n();
  lambda_ = kernel.lambda();
  build(kernel, tree, opts);
}

void HMatrix::build(const kernel::KernelMatrix& kernel,
                    const cluster::ClusterTree& tree, const HOptions& opts) {
  util::Timer timer;
  BuildCtx ctx{kernel, tree, opts, &blocks_};
#pragma omp parallel
  {
#pragma omp single
    build_rec(ctx, tree.root(), tree.root());
  }

  // Deterministic block order regardless of task scheduling.
  std::sort(blocks_.begin(), blocks_.end(), [](const HBlock& x, const HBlock& y) {
    if (x.row_lo != y.row_lo) return x.row_lo < y.row_lo;
    return x.col_lo < y.col_lo;
  });

  finalize();
  stats_.build_seconds = timer.seconds();
}

HMatrix::HMatrix(int n, double lambda, std::vector<HBlock> blocks)
    : n_(n), lambda_(lambda), blocks_(std::move(blocks)) {
  KHSS_REQUIRE(n_ >= 0, "HMatrix restore: negative n " << n_);
  for (std::size_t id = 0; id < blocks_.size(); ++id) {
    const HBlock& blk = blocks_[id];
    KHSS_REQUIRE(blk.row_lo >= 0 && blk.row_hi >= blk.row_lo &&
                     blk.row_hi <= n_ && blk.col_lo >= 0 &&
                     blk.col_hi >= blk.col_lo && blk.col_hi <= n_,
                 "HMatrix restore: block " << id << " spans rows ["
                     << blk.row_lo << ", " << blk.row_hi << ") x cols ["
                     << blk.col_lo << ", " << blk.col_hi << ") outside [0, "
                     << n_ << ")");
    if (!blk.low_rank) {
      KHSS_REQUIRE(blk.dense.rows() == blk.row_hi - blk.row_lo &&
                       blk.dense.cols() == blk.col_hi - blk.col_lo,
                   "HMatrix restore: dense block " << id << " is "
                       << blk.dense.rows() << " x " << blk.dense.cols()
                       << " for a span of " << blk.row_hi - blk.row_lo
                       << " x " << blk.col_hi - blk.col_lo);
    } else {
      KHSS_REQUIRE(blk.lr.u.rows() == blk.row_hi - blk.row_lo &&
                       blk.lr.v.rows() == blk.col_hi - blk.col_lo &&
                       blk.lr.u.cols() == blk.lr.v.cols(),
                   "HMatrix restore: low-rank block " << id << " has U "
                       << blk.lr.u.rows() << " x " << blk.lr.u.cols()
                       << " and V " << blk.lr.v.rows() << " x "
                       << blk.lr.v.cols() << " for a span of "
                       << blk.row_hi - blk.row_lo << " x "
                       << blk.col_hi - blk.col_lo);
    }
  }
  finalize();
}

namespace {

// Output row tiles close at the first block row boundary at least this many
// rows past their start.
constexpr int kTileRows = 128;

}  // namespace

void HMatrix::finalize() {
  stats_ = HStats{};
  stats_.num_blocks = static_cast<int>(blocks_.size());
  for (const auto& blk : blocks_) {
    if (blk.low_rank) {
      ++stats_.num_lowrank_blocks;
      stats_.memory_bytes += blk.lr.bytes();
      stats_.max_block_rank = std::max(stats_.max_block_rank, blk.lr.rank());
    } else {
      ++stats_.num_dense_blocks;
      stats_.memory_bytes += blk.dense.bytes();
    }
  }

  // Row tiles: runs of block row boundaries, so a block splits across tiles
  // only where it is larger than a tile.
  std::vector<int> cuts = {n_};
  for (const auto& blk : blocks_) {
    cuts.push_back(blk.row_lo);
    cuts.push_back(blk.row_hi);
  }
  std::sort(cuts.begin(), cuts.end());
  tile_lo_.assign(1, 0);
  for (const int c : cuts) {
    if (c >= tile_lo_.back() + kTileRows || (c == n_ && c > tile_lo_.back())) {
      tile_lo_.push_back(c);
    }
  }
  const int ntiles = static_cast<int>(tile_lo_.size()) - 1;

  // Per-tile block lists in sorted block order, flattened.
  std::vector<std::vector<int>> lists(ntiles);
  vtx_row_.assign(blocks_.size(), -1);
  vtx_rows_ = 0;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const HBlock& blk = blocks_[b];
    if (blk.low_rank) {
      vtx_row_[b] = vtx_rows_;
      vtx_rows_ += blk.lr.rank();
    }
    const auto first = std::upper_bound(tile_lo_.begin(), tile_lo_.end(),
                                        blk.row_lo) - tile_lo_.begin() - 1;
    for (int t = static_cast<int>(first);
         t < ntiles && tile_lo_[t] < blk.row_hi; ++t) {
      lists[t].push_back(static_cast<int>(b));
    }
  }
  tile_ptr_.assign(1, 0);
  tile_blocks_.clear();
  for (const auto& list : lists) {
    tile_blocks_.insert(tile_blocks_.end(), list.begin(), list.end());
    tile_ptr_.push_back(static_cast<int>(tile_blocks_.size()));
  }
}

la::Matrix HMatrix::multiply(const la::Matrix& x) const {
  KHSS_REQUIRE(x.rows() == n_, "HMatrix::multiply: x has " << x.rows()
                                   << " rows; the operator is of order "
                                   << n_);
  const int s = x.cols();
  la::Matrix out(n_, s);
  if (s == 0) return out;

  // Every output entry is a fixed sequence of packed-GEMM updates: entry
  // (i, c) adds the blocks covering row i in sorted block order, each block
  // contributing a product that reads row i of the block and column c of X
  // (or of V^T X) only.  The packed core's per-entry arithmetic is
  // independent of how many rows and columns share a call, so neither the
  // thread count nor the column count can change any bit.

  // Phase 1: V^T X for every low-rank block.
  la::Matrix vtx(vtx_rows_, s);
  const int nblocks = static_cast<int>(blocks_.size());
#pragma omp parallel for schedule(dynamic, 1)
  for (int b = 0; b < nblocks; ++b) {
    const HBlock& blk = blocks_[b];
    if (!blk.low_rank) continue;
    const int k = blk.lr.rank();
    la::detail::gemm_packed_serial(k, s, blk.col_hi - blk.col_lo, 1.0,
                                   blk.lr.v.data(), k, /*ta=*/true,
                                   x.row(blk.col_lo), s, /*tb=*/false,
                                   vtx.row(vtx_row_[b]), s);
  }

  // Phase 2: each output row tile accumulates its blocks' products.
  const int ntiles = static_cast<int>(tile_lo_.size()) - 1;
#pragma omp parallel for schedule(dynamic, 1)
  for (int t = 0; t < ntiles; ++t) {
    for (int p = tile_ptr_[t]; p < tile_ptr_[t + 1]; ++p) {
      const int b = tile_blocks_[p];
      const HBlock& blk = blocks_[b];
      const int r0 = std::max(tile_lo_[t], blk.row_lo);
      const int r1 = std::min(tile_lo_[t + 1], blk.row_hi);
      if (blk.low_rank) {
        const int k = blk.lr.rank();
        la::detail::gemm_packed_serial(r1 - r0, s, k, 1.0,
                                       blk.lr.u.row(r0 - blk.row_lo), k,
                                       false, vtx.row(vtx_row_[b]), s, false,
                                       out.row(r0), s);
      } else {
        const int nc = blk.col_hi - blk.col_lo;
        la::detail::gemm_packed_serial(r1 - r0, s, nc, 1.0,
                                       blk.dense.row(r0 - blk.row_lo), nc,
                                       false, x.row(blk.col_lo), s, false,
                                       out.row(r0), s);
      }
    }
  }

  // NOTE: the lambda shift is already baked into the dense diagonal blocks
  // via KernelMatrix::entry(), so no extra diagonal term is added here.
  return out;
}

la::Vector HMatrix::multiply(const la::Vector& x) const {
  la::Matrix xm(n_, 1);
  for (int i = 0; i < n_; ++i) xm(i, 0) = x[i];
  la::Matrix ym = multiply(xm);
  la::Vector y(n_);
  for (int i = 0; i < n_; ++i) y[i] = ym(i, 0);
  return y;
}

void HMatrix::set_lambda(double lambda) {
  const double delta = lambda - lambda_;
  if (delta == 0.0) return;
  for (auto& blk : blocks_) {
    if (blk.low_rank) continue;
    // Diagonal blocks are exactly those whose ranges coincide on the
    // diagonal; overlapping-but-unequal ranges cannot occur by construction.
    if (blk.row_lo >= blk.col_hi || blk.col_lo >= blk.row_hi) continue;
    const int lo = std::max(blk.row_lo, blk.col_lo);
    const int hi = std::min(blk.row_hi, blk.col_hi);
    for (int g = lo; g < hi; ++g) {
      blk.dense(g - blk.row_lo, g - blk.col_lo) += delta;
    }
  }
  lambda_ = lambda;
}

la::Matrix HMatrix::dense() const {
  la::Matrix out(n_, n_);
  for (const auto& blk : blocks_) {
    if (blk.low_rank) {
      la::Matrix d = blk.lr.dense();
      out.set_block(blk.row_lo, blk.col_lo, d);
    } else {
      out.set_block(blk.row_lo, blk.col_lo, blk.dense);
    }
  }
  return out;
}

}  // namespace khss::hmat
