#pragma once
// Hierarchically Semi-Separable matrix representation (Section 3.1).
//
// The HSS partition tree mirrors the ClusterTree node indexing.  Following
// Figure 2/3 of the paper, a leaf node stores its dense diagonal block D and
// the interpolative row/column bases U, V; an internal node stores the
// translation operators (the small U~, V~ of the nested basis property) and
// the coupling generators B01 (left-right) / B10 (right-left).
//
// The construction used here is ID-based (see rrqr.hpp): bases have an
// identity sub-block at the selected row/column subsets Jrow/Jcol, and every
// B generator is literally a submatrix  A(Jrow_left, Jcol_right)  of the
// original matrix — the partially matrix-free property the paper highlights:
// building the format needs only a matvec for sampling plus element access.

#include <cstddef>
#include <vector>

#include "cluster/tree.hpp"
#include "la/matrix.hpp"

namespace khss::hss {

struct HSSNode {
  int lo = 0, hi = 0;
  int left = -1, right = -1, parent = -1;

  la::Matrix d;    // leaf only: dense diagonal block
  la::Matrix u;    // leaf: m x ru basis; internal: (ru_l + ru_r) x ru translation
  la::Matrix v;    // column-side analogue
  la::Matrix b01;  // internal: coupling A(Jrow_left, Jcol_right)
  la::Matrix b10;  // internal: coupling A(Jrow_right, Jcol_left)
  std::vector<int> jrow;  // selected global row indices (size ru)
  std::vector<int> jcol;  // selected global column indices (size rv)

  bool is_leaf() const { return left < 0; }
  int size() const { return hi - lo; }
  int urank() const { return u.cols(); }
  int vrank() const { return v.cols(); }
};

struct HSSStats {
  std::size_t memory_bytes = 0;
  int max_rank = 0;
  int num_nodes = 0;
  int num_leaves = 0;
  int levels = 0;
  int samples_used = 0;    // randomized construction: final sample count
  int restarts = 0;        // randomized construction: adaptivity restarts
  double construction_seconds = 0.0;
  double sampling_seconds = 0.0;  // portion spent in A*R products
};

class HSSMatrix {
 public:
  HSSMatrix() = default;
  HSSMatrix(std::vector<HSSNode> nodes, std::vector<int> postorder, int n);

  int n() const { return n_; }
  bool empty() const { return nodes_.empty(); }
  const std::vector<HSSNode>& nodes() const { return nodes_; }
  std::vector<HSSNode>& nodes() { return nodes_; }
  const HSSNode& node(int id) const { return nodes_[id]; }
  int root() const { return 0; }
  const std::vector<int>& postorder() const { return postorder_; }

  /// y = A_hss * x  (up-down sweep; O(r n)).
  la::Vector matvec(const la::Vector& x) const;

  /// Y = A_hss * X for multiple vectors (level-synchronous up/down sweeps;
  /// bit-identical for every thread count).
  la::Matrix matmat(const la::Matrix& x) const;

  /// Add delta to every diagonal entry (leaf D blocks): the O(n) lambda
  /// update of Section 5.3 — no recompression needed.
  void shift_diagonal(double delta);

  /// Reconstruct the dense matrix (tests; small n only).
  la::Matrix dense() const;

  /// Memory of all generators (the paper's Table 2 metric).
  std::size_t memory_bytes() const;

  /// Largest off-diagonal rank (the paper's "maximum rank" metric).
  int max_rank() const;

  HSSStats stats() const;

  /// Structural sanity (tests): ranks consistent, tree shape valid.
  bool validate() const;

  // Mutable stats fields filled in by the builders.
  int samples_used_ = 0;
  int restarts_ = 0;
  double construction_seconds_ = 0.0;
  double sampling_seconds_ = 0.0;

 private:
  std::vector<HSSNode> nodes_;
  std::vector<int> postorder_;
  /// cluster::levels_bottom_up over nodes_, computed once at construction
  /// (the tree structure is fixed for the matrix's lifetime); the schedule
  /// of the level-parallel matvec/matmat sweeps.
  std::vector<std::vector<int>> levels_;
  int n_ = 0;
};

/// Build the HSS skeleton (lo/hi/children) from a cluster tree; generators
/// left empty for the builders to fill.
std::vector<HSSNode> skeleton_from_tree(const cluster::ClusterTree& tree);

}  // namespace khss::hss
