#pragma once
// Tile execution priority (paper section V.B, Figures 4 and 5).
//
// Among the tiles whose dependencies are all satisfied, the runtime picks
// the next tile to execute with a priority function.  The paper's choice
// (Fig. 5) is a column-major-flavoured order with the load-balanced
// dimensions most significant: it keeps the number of buffered edges near
// n+1 on an n x n tile grid and pushes tiles that feed neighbouring nodes
// first.  The level-set order (Fig. 4b) maximises available parallelism at
// the cost of ~d times the edge memory; it is provided for the FIG4
// reproduction and as a user-selectable policy.

#include <vector>

#include "support/vec.hpp"

namespace dpgen::runtime {

enum class PriorityPolicy {
  kColumnMajor,  // paper Fig. 4(a)/Fig. 5: the default
  kLevelSet,     // paper Fig. 4(b): wavefront order
};

/// Strict weak ordering over tile indices: earlier(a, b) is true when tile
/// a should execute before tile b.
class TileOrder {
 public:
  TileOrder() = default;

  /// `dim_priority` lists tile dimensions most-significant first; the
  /// dimensions it leaves out follow in loop order (the front ends pass
  /// the load-balanced dimensions, Fig. 5).  `signs` gives
  /// the per-dimension dependency sign (+1, 0 or -1): execution proceeds
  /// from high indices to low in +1 dimensions and low to high in -1
  /// dimensions.
  TileOrder(std::vector<int> dim_priority, std::vector<int> signs,
            PriorityPolicy policy);

  PriorityPolicy policy() const { return policy_; }

  bool earlier(const IntVec& a, const IntVec& b) const;

  /// Comparator adapter for ordered containers (acts as operator<).
  struct Less {
    const TileOrder* order;
    bool operator()(const IntVec& a, const IntVec& b) const {
      return order->earlier(a, b);
    }
  };
  Less less() const { return Less{this}; }

 private:
  /// Execution progress of tile coordinate v in dimension k: larger means
  /// further along the execution direction (execution runs from high to
  /// low indices in +1 dimensions).  sign-0 dimensions have no inherent
  /// direction; treating them like +1 keeps the ordering total.
  Int progress(const IntVec& t, std::size_t k) const {
    return signs_[k] >= 0 ? -t[k] : t[k];
  }

  std::vector<int> dim_priority_;
  std::vector<int> signs_;
  PriorityPolicy policy_ = PriorityPolicy::kColumnMajor;
};

}  // namespace dpgen::runtime
