#pragma once
// Tile ownership across ranks (paper section IV.J): the one prefix cut
// both front ends run, on the cells tiling::LoadBalancer scans from the
// model or a generated program's emitted lb scan counts.

#include <unordered_map>
#include <vector>

#include "support/vec.hpp"

namespace dpgen::runtime {

/// One load-balance cell: the lb tile indices of the tiles it groups, the
/// locations they hold (its work) and how many tiles they are.
struct LbCell {
  IntVec lb;
  Int work = 0;
  Int tiles = 0;
};

/// Assigns every load-balance cell, and so every tile, to a rank.
class Partition {
 public:
  /// Cuts `cells`, in the order given, into `nranks` contiguous runs of
  /// equal work: the cell whose preceding cumulative work lies in
  /// [i*W/P, (i+1)*W/P) goes to rank i.  `lb_dims` names the tile
  /// dimensions a cell's lb indices come from; with none, the single
  /// cell (and every tile) belongs to rank 0.
  Partition(std::vector<int> lb_dims, const std::vector<LbCell>& cells,
            int nranks);

  /// Owning rank of a tile; dpgen::Error when no cell holds it (the tile
  /// is outside the tile space).
  int owner(const IntVec& tile) const;

  Int total_work() const { return total_work_; }
  Int owned_work(int rank) const { return work_[static_cast<std::size_t>(rank)]; }
  Int owned_tiles(int rank) const { return tiles_[static_cast<std::size_t>(rank)]; }
  Int num_cells() const { return num_cells_; }

  /// owned_work per rank, as the observability documents take it.
  std::vector<double> predicted_work() const {
    return std::vector<double>(work_.begin(), work_.end());
  }

  /// Largest-to-average work ratio: 1.0 is a perfect balance.
  double imbalance() const;

 private:
  /// Position of a cell (lb indices, or a tile's indices when `tile`) in
  /// the dense table; owner_flat_.size() when outside its box.
  std::size_t flat_index(const IntVec& v, bool tile) const;

  std::vector<int> lb_dims_;
  Int total_work_ = 0;
  Int num_cells_ = 0;
  std::vector<Int> work_;
  std::vector<Int> tiles_;
  // owner() runs once per outgoing edge on the runtime hot path, so the
  // lookup is a dense table over the cells' bounding box (-1 marks holes)
  // when the box is not much larger than the cell set, and a hash map
  // otherwise.
  IntVec flat_lo_;
  IntVec flat_extents_;
  std::vector<int> owner_flat_;
  std::unordered_map<IntVec, int, IntVecHash> owner_by_cell_;
};

}  // namespace dpgen::runtime
