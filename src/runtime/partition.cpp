#include "runtime/partition.hpp"

#include <algorithm>

#include "support/checked.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace dpgen::runtime {

Partition::Partition(std::vector<int> lb_dims,
                     const std::vector<LbCell>& cells, int nranks)
    : lb_dims_(std::move(lb_dims)),
      num_cells_(static_cast<Int>(cells.size())) {
  DPGEN_CHECK(nranks >= 1, "partition needs at least one rank");
  work_.assign(static_cast<std::size_t>(nranks), 0);
  tiles_.assign(static_cast<std::size_t>(nranks), 0);
  const std::size_t nd = lb_dims_.size();
  IntVec hi;
  for (const auto& c : cells) {
    DPGEN_CHECK(c.lb.size() == nd, "load-balance cell dimension mismatch");
    total_work_ = add_ck(total_work_, c.work);
    if (flat_lo_.empty()) flat_lo_ = hi = c.lb;
    for (std::size_t i = 0; i < nd; ++i) {
      flat_lo_[i] = std::min(flat_lo_[i], c.lb[i]);
      hi[i] = std::max(hi[i], c.lb[i]);
    }
  }
  // The dense table over the cells' bounding box, unless the box is so
  // much larger than the cell set that the memory is not worth it.
  Int vol = cells.empty() ? 0 : 1;
  for (std::size_t i = 0; i < nd && vol > 0; ++i) {
    flat_extents_.push_back(hi[i] - flat_lo_[i] + 1);
    vol = mul_ck(vol, flat_extents_[i]);
    if (vol > std::max<Int>(4096, 8 * num_cells_)) vol = 0;
  }
  owner_flat_.assign(static_cast<std::size_t>(vol), -1);

  // Prefix cut: the cell whose preceding cumulative work is in
  // [i*W/P, (i+1)*W/P) goes to rank i.
  Int cum = 0;
  for (const auto& c : cells) {
    int rank = 0;
    if (total_work_ > 0)
      rank = std::min(nranks - 1,
                      static_cast<int>((static_cast<__int128>(cum) * nranks) /
                                       total_work_));
    work_[static_cast<std::size_t>(rank)] += c.work;
    tiles_[static_cast<std::size_t>(rank)] += c.tiles;
    cum = add_ck(cum, c.work);
    if (owner_flat_.empty())
      owner_by_cell_.emplace(c.lb, rank);
    else
      owner_flat_[flat_index(c.lb, /*tile=*/false)] = rank;
  }
}

std::size_t Partition::flat_index(const IntVec& v, bool tile) const {
  std::size_t idx = 0;
  for (std::size_t i = 0; i < flat_extents_.size(); ++i) {
    const Int off =
        v[tile ? static_cast<std::size_t>(lb_dims_[i]) : i] - flat_lo_[i];
    if (off < 0 || off >= flat_extents_[i]) return owner_flat_.size();
    idx = idx * static_cast<std::size_t>(flat_extents_[i]) +
          static_cast<std::size_t>(off);
  }
  return idx;
}

int Partition::owner(const IntVec& tile) const {
  int rank = -1;
  if (!owner_flat_.empty()) {
    // Allocation- and hash-free: the common case.
    const std::size_t idx = flat_index(tile, /*tile=*/true);
    if (idx < owner_flat_.size()) rank = owner_flat_[idx];
  } else {
    thread_local IntVec lb;
    lb.resize(lb_dims_.size());
    for (std::size_t i = 0; i < lb.size(); ++i)
      lb[i] = tile[static_cast<std::size_t>(lb_dims_[i])];
    auto it = owner_by_cell_.find(lb);
    if (it != owner_by_cell_.end()) rank = it->second;
  }
  DPGEN_CHECK(rank >= 0,
              cat("tile ", vec_to_string(tile),
                  " has no load-balance cell; is it in the tile space?"));
  return rank;
}

double Partition::imbalance() const {
  if (total_work_ == 0) return 1.0;
  const Int max_work = *std::max_element(work_.begin(), work_.end());
  const double avg =
      static_cast<double>(total_work_) / static_cast<double>(work_.size());
  return static_cast<double>(max_work) / avg;
}

}  // namespace dpgen::runtime
