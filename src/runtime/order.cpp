#include "runtime/order.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace dpgen::runtime {

TileOrder::TileOrder(std::vector<int> dim_priority, std::vector<int> signs,
                     PriorityPolicy policy)
    : dim_priority_(std::move(dim_priority)),
      signs_(std::move(signs)),
      policy_(policy) {
  for (int k = 0; k < static_cast<int>(signs_.size()); ++k)
    if (std::find(dim_priority_.begin(), dim_priority_.end(), k) ==
        dim_priority_.end())
      dim_priority_.push_back(k);
  DPGEN_CHECK(dim_priority_.size() == signs_.size(),
              "TileOrder: dim_priority lists a dimension twice or one that "
              "does not exist");
}

bool TileOrder::earlier(const IntVec& a, const IntVec& b) const {
  DPGEN_ASSERT(a.size() == signs_.size() && b.size() == signs_.size());
  if (policy_ == PriorityPolicy::kLevelSet) {
    // Wavefront order (Fig. 4b): complete each level set before starting
    // the next, i.e. less-progressed tiles first.  This maximises
    // parallelism at the cost of ~d times the buffered-edge memory.
    Int la = 0, lb = 0;
    for (std::size_t k = 0; k < a.size(); ++k) {
      la = add_ck(la, progress(a, k));
      lb = add_ck(lb, progress(b, k));
    }
    if (la != lb) return la < lb;
    // fall through to lexicographic tie-break
  }
  // Column-major flavour (Fig. 5): the tile furthest along the execution
  // direction runs first, comparing the load-balanced dimensions first.
  // Advancing fastest along the balanced dimensions reaches the tiles that
  // feed neighbouring nodes as early as possible ("tiles that cause
  // communication execute more quickly").
  for (int dim : dim_priority_) {
    auto k = static_cast<std::size_t>(dim);
    Int pa = progress(a, k);
    Int pb = progress(b, k);
    if (pa != pb) return pa > pb;
  }
  return false;  // equal
}

}  // namespace dpgen::runtime
