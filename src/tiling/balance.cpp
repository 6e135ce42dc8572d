#include "tiling/balance.hpp"

#include <algorithm>
#include <numeric>

#include "support/error.hpp"

namespace dpgen::tiling {

namespace {

/// The model's load-balance cells in the method's cut order.
std::vector<runtime::LbCell> ordered_cells(const TilingModel& model,
                                           const IntVec& params, int nranks,
                                           BalanceMethod method) {
  DPGEN_CHECK(nranks == 1 || !model.lb_dims().empty(),
              "multi-rank runs require load-balance dimensions in the spec");
  std::vector<runtime::LbCell> cells;
  model.for_each_lb_cell(params, [&](const IntVec& lb) {
    cells.push_back({lb, model.cell_count_lb(params, lb),
                     model.tile_count_lb(params, lb)});
  });
  if (method == BalanceMethod::kHyperplane) {
    // Order by the all-ones hyperplane over the balanced dimensions, then
    // lexicographically; the prefix cut then slices along diagonal level
    // sets (Fig. 8).
    std::stable_sort(cells.begin(), cells.end(),
                     [](const runtime::LbCell& a, const runtime::LbCell& b) {
                       Int sa = std::accumulate(a.lb.begin(), a.lb.end(), Int{0});
                       Int sb = std::accumulate(b.lb.begin(), b.lb.end(), Int{0});
                       if (sa != sb) return sa < sb;
                       return a.lb < b.lb;
                     });
  }
  // (kPerDimension keeps the natural lb1-major scan order.)
  return cells;
}

}  // namespace

LoadBalancer::LoadBalancer(const TilingModel& model, const IntVec& params,
                           int nranks, BalanceMethod method)
    : runtime::Partition(model.lb_dims(),
                         ordered_cells(model, params, nranks, method),
                         nranks) {}

}  // namespace dpgen::tiling
