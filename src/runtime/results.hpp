#pragma once
// The recorded values of a run, for the engine and generated programs
// alike: the probed locations a finished tile holds, and the maximum over
// all locations with ties to the lexicographically smallest location.

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "support/checked.hpp"
#include "support/vec.hpp"

namespace dpgen::runtime {

/// The running maximum over offered cells and its lexicographically
/// smallest location: a tile's max scan and the sink's merge of them.
template <typename S>
struct MaxScan {
  explicit MaxScan(int dim) : point(static_cast<std::size_t>(dim)) {}

  /// Offers value v at location x (dim coordinates).
  void offer(S v, const Int* x) {
    if (have && !(v > value) &&
        !(v == value && std::lexicographical_compare(
                            x, x + point.size(), point.begin(), point.end())))
      return;
    have = true;
    value = v;
    std::copy(x, x + point.size(), point.begin());
  }

  bool have = false;
  S value{};
  IntVec point;
};

class ResultSink {
 public:
  /// `probes`: the global locations to record; `widths`: the tile widths
  /// (a probe lies in tile floor(probe / width)).
  ResultSink(std::vector<IntVec> probes, IntVec widths)
      : probes_(std::move(probes)),
        widths_(std::move(widths)),
        max_(static_cast<int>(widths_.size())) {}

  /// Records each probe that lies in `tile`; `index(local)` maps a tile-
  /// local offset to its position in `buffer`.
  template <typename S, typename Index>
  void capture(const IntVec& tile, const S* buffer, Index&& index) {
    thread_local IntVec local;
    for (const IntVec& probe : probes_) {
      bool inside = true;
      local.resize(probe.size());
      for (std::size_t k = 0; k < probe.size() && inside; ++k) {
        inside = floor_div(probe[k], widths_[k]) == tile[k];
        local[k] = probe[k] - widths_[k] * tile[k];
      }
      if (!inside) continue;
      const double v = static_cast<double>(buffer[index(local)]);
      std::lock_guard<std::mutex> lock(mu_);
      values_[probe] = v;
    }
  }

  /// Records every location `scan` reports, under one lock: scan(put) calls
  /// put(location, value) per cell.
  template <typename Scan>
  void record_each(Scan&& scan) {
    std::lock_guard<std::mutex> lock(mu_);
    scan([&](const IntVec& point, double v) { values_[point] = v; });
  }

  /// Merges one tile's maximum.
  template <typename S>
  void merge_max(const MaxScan<S>& tile_max) {
    if (!tile_max.have) return;
    std::lock_guard<std::mutex> lock(mu_);
    max_.offer(static_cast<double>(tile_max.value), tile_max.point.data());
  }

  /// Recorded values by location.
  std::unordered_map<IntVec, double, IntVecHash>& values() { return values_; }
  const MaxScan<double>& max() const { return max_; }

  /// Prints one "RESULT (x, y) = v" line per recorded location in
  /// coordinate order, then "MAX (x, y) = v" when a maximum was merged.
  void print(std::FILE* out) const {
    auto line = [&](const char* label, const IntVec& point, double value) {
      std::fprintf(out, "%s (", label);
      for (std::size_t k = 0; k < point.size(); ++k)
        std::fprintf(out, k ? ", %lld" : "%lld",
                     static_cast<long long>(point[k]));
      std::fprintf(out, ") = %.17g\n", value);
    };
    std::vector<IntVec> points;
    for (const auto& kv : values_) points.push_back(kv.first);
    std::sort(points.begin(), points.end());
    for (const IntVec& p : points) line("RESULT", p, values_.at(p));
    if (max_.have) line("MAX", max_.point, max_.value);
  }

 private:
  std::vector<IntVec> probes_;
  IntVec widths_;
  std::mutex mu_;
  std::unordered_map<IntVec, double, IntVecHash> values_;
  MaxScan<double> max_;
};

}  // namespace dpgen::runtime
