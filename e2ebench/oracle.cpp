#include "oracle.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

namespace e2e {

namespace {

/// Cells (s1, f1, s2) with s1 + f1 + s2 <= k, i.e. the cells of bandit
/// level k (f2 is implied).
std::size_t tetra(long long k) {
  if (k < 0) return 0;
  auto u = static_cast<std::size_t>(k);
  return (u + 1) * (u + 2) * (u + 3) / 6;
}

/// Pairs (f1, s2) with f1 + s2 <= k.
std::size_t tri(long long k) {
  if (k < 0) return 0;
  auto u = static_cast<std::size_t>(k);
  return (u + 1) * (u + 2) / 2;
}

/// Packed index of (s1, f1, s2) within level m: s1 blocks of tri(m - s1)
/// pairs, then f1 rows of m - s1 - f1 + 1 cells, then s2.
struct LevelIndex {
  std::vector<std::size_t> s1_base;  // offset of each s1 block
  long long m = 0;

  explicit LevelIndex(long long level) : m(level) {
    s1_base.assign(static_cast<std::size_t>(m + 2), 0);
    for (long long s1 = 0; s1 <= m; ++s1)
      s1_base[static_cast<std::size_t>(s1 + 1)] =
          s1_base[static_cast<std::size_t>(s1)] + tri(m - s1);
  }

  std::size_t row(long long s1, long long f1) const {
    const long long k = m - s1;
    return s1_base[static_cast<std::size_t>(s1)] +
           static_cast<std::size_t>(f1 * (k + 1) - f1 * (f1 - 1) / 2);
  }
};

}  // namespace

double bandit2_serial(long long n) {
  if (n <= 0) return 0.0;
  // Level n has no valid successor, so its values are 0 (the center's
  // else branch); every lower level reads only the level above it.  Both
  // buffers are sized for the largest level once, so the sweep faults in
  // no fresh pages.
  std::vector<double> next(tetra(n), 0.0), cur(tetra(n), 0.0);
  for (long long m = n - 1; m >= 0; --m) {
    const LevelIndex up(m + 1), here(m);
    for (long long s1 = 0; s1 <= m; ++s1) {
      for (long long f1 = 0; f1 <= m - s1; ++f1) {
        const double p1 = static_cast<double>(s1 + 1) /
                          static_cast<double>(s1 + f1 + 2);
        const long long rest = m - s1 - f1;  // s2 + f2
        const double* r1 = next.data() + up.row(s1 + 1, f1);
        const double* r2 = next.data() + up.row(s1, f1 + 1);
        const double* r34 = next.data() + up.row(s1, f1);
        double* out = cur.data() + here.row(s1, f1);
        for (long long s2 = 0; s2 <= rest; ++s2) {
          const long long f2 = rest - s2;
          const double p2 = static_cast<double>(s2 + 1) /
                            static_cast<double>(s2 + f2 + 2);
          const double v1 = p1 * (1.0 + r1[s2]) + (1.0 - p1) * r2[s2];
          const double v2 =
              p2 * (1.0 + r34[s2 + 1]) + (1.0 - p2) * r34[s2];
          out[s2] = v1 > v2 ? v1 : v2;
        }
      }
    }
    next.swap(cur);
  }
  return next[0];
}

double lcs_serial(const std::string& a, const std::string& b) {
  const std::size_t la = a.size(), lb = b.size();
  // Row x1 = la (and column x2 = lb) is all zero: no match is possible.
  std::vector<double> below(lb + 1, 0.0), row(lb + 1, 0.0);
  for (std::size_t i = la; i-- > 0;) {
    row[lb] = 0.0;
    for (std::size_t j = lb; j-- > 0;) {
      double best = std::max(below[j], row[j + 1]);
      if (a[i] == b[j] && 1.0 + below[j + 1] > best) best = 1.0 + below[j + 1];
      row[j] = best;
    }
    below.swap(row);
  }
  return below[0];
}

double sw_serial(const std::string& a, const std::string& b, double match,
                 double mismatch, double gap) {
  const std::size_t la = a.size(), lb = b.size();
  std::vector<double> below(lb + 1, 0.0), row(lb + 1, 0.0);
  double best = 0.0;
  // Row i = la: only the insertion dependency exists.
  for (std::size_t j = lb; j-- > 0;) {
    below[j] = std::max(0.0, gap + below[j + 1]);
    best = std::max(best, below[j]);
  }
  for (std::size_t i = la; i-- > 0;) {
    row[lb] = std::max(0.0, gap + below[lb]);
    best = std::max(best, row[lb]);
    for (std::size_t j = lb; j-- > 0;) {
      double h = 0.0;
      const double d = (a[i] == b[j] ? match : mismatch) + below[j + 1];
      if (d > h) h = d;
      if (gap + below[j] > h) h = gap + below[j];
      if (gap + row[j + 1] > h) h = gap + row[j + 1];
      row[j] = h;
      if (h > best) best = h;
    }
    below.swap(row);
  }
  return best;
}

}  // namespace e2e
