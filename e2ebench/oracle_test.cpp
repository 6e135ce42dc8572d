// Cross-checks the ledger's serial oracles against problems::*::reference
// (the dense-table solvers the repository's own tests trust) at sizes
// where the dense tables are small.  Exits nonzero on the first mismatch.

#include <cstdio>
#include <string>

#include "oracle.hpp"
#include "problems/problems.hpp"

namespace {

int failures = 0;

void expect_same(const char* what, long long size, double got, double want) {
  if (got == want) return;
  std::fprintf(stderr, "MISMATCH %s size=%lld: oracle %.17g, reference %.17g\n",
               what, size, got, want);
  ++failures;
}

}  // namespace

int main() {
  using namespace dpgen;
  const problems::Problem bandit = problems::bandit2();
  for (long long n = 0; n <= 14; ++n)
    expect_same("bandit2", n, e2e::bandit2_serial(n), bandit.reference({n}));

  for (unsigned seed = 1; seed <= 6; ++seed) {
    for (std::size_t la : {0u, 1u, 7u, 33u, 64u}) {
      const std::string a = problems::random_dna(la, seed);
      const std::string b = problems::random_dna(la / 2 + seed * 5, seed + 100);
      const IntVec lens = problems::sequence_params({a, b});
      const auto size = static_cast<long long>(la);
      expect_same("lcs", size, e2e::lcs_serial(a, b),
                  problems::lcs({a, b}).reference(lens));
      expect_same("smith_waterman", size,
                  e2e::sw_serial(a, b, 2.0, -1.0, -1.0),
                  problems::smith_waterman(a, b).reference(lens));
    }
  }
  if (failures) return 1;
  std::printf("e2e oracles agree with problems::*::reference\n");
  return 0;
}
