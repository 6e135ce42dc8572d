#pragma once
// The ledger's own serial oracles: plain untiled loops of the same
// recurrences the generated programs solve, written independently of the
// generator and of problems::*::reference (which hold the whole dense
// table).  Each keeps only the rows or levels the recurrence reads, so it
// is also the honest serial baseline the generated program is timed
// against.  oracle_test.cpp cross-checks them against the references.

#include <string>

namespace e2e {

/// 2-arm Bernoulli bandit value V(0) for N trials (problems::bandit2):
/// a level-by-level sweep over m = s1+f1+s2+f2 holding two levels.
double bandit2_serial(long long n);

/// Longest common subsequence length of `a` and `b` (problems::lcs),
/// suffix formulation over two rolling rows.
double lcs_serial(const std::string& a, const std::string& b);

/// Smith-Waterman best local score over all cells (problems::
/// smith_waterman), suffix formulation over two rolling rows.
double sw_serial(const std::string& a, const std::string& b, double match,
                 double mismatch, double gap);

}  // namespace e2e
