#pragma once
// String helpers shared by the parser, code emitter and diagnostics.

#include <sstream>
#include <string>
#include <vector>

namespace dpgen {

/// Concatenates the string representations of all arguments.
template <typename... Ts>
std::string cat(const Ts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

/// Joins the elements of `parts` with `sep` between them.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Removes leading and trailing ASCII whitespace.
std::string trim(const std::string& s);

/// Splits on any run of the characters in `delims`; empty tokens dropped.
std::vector<std::string> split(const std::string& s, const std::string& delims);

/// True if `s` begins with `prefix`.
bool starts_with(const std::string& s, const std::string& prefix);

/// True if `name` is a valid C identifier ([A-Za-z_][A-Za-z0-9_]*).
bool is_identifier(const std::string& name);

/// Parse all of `s` as a base-10 integer / a finite number; false (and
/// *out untouched) on empty input, surrounding characters or overflow.
bool parse_int(const char* s, long long* out);
bool parse_double(const char* s, double* out);

/// Command-line flags: when `arg` starts with `name` (its '=' included,
/// e.g. "--ranks="), parses the rest into *out and returns true; returns
/// false for any other argument.  A value that is not an integer >= `min`
/// (int_flag, T = int or long long) or a number > 0 (positive_flag)
/// throws dpgen::Error naming the flag.
template <typename T>
bool int_flag(const char* arg, const char* name, long long min, T* out);
bool positive_flag(const char* arg, const char* name, double* out);

}  // namespace dpgen
