#include "support/str.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "support/error.hpp"
#include "support/vec.hpp"

namespace dpgen {

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(const std::string& s,
                               const std::string& delims) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (delims.find(c) != std::string::npos) {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

bool is_identifier(const std::string& name) {
  if (name.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(name[0])) || name[0] == '_'))
    return false;
  for (char c : name)
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_'))
      return false;
  return true;
}

bool parse_int(const char* s, long long* out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE ||
      std::isspace(static_cast<unsigned char>(*s)))
    return false;
  *out = v;
  return true;
}

bool parse_double(const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v) ||
      std::isspace(static_cast<unsigned char>(*s)))
    return false;
  *out = v;
  return true;
}

template <typename T>
bool int_flag(const char* arg, const char* name, long long min, T* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return false;
  long long v = 0;
  if (!parse_int(arg + n, &v) || v < min ||
      v > static_cast<long long>(std::numeric_limits<T>::max()))
    raise(cat("bad value '", arg + n, "' for ", name,
              " (expected an integer >= ", min, ")"));
  *out = static_cast<T>(v);
  return true;
}
template bool int_flag(const char*, const char*, long long, int*);
template bool int_flag(const char*, const char*, long long, long long*);

bool positive_flag(const char* arg, const char* name, double* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return false;
  double v = 0.0;
  if (!parse_double(arg + n, &v) || !(v > 0.0))
    raise(cat("bad value '", arg + n, "' for ", name,
              " (expected a number > 0)"));
  *out = v;
  return true;
}

std::string vec_to_string(const IntVec& a) {
  std::string out = "(";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(a[i]);
  }
  out += ")";
  return out;
}

}  // namespace dpgen
