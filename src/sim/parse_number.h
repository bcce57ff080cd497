// Whole-string number parsing for every text input: CLI flags, environment
// variables and scenario scripts.
//
// A value is accepted only if the entire string is one base-10 number and
// that number lies in [lo, hi]. Named assumptions:
//   WHOLE:  no leading or trailing characters, whitespace or sign prefix
//           ('+'); "8x", " 8" and "" are rejected, never read as 8 or 0.
//   SIGN:   '-' is accepted only for signed and floating-point types, so "-1"
//           never wraps to 2^64 - 1.
//   FINITE: "inf" and "nan" are rejected; exponents ("2e-3") are accepted
//           for floating-point types only.
//   RANGE:  overflow of the target type is an out-of-range error, like any
//           value outside [lo, hi].

#ifndef THEMIS_SRC_SIM_PARSE_NUMBER_H_
#define THEMIS_SRC_SIM_PARSE_NUMBER_H_

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace themis {

// A number as ParseNumber would accept it back: integers exactly, doubles
// in the shortest %g form that names the value.
template <typename T>
std::string NumberToString(T value) {
  if constexpr (std::is_floating_point_v<T>) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%g", static_cast<double>(value));
    return buffer;
  } else {
    return std::to_string(value);
  }
}

// Parses all of `text` into *out when it is a number in [lo, hi]. On failure
// *out is untouched and `reason` (if non-null) says why.
template <typename T>
bool ParseNumber(std::string_view text, T lo, T hi, T* out, std::string* reason) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* const last = text.data() + text.size();
  std::from_chars_result parsed{};
  if constexpr (std::is_floating_point_v<T>) {
    parsed = std::from_chars(text.data(), last, value, std::chars_format::general);
  } else {
    parsed = std::from_chars(text.data(), last, value, 10);
  }
  const bool whole = parsed.ptr == last && parsed.ec != std::errc::invalid_argument;
  bool finite = true;
  if constexpr (std::is_floating_point_v<T>) {
    finite = std::isfinite(value);
  }
  if (!whole || !finite) {
    if (reason != nullptr) {
      *reason = std::is_floating_point_v<T> ? "not a finite number" : "not a whole number";
    }
    return false;
  }
  if (parsed.ec == std::errc::result_out_of_range || value < lo || value > hi) {
    if (reason != nullptr) {
      *reason = "out of range [" + NumberToString(lo) + ", " + NumberToString(hi) + "]";
    }
    return false;
  }
  *out = value;
  return true;
}

// Environment knobs: returns false when `name` is unset. A value that
// ParseNumber rejects prints `NAME='value': reason` and exits 1, before the
// caller acts on it.
template <typename T>
bool NumberFromEnv(const char* name, T lo, T hi, T* out) {
  const char* text = std::getenv(name);
  if (text == nullptr) {
    return false;
  }
  std::string reason;
  if (!ParseNumber(std::string_view(text), lo, hi, out, &reason)) {
    std::fprintf(stderr, "%s='%s': %s\n", name, text, reason.c_str());
    std::exit(1);
  }
  return true;
}

}  // namespace themis

#endif  // THEMIS_SRC_SIM_PARSE_NUMBER_H_
