// Strict number parsing for command-line flags and environment knobs. The
// whole token must be a base-10 number: `12k`, `4x` or `abc` is an error
// that names the flag or variable and exits 2, never a silent prefix parse.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <system_error>

namespace blunt::exp {

/// Parses all of `text` as a base-10 number; empty input, trailing
/// characters and overflow print an error naming `what` (a flag or an
/// environment variable) and exit 2.
template <typename T>
T parse_number(const std::string& what, const std::string& text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end) {
    std::fprintf(stderr, "%s: '%s' is not a valid number\n", what.c_str(),
                 text.c_str());
    std::exit(2);
  }
  return v;
}

/// Environment variable `name` read with parse_number, or `fallback` when
/// it is unset or empty.
template <typename T>
T env_number(const char* name, T fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return fallback;
  return parse_number<T>(name, text);
}

}  // namespace blunt::exp
