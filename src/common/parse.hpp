#pragma once

/// \file parse.hpp
/// \brief Whole-token number parsing for text that arrives from outside the
/// program: map headers, replay recipes, hex fingerprints. Nothing here
/// throws; malformed text is a nullopt that the caller turns into a refusal.

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace srl {

/// The integer that `s` spells in full, in `std::from_chars` grammar: no
/// leading whitespace, no '+', no "0x", no sign for unsigned types and no
/// trailing byte. nullopt when anything is left over or the value does not
/// fit `T`.
template <class T>
  requires std::is_integral_v<T>
std::optional<T> parse_number(std::string_view s, int base = 10) {
  T v{};
  const std::from_chars_result r =
      std::from_chars(s.data(), s.data() + s.size(), v, base);
  if (r.ec != std::errc{} || r.ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

/// The double that `s` spells in full, same rules. The grammar includes
/// "inf" and "nan": callers that need a finite value check for it.
inline std::optional<double> parse_double(std::string_view s) {
  double v = 0.0;
  const std::from_chars_result r =
      std::from_chars(s.data(), s.data() + s.size(), v);
  if (r.ec != std::errc{} || r.ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

}  // namespace srl
