#pragma once

/// \file fingerprint.hpp
/// \brief The one 64-bit artifact codec: the FNV-1a-64 fingerprint and the
/// fixed-width hex text that hashes and seeds travel in.
///
/// Every bitwise claim an artifact makes — a fault regime's `trace_hash`,
/// the flight recorder's `estimate_hash`, the throughput table's per-cell
/// and document hashes — is a fold through `Fnv1a`, and every 64-bit value
/// a JSON artifact stores (a double keeps only 53 bits) is written by
/// `to_hex` and read back by `parse_hex`. Changing either changes every
/// committed fingerprint, so both live here and nowhere else.

#include <bit>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace srl {

/// FNV-1a 64-bit accumulator. Arithmetic values fold as their
/// little-endian byte sequence on every host, so a fingerprint does not
/// depend on the machine's byte order.
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  /// Fold `n` raw bytes in memory order.
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= kPrime;
    }
  }

  /// Fold the object representation of `v`, least significant byte first.
  template <typename T>
    requires std::is_arithmetic_v<T>
  void value(T v) {
    unsigned char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    if constexpr (std::endian::native == std::endian::big) {
      for (std::size_t i = 0; i < sizeof(T) / 2; ++i) {
        std::swap(b[i], b[sizeof(T) - 1 - i]);
      }
    }
    bytes(b, sizeof(T));
  }

  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_{kOffset};
};

/// "0x" plus 16 lowercase hex digits.
inline std::string to_hex(std::uint64_t v) {
  constexpr char kDigits[] = "0123456789abcdef";
  std::string s(18, '0');
  s[1] = 'x';
  for (std::size_t i = 17; i >= 2; --i, v >>= 4) s[i] = kDigits[v & 0xfU];
  return s;
}

/// Strict inverse of `to_hex`: "0x" plus 1–16 hex digits and nothing else
/// (no sign, no whitespace, no decimal); nullopt otherwise.
inline std::optional<std::uint64_t> parse_hex(std::string_view s) {
  if (s.size() < 3 || s.size() > 18 || !s.starts_with("0x")) {
    return std::nullopt;
  }
  std::uint64_t v = 0;
  const std::from_chars_result r =
      std::from_chars(s.data() + 2, s.data() + s.size(), v, 16);
  if (r.ec != std::errc{} || r.ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

}  // namespace srl
