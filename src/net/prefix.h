// IP prefix (CIDR block) value type.
//
// A Prefix is an address plus a length; construction canonicalizes by
// masking host bits, so two Prefix values compare equal iff they denote the
// same CIDR block. Prefixes order first by family, then address, then
// length, which groups covering blocks before their subnets.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "net/hash.h"
#include "net/ip.h"

namespace bgpatoms::net {

class Prefix {
 public:
  constexpr Prefix() = default;

  /// Canonicalizing constructor: host bits below `length` are cleared.
  constexpr Prefix(IpAddress addr, int length)
      : addr_(addr.masked(length)),
        length_(static_cast<std::uint8_t>(length)) {}

  /// Convenience: IPv4 prefix from host-order address value.
  static constexpr Prefix v4(std::uint32_t addr, int length) {
    return Prefix(IpAddress::v4(addr), length);
  }

  /// Convenience: IPv6 prefix from host-order halves.
  static constexpr Prefix v6(std::uint64_t hi, std::uint64_t lo, int length) {
    return Prefix(IpAddress::v6(hi, lo), length);
  }

  /// Parses "a.b.c.d/len" or "v6addr/len". Returns nullopt on any error,
  /// including out-of-range length.
  static std::optional<Prefix> parse(std::string_view text);

  constexpr const IpAddress& address() const { return addr_; }
  constexpr int length() const { return length_; }
  constexpr Family family() const { return addr_.family(); }
  constexpr bool is_v4() const { return addr_.is_v4(); }

  /// True if `other` is equal to or a subnet of this prefix.
  constexpr bool contains(const Prefix& other) const {
    if (family() != other.family() || length_ > other.length_) return false;
    return other.addr_.masked(length_) == addr_;
  }

  /// True if `ip` falls inside this prefix.
  constexpr bool contains(const IpAddress& ip) const {
    return ip.family() == family() && ip.masked(length_) == addr_;
  }

  /// Appends "address/length" (IpAddress::append_to for the address).
  void append_to(std::string& out) const;
  std::string to_string() const;

  std::uint64_t hash() const {
    std::uint64_t h = mix64(addr_.hi() ^ mix64(addr_.lo()));
    return hash_combine(h, (static_cast<std::uint64_t>(length_) << 8) |
                               static_cast<std::uint64_t>(family()));
  }

  friend constexpr auto operator<=>(const Prefix&, const Prefix&) = default;

 private:
  IpAddress addr_;
  std::uint8_t length_ = 0;
};

struct PrefixHash {
  std::size_t operator()(const Prefix& p) const {
    return static_cast<std::size_t>(p.hash());
  }
};

/// Strict CLI-facing prefix parser: accepts "addr/len" CIDR form or a bare
/// address, which becomes a host route (/32 or /128). This is the one
/// parser every CLI prefix argument goes through, so malformed input is
/// rejected uniformly instead of being silently skipped.
std::optional<Prefix> parse_prefix(std::string_view text);

}  // namespace bgpatoms::net
