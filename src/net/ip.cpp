#include "net/ip.h"

#include <array>
#include <charconv>

namespace bgpatoms::net {

namespace {

std::optional<IpAddress> parse_v4(std::string_view text) {
  std::uint32_t value = 0;
  int octets = 0;
  const char* p = text.data();
  const char* end = text.data() + text.size();
  while (p < end) {
    unsigned octet = 0;
    auto [np, ec] = std::from_chars(p, end, octet);
    if (ec != std::errc() || np == p || octet > 255) return std::nullopt;
    value = (value << 8) | octet;
    ++octets;
    p = np;
    if (octets < 4) {
      if (p >= end || *p != '.') return std::nullopt;
      ++p;
    }
  }
  if (octets != 4 || p != end) return std::nullopt;
  return IpAddress::v4(value);
}

std::optional<IpAddress> parse_v6(std::string_view text) {
  // RFC 4291 textual form, without embedded-IPv4 tail support (we never
  // generate it). Groups before/after a single "::" are collected, then the
  // gap is zero-filled.
  std::array<std::uint16_t, 8> groups{};
  int before = 0, after = 0;
  bool seen_gap = false;

  auto parse_group = [](std::string_view g) -> std::optional<std::uint16_t> {
    if (g.empty() || g.size() > 4) return std::nullopt;
    unsigned v = 0;
    auto [p, ec] = std::from_chars(g.data(), g.data() + g.size(), v, 16);
    if (ec != std::errc() || p != g.data() + g.size() || v > 0xffff)
      return std::nullopt;
    return static_cast<std::uint16_t>(v);
  };

  std::size_t i = 0;
  // Leading "::".
  if (text.size() >= 2 && text[0] == ':' && text[1] == ':') {
    seen_gap = true;
    i = 2;
    if (i == text.size()) return IpAddress::v6(0, 0);
  } else if (!text.empty() && text[0] == ':') {
    return std::nullopt;
  }

  std::array<std::uint16_t, 8> tail{};
  while (i < text.size()) {
    std::size_t j = text.find(':', i);
    std::string_view tok = text.substr(i, j == std::string_view::npos
                                              ? std::string_view::npos
                                              : j - i);
    auto g = parse_group(tok);
    if (!g) return std::nullopt;
    if (!seen_gap) {
      if (before >= 8) return std::nullopt;
      groups[before++] = *g;
    } else {
      if (after >= 8) return std::nullopt;
      tail[after++] = *g;
    }
    if (j == std::string_view::npos) {
      i = text.size();
      break;
    }
    i = j + 1;
    if (i < text.size() && text[i] == ':') {
      if (seen_gap) return std::nullopt;  // second "::"
      seen_gap = true;
      ++i;
      if (i == text.size()) break;
    } else if (i == text.size()) {
      return std::nullopt;  // trailing single ':'
    }
  }

  if (!seen_gap && before != 8) return std::nullopt;
  if (seen_gap && before + after > 7) return std::nullopt;
  // Zero-fill the gap.
  int gi = before;
  for (int k = 0; k < 8 - before - after; ++k) groups[gi++] = 0;
  for (int k = 0; k < after; ++k) groups[gi++] = tail[k];

  std::uint64_t hi = 0, lo = 0;
  for (int k = 0; k < 4; ++k) hi = (hi << 16) | groups[k];
  for (int k = 4; k < 8; ++k) lo = (lo << 16) | groups[k];
  return IpAddress::v6(hi, lo);
}

}  // namespace

std::optional<IpAddress> IpAddress::parse(std::string_view text) {
  if (text.find(':') != std::string_view::npos) return parse_v6(text);
  return parse_v4(text);
}

void IpAddress::append_to(std::string& out) const {
  char buf[40];  // eight 4-digit groups and seven colons at most
  char* p = buf;
  char* const end = buf + sizeof buf;
  if (family_ == Family::kIPv4) {
    const auto v = v4_value();
    for (int shift = 24; shift >= 0; shift -= 8) {
      p = std::to_chars(p, end, (v >> shift) & 0xff).ptr;
      if (shift > 0) *p++ = '.';
    }
    out.append(buf, p);
    return;
  }
  std::array<std::uint16_t, 8> groups;
  for (int k = 0; k < 4; ++k)
    groups[k] = static_cast<std::uint16_t>(hi_ >> (48 - 16 * k));
  for (int k = 0; k < 4; ++k)
    groups[4 + k] = static_cast<std::uint16_t>(lo_ >> (48 - 16 * k));

  // Find the longest run of zero groups (length >= 2) to compress as "::".
  int best_start = -1, best_len = 0;
  for (int k = 0; k < 8;) {
    if (groups[k] == 0) {
      int j = k;
      while (j < 8 && groups[j] == 0) ++j;
      if (j - k > best_len) {
        best_len = j - k;
        best_start = k;
      }
      k = j;
    } else {
      ++k;
    }
  }
  if (best_len < 2) best_start = -1;

  for (int k = 0; k < 8;) {
    if (k == best_start) {
      *p++ = ':';  // the preceding group (if any) did not emit its ':'
      *p++ = ':';
      k += best_len;
      continue;
    }
    p = std::to_chars(p, end, groups[k], 16).ptr;
    if (++k < 8 && k != best_start) *p++ = ':';
  }
  out.append(buf, p);
}

std::string IpAddress::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

}  // namespace bgpatoms::net
