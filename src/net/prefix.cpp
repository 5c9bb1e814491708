#include "net/prefix.h"

#include <charconv>

namespace bgpatoms::net {

std::optional<Prefix> Prefix::parse(std::string_view text) {
  const auto slash = text.rfind('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto addr = IpAddress::parse(text.substr(0, slash));
  if (!addr) return std::nullopt;
  const auto len_text = text.substr(slash + 1);
  int len = -1;
  auto [p, ec] =
      std::from_chars(len_text.data(), len_text.data() + len_text.size(), len);
  if (ec != std::errc() || p != len_text.data() + len_text.size())
    return std::nullopt;
  if (len < 0 || len > address_bits(addr->family())) return std::nullopt;
  return Prefix(*addr, len);
}

void Prefix::append_to(std::string& out) const {
  addr_.append_to(out);
  char buf[4];  // lengths are at most 128
  out += '/';
  out.append(buf, std::to_chars(buf, buf + sizeof buf, length_).ptr);
}

std::string Prefix::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

std::optional<Prefix> parse_prefix(std::string_view text) {
  if (text.find('/') != std::string_view::npos) return Prefix::parse(text);
  const auto addr = IpAddress::parse(text);
  if (!addr) return std::nullopt;
  return Prefix(*addr, address_bits(addr->family()));
}

}  // namespace bgpatoms::net
