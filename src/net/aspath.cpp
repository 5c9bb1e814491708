#include "net/aspath.h"

#include <algorithm>
#include <charconv>
#include <functional>
#include <stdexcept>

namespace bgpatoms::net {

// ---------------------------------------------------------------------------
// PathView
// ---------------------------------------------------------------------------

int PathView::selection_length() const {
  if (layout_.empty()) return static_cast<int>(hops_.size());
  int len = 0;
  for (const SegmentView seg : segments()) {
    len += seg.type == SegmentType::kSequence
               ? static_cast<int>(seg.asns.size())
               : 1;
  }
  return len;
}

std::optional<Asn> PathView::origin() const {
  if (hops_.empty()) return std::nullopt;
  if (layout_.empty() || layout_.back().type == SegmentType::kSequence) {
    return hops_.back();
  }
  const SegmentView last = segments()[layout_.size() - 1];
  if (last.asns.size() == 1) return hops_.back();
  return std::nullopt;  // aggregated origin is ambiguous
}

bool PathView::has_set() const {
  return std::any_of(layout_.begin(), layout_.end(), [](const SegmentEnd& s) {
    return s.type == SegmentType::kSet;
  });
}

bool PathView::sets_all_singleton() const {
  for (const SegmentView seg : segments()) {
    if (seg.type == SegmentType::kSet && seg.asns.size() != 1) return false;
  }
  return true;
}

AsPath PathView::with_singleton_sets_expanded() const {
  // Each maximal run of sequences and singleton sets becomes one sequence;
  // multi-member sets stay between them.
  AsPath out;
  const Asn* run = hops_.data();
  for (const SegmentView seg : segments()) {
    if (seg.type == SegmentType::kSet && seg.asns.size() > 1) {
      out.append_segment(SegmentType::kSequence,
                         {run, seg.asns.data()});
      out.append_segment(SegmentType::kSet, seg.asns);
      run = seg.asns.data() + seg.asns.size();
    }
  }
  out.append_segment(SegmentType::kSequence,
                     {run, hops_.data() + hops_.size()});
  return out;
}

std::vector<AsRun> PathView::runs_from_origin() const {
  std::vector<AsRun> runs;
  for (auto it = hops_.rbegin(); it != hops_.rend(); ++it) {
    if (!runs.empty() && runs.back().asn == *it) {
      ++runs.back().count;
    } else {
      runs.push_back({*it, 1});
    }
  }
  return runs;
}

AsPath PathView::stripped() const {
  AsPath out;
  std::vector<Asn> dedup;
  for (const SegmentView seg : segments()) {
    if (seg.type == SegmentType::kSet) {
      out.append_segment(SegmentType::kSet, seg.asns);
      continue;
    }
    dedup.clear();
    for (Asn a : seg.asns) {
      if (dedup.empty() || dedup.back() != a) dedup.push_back(a);
    }
    out.append_segment(SegmentType::kSequence, dedup);
  }
  return out;
}

std::string PathView::to_string() const {
  std::string out;
  char buf[16];
  for (const SegmentView seg : segments()) {
    if (!out.empty()) out += ' ';
    if (seg.type == SegmentType::kSet) out += '[';
    for (std::size_t i = 0; i < seg.asns.size(); ++i) {
      if (i > 0) out += ' ';
      out.append(buf, std::to_chars(buf, buf + sizeof buf, seg.asns[i]).ptr);
    }
    if (seg.type == SegmentType::kSet) out += ']';
  }
  return out;
}

std::uint64_t PathView::hash() const {
  std::uint64_t seed = 0x5851f42d4c957f2dULL;
  for (const SegmentEnd& s : layout_) {
    seed = hash_combine(seed, std::uint64_t{s.end} << 8 |
                                  static_cast<std::uint8_t>(s.type));
  }
  return hash_row32(hops_.data(), hops_.size(), seed);
}

bool operator==(PathView a, PathView b) {
  return std::ranges::equal(a.hops_, b.hops_) &&
         std::ranges::equal(a.layout_, b.layout_);
}

// ---------------------------------------------------------------------------
// AsPath
// ---------------------------------------------------------------------------

AsPath AsPath::sequence(std::vector<Asn> asns) {
  AsPath p;
  p.hops_ = std::move(asns);
  return p;
}

AsPath AsPath::from_segments(const std::vector<PathSegment>& segments) {
  AsPath p;
  for (const auto& seg : segments) p.append_segment(seg.type, seg.asns);
  return p;
}

std::optional<AsPath> AsPath::parse(std::string_view text) {
  AsPath path;
  std::vector<Asn> current;
  bool in_set = false;

  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (c == ' ' || c == '\t') {
      ++i;
    } else if (c == '[') {
      if (in_set) return std::nullopt;
      path.append_segment(SegmentType::kSequence, current);
      current.clear();
      in_set = true;
      ++i;
    } else if (c == ']') {
      if (!in_set || current.empty()) return std::nullopt;
      path.append_segment(SegmentType::kSet, current);
      current.clear();
      in_set = false;
      ++i;
    } else if (c >= '0' && c <= '9') {
      Asn asn = 0;
      auto [p, ec] = std::from_chars(text.data() + i, text.data() + text.size(), asn);
      if (ec != std::errc()) return std::nullopt;
      current.push_back(asn);
      i = static_cast<std::size_t>(p - text.data());
    } else {
      return std::nullopt;
    }
  }
  if (in_set) return std::nullopt;
  path.append_segment(SegmentType::kSequence, current);
  return path;
}

void AsPath::append_segment(SegmentType type, std::span<const Asn> asns) {
  if (asns.empty()) return;
  if (asns.size() > UINT32_MAX - hops_.size()) {
    throw std::length_error("AsPath: more hops than a 32-bit layout holds");
  }
  // A first AS_SEQUENCE keeps the layout empty; anything after it (or a
  // leading AS_SET) spells out every segment.
  const bool single_sequence =
      hops_.empty() && type == SegmentType::kSequence;
  if (!single_sequence && layout_.empty() && !hops_.empty()) {
    layout_.push_back(
        {SegmentType::kSequence, static_cast<std::uint32_t>(hops_.size())});
  }
  hops_.insert(hops_.end(), asns.begin(), asns.end());
  if (!single_sequence) {
    layout_.push_back({type, static_cast<std::uint32_t>(hops_.size())});
  }
}

// ---------------------------------------------------------------------------
// PathPool
// ---------------------------------------------------------------------------

namespace {

/// Appends `src` to `arena`; `src` may lie inside `arena` itself, whose
/// storage the append may move.
template <typename T>
void append_arena(std::vector<T>& arena, std::span<const T> src) {
  const T* base = arena.data();
  const bool inside = !src.empty() &&
                      std::greater_equal<const T*>()(src.data(), base) &&
                      std::less<const T*>()(src.data(), base + arena.size());
  if (!inside) {
    arena.insert(arena.end(), src.begin(), src.end());
    return;
  }
  const auto at = static_cast<std::size_t>(src.data() - base);
  const std::size_t old = arena.size();
  arena.resize(old + src.size());
  std::copy_n(arena.data() + at, src.size(), arena.data() + old);
}

}  // namespace

PathPool::PathPool() : extents_(2), index_(16) {
  // id 0 == the empty path: no hops, no layout.
  const auto hash = static_cast<std::uint32_t>(PathView().hash());
  index_[hash & (index_.size() - 1)] = {hash, kEmptyPathId};
}

PathPool::PathId PathPool::intern(PathView path) {
  const auto hash = static_cast<std::uint32_t>(path.hash());
  const std::size_t mask = index_.size() - 1;
  std::size_t i = hash & mask;
  for (; index_[i].id != kNoPath; i = (i + 1) & mask) {
    if (index_[i].hash == hash && get(index_[i].id) == path) {
      return index_[i].id;
    }
  }
  if (size() >= kNoPath ||
      hops_.size() + path.hops().size() > UINT32_MAX ||
      layouts_.size() + path.layout().size() > UINT32_MAX) {
    throw std::length_error("PathPool: more paths or hops than 32-bit ids");
  }
  const auto id = static_cast<PathId>(size());
  append_arena(layouts_, path.layout());
  append_arena(hops_, path.hops());
  extents_.push_back({static_cast<std::uint32_t>(hops_.size()),
                      static_cast<std::uint32_t>(layouts_.size())});
  index_[i] = {hash, id};
  if (size() * 4 > index_.size() * 3) grow_index();
  return id;
}

void PathPool::grow_index() {
  std::vector<Slot> grown(index_.size() * 2);
  const std::size_t mask = grown.size() - 1;
  for (const Slot& slot : index_) {
    if (slot.id == kNoPath) continue;
    std::size_t i = slot.hash & mask;
    while (grown[i].id != kNoPath) i = (i + 1) & mask;
    grown[i] = slot;
  }
  index_ = std::move(grown);
}

}  // namespace bgpatoms::net
