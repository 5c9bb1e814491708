// BGP AS-path model.
//
// Paths are stored in wire order: the AS nearest the receiving peer first,
// the origin AS last. Segments follow RFC 4271: AS_SEQUENCE segments carry
// ordered hops; AS_SET segments carry the unordered remainder produced by
// route aggregation ("1 2 [3 4 5]" in the paper's notation).
//
// Every path has one flat representation: its hops in wire order, plus a
// segment layout that is empty for the empty path and for a single
// AS_SEQUENCE (almost every path), and otherwise lists each segment's type
// and end. PathView reads that representation wherever it lives: in an
// AsPath value, or in a PathPool's hop arena. All readers are PathView's;
// AsPath's delegate to them.
//
// The formation-distance analysis (paper §3.4) needs two derived views:
//   * runs_from_origin(): the path run-length encoded starting at the
//     origin, which keeps prepending visible as (asn, count) runs, and
//   * stripped(): consecutive duplicates removed (prepending collapsed).
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/asn.h"
#include "net/hash.h"

namespace bgpatoms::net {

enum class SegmentType : std::uint8_t { kSequence = 1, kSet = 2 };

/// One segment as a value, for building a path from explicit segments.
struct PathSegment {
  SegmentType type = SegmentType::kSequence;
  std::vector<Asn> asns;
};

/// One entry of a segment layout: the segment's type and the index one
/// past its last hop. Entries are in wire order and each segment holds at
/// least one hop.
struct SegmentEnd {
  SegmentType type = SegmentType::kSequence;
  std::uint32_t end = 0;

  friend auto operator<=>(const SegmentEnd&, const SegmentEnd&) = default;
};

/// One segment seen through a view.
struct SegmentView {
  SegmentType type = SegmentType::kSequence;
  std::span<const Asn> asns;
};

/// One run of a run-length-encoded path: `count` consecutive copies of `asn`.
struct AsRun {
  Asn asn = 0;
  std::uint16_t count = 1;

  friend auto operator<=>(const AsRun&, const AsRun&) = default;
};

class AsPath;
class PathSegments;

/// A non-owning view of one path. It is valid as long as the storage it
/// points into: the AsPath it came from, or the PathPool until its next
/// intern (see PathPool::get).
class PathView {
 public:
  /// The empty path.
  PathView() = default;

  /// `hops` in wire order and their segment layout: empty for a single
  /// AS_SEQUENCE, otherwise every segment in order, the last ending at
  /// hops.size(). A one-entry AS_SEQUENCE layout reads as the empty one.
  PathView(std::span<const Asn> hops, std::span<const SegmentEnd> layout)
      : hops_(hops), layout_(layout) {
    if (layout_.size() == 1 && layout_[0].type == SegmentType::kSequence) {
      layout_ = {};
    }
  }

  bool empty() const { return hops_.empty(); }
  /// Every hop in wire order, AS_SET members in stored order.
  std::span<const Asn> hops() const { return hops_; }
  std::span<const SegmentEnd> layout() const { return layout_; }
  PathSegments segments() const;

  /// Number of hops with AS_SET counting as a single hop (RFC 4271 path
  /// length semantics used for best-path selection).
  int selection_length() const;

  /// Origin AS: the last AS of the path if it ends in an AS_SEQUENCE or a
  /// singleton AS_SET; nullopt when the path ends in a multi-member AS_SET
  /// (origin unknown after aggregation) or is empty.
  std::optional<Asn> origin() const;

  /// True if any segment is an AS_SET.
  bool has_set() const;

  /// True if every AS_SET segment has exactly one member.
  bool sets_all_singleton() const;

  /// Copy with singleton AS_SETs rewritten as sequence hops (the paper's
  /// §2.4.4 expansion rule), merged with the sequences around them.
  /// Multi-member sets are left untouched; callers drop such paths.
  AsPath with_singleton_sets_expanded() const;

  /// hops() as an owned vector.
  std::vector<Asn> flat() const { return {hops_.begin(), hops_.end()}; }

  /// Run-length encoding starting from the ORIGIN (reverse of wire order).
  /// Only meaningful for pure-sequence paths; AS_SETs are flattened in
  /// place.
  std::vector<AsRun> runs_from_origin() const;

  /// Copy with consecutive duplicate hops removed within each
  /// AS_SEQUENCE (prepending collapsed).
  AsPath stripped() const;

  /// "1 2 [3 4 5]" notation; empty path renders as "".
  std::string to_string() const;

  /// Stable content hash over the hops and the layout.
  std::uint64_t hash() const;

  /// Structural equality: the same hops in the same segments.
  friend bool operator==(PathView a, PathView b);

 private:
  std::span<const Asn> hops_;
  std::span<const SegmentEnd> layout_;
};

/// The segments of a view, in wire order: a single AS_SEQUENCE when the
/// layout is empty (none for the empty path).
class PathSegments {
 public:
  class Iterator;

  explicit PathSegments(PathView path) : path_(path) {}

  std::size_t size() const {
    if (!path_.layout().empty()) return path_.layout().size();
    return path_.empty() ? 0 : 1;
  }
  SegmentView operator[](std::size_t i) const {
    const auto layout = path_.layout();
    if (layout.empty()) return {SegmentType::kSequence, path_.hops()};
    const std::uint32_t begin = i == 0 ? 0 : layout[i - 1].end;
    return {layout[i].type, path_.hops().subspan(begin, layout[i].end - begin)};
  }
  Iterator begin() const;
  Iterator end() const;

 private:
  PathView path_;
};

class PathSegments::Iterator {
 public:
  Iterator(PathSegments segs, std::size_t i) : segs_(segs), i_(i) {}

  SegmentView operator*() const { return segs_[i_]; }
  Iterator& operator++() {
    ++i_;
    return *this;
  }
  bool operator==(const Iterator& o) const { return i_ == o.i_; }

 private:
  PathSegments segs_;
  std::size_t i_;
};

inline PathSegments::Iterator PathSegments::begin() const {
  return {*this, 0};
}
inline PathSegments::Iterator PathSegments::end() const {
  return {*this, size()};
}
inline PathSegments PathView::segments() const { return PathSegments(*this); }

/// An owned path: the value type for parsing, the wire and MRT codecs and
/// tests. It holds the flat representation PathView reads; every reader
/// below delegates to view().
class AsPath {
 public:
  AsPath() = default;

  /// A copy of `path`.
  explicit AsPath(PathView path)
      : hops_(path.hops().begin(), path.hops().end()),
        layout_(path.layout().begin(), path.layout().end()) {}

  /// A pure AS_SEQUENCE path, peer-side first, origin last.
  static AsPath sequence(std::vector<Asn> asns);

  /// A path from explicit segments (empty segments are dropped).
  static AsPath from_segments(const std::vector<PathSegment>& segments);

  /// Parses the paper's textual notation: space-separated ASNs with
  /// bracketed AS_SETs, e.g. "1 2 [3 4 5]". Returns nullopt on error.
  static std::optional<AsPath> parse(std::string_view text);

  /// Appends one segment after the last; an empty `asns` is ignored.
  /// Adjacent AS_SEQUENCE segments stay distinct from their merge.
  void append_segment(SegmentType type, std::span<const Asn> asns);

  PathView view() const { return PathView(hops_, layout_); }
  operator PathView() const { return view(); }

  bool empty() const { return hops_.empty(); }
  PathSegments segments() const { return view().segments(); }
  int selection_length() const { return view().selection_length(); }
  std::optional<Asn> origin() const { return view().origin(); }
  bool has_set() const { return view().has_set(); }
  bool sets_all_singleton() const { return view().sets_all_singleton(); }
  AsPath with_singleton_sets_expanded() const {
    return view().with_singleton_sets_expanded();
  }
  std::vector<Asn> flat() const { return view().flat(); }
  std::vector<AsRun> runs_from_origin() const {
    return view().runs_from_origin();
  }
  AsPath stripped() const { return view().stripped(); }
  std::string to_string() const { return view().to_string(); }
  std::uint64_t hash() const { return view().hash(); }

  friend auto operator<=>(const AsPath&, const AsPath&) = default;

 private:
  std::vector<Asn> hops_;
  std::vector<SegmentEnd> layout_;  // empty for a single AS_SEQUENCE
};

/// Interning pool mapping equal paths to dense 32-bit ids, assigned in
/// first-intern order.
///
/// Id 0 is reserved for the empty path, so "prefix missing at this vantage
/// point" can be encoded as path id 0 throughout the analysis layer.
///
/// Storage is flat: every path's hops sit end to end in one arena, and its
/// layout entries in a second; one extent per path locates both. An
/// open-addressing index over the paths' stored hashes finds an equal path;
/// equality is always checked in full after a hash match. Copying a pool
/// copies four vectors, and interning a new path allocates only when a
/// vector grows.
class PathPool {
 public:
  using PathId = std::uint32_t;
  static constexpr PathId kEmptyPathId = 0;

  PathPool();

  /// Returns the id of the path with these hops and this layout (see
  /// PathView), interning it on first sight. The spans may point into
  /// this pool's own storage.
  PathId intern(std::span<const Asn> hops,
                std::span<const SegmentEnd> layout = {}) {
    return intern(PathView(hops, layout));
  }
  PathId intern(PathView path);

  /// The path with id `id`. The view points into the pool's storage: it
  /// stays valid until the next intern into this pool, which may move
  /// that storage. get() is const, so any number of threads may read a
  /// pool that nobody interns into.
  PathView get(PathId id) const {
    const Extent b = extents_[id];
    const Extent e = extents_[id + 1];
    return PathView({hops_.data() + b.hop, e.hop - b.hop},
                    {layouts_.data() + b.layout, e.layout - b.layout});
  }
  std::size_t size() const { return extents_.size() - 1; }

 private:
  struct Extent {
    std::uint32_t hop = 0;     // first hop in hops_
    std::uint32_t layout = 0;  // first entry in layouts_
  };
  struct Slot {
    std::uint32_t hash = 0;  // low 32 bits of PathView::hash()
    PathId id = kNoPath;
  };
  static constexpr PathId kNoPath = UINT32_MAX;

  void grow_index();

  std::vector<Asn> hops_;
  std::vector<SegmentEnd> layouts_;
  /// Path i spans [extents_[i], extents_[i + 1]) of both arenas.
  std::vector<Extent> extents_;
  /// Linear probing over a power-of-two table, at most 3/4 full.
  std::vector<Slot> index_;
};

}  // namespace bgpatoms::net
