// Formation distance of policy atoms (paper §3.4, §4.3, §5.4 — Table 2,
// Figures 1, 4, 11).
//
// Definitions (§3.4.1):
//   * splitting point between two atoms at a peer: the 1-based index
//     (counted from the origin in unique-AS hops) of the first AS whose
//     policy distinguishes the two paths; 1 when exactly one atom is
//     invisible at that peer;
//   * overall splitting point: minimum over peers;
//   * formation distance d(a): maximum splitting point against every other
//     atom of the same origin AS; 1 for an origin's only atom;
//   * per-AS first/last split: min/max of d(a) over the origin's atoms.
//
// Prepending handling (§3.4.2): methods (ii) and (iii) are implemented,
// the two Figure 1 compares. Both group on raw paths; (iii) — compare
// run-length-encoded paths so a prepend-count difference splits at the
// AS applying the prepend — is the paper's choice and the default.
// Method (i), stripping prepends before grouping, is not offered.
#pragma once

#include <cstdint>
#include <vector>

#include "core/atoms.h"

namespace bgpatoms::core {

enum class PrependMethod : std::uint8_t {
  kStripAfterGrouping = 2,   // (ii)  — original paper's (inferred) method
  kRunAware = 3,             // (iii) — the paper's adopted method
};

/// Why an atom formed at distance 1 (paper §3.4.3 / §4.3 breakdown).
enum class DistanceOneCause : std::uint8_t {
  kNotDistanceOne = 0,
  kOnlyAtomOfOrigin,  // the origin has a single atom
  kUniquePeerSet,     // visibility differs from every sibling atom
  kPrepending,        // distinguished only by prepend counts
  kOther,             // e.g. MOAS origin mismatch at the first hop
};

struct FormationResult {
  /// d(a) per atom, parallel to AtomSet::atoms. Distances are capped at
  /// kMaxDistance; unreachable (indistinguishable under method (ii)) atoms
  /// report distance 1.
  static constexpr int kMaxDistance = 16;
  std::vector<std::uint8_t> distance;
  std::vector<DistanceOneCause> cause;

  /// Histograms over distances 1..kMaxDistance (index 0 unused).
  std::vector<std::size_t> atoms_at_distance;
  std::vector<std::size_t> first_split_at;  // per-AS d_min histogram
  std::vector<std::size_t> all_split_at;    // per-AS d_max histogram
  /// Histogram excluding origins that have a single atom (Fig. 4 dashed).
  std::vector<std::size_t> atoms_at_distance_multi;

  std::size_t total_atoms = 0;
  std::size_t total_multi_atoms = 0;  // atoms of multi-atom origins
  std::size_t total_ases = 0;

  /// Share of atoms with d(a) == d (1-based).
  double share_at(int d) const {
    return total_atoms
               ? static_cast<double>(atoms_at_distance[d]) / total_atoms
               : 0.0;
  }
  double share_at_multi(int d) const {
    return total_multi_atoms ? static_cast<double>(atoms_at_distance_multi[d]) /
                                   total_multi_atoms
                             : 0.0;
  }
  /// Cumulative share of atoms formed at distance <= d.
  double cumulative_share(int d) const;
  double cause_share(DistanceOneCause c) const;
};

FormationResult formation_distance(const AtomSet& atoms,
                                   PrependMethod method = PrependMethod::kRunAware);

/// Splitting point of two paths under `method`, counted from the origin in
/// unique-AS hops; returns INT32_MAX when indistinguishable. Exposed for
/// tests (the §3.4.2 worked example).
std::int32_t split_point(net::PathView a, net::PathView b,
                         PrependMethod method);

}  // namespace bgpatoms::core
