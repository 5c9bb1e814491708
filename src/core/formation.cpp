#include "core/formation.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "obs/obs.h"

namespace bgpatoms::core {

namespace {

/// Compares two origin-rooted run-length encodings. Returns the 1-based
/// unique-AS-hop index of the first policy difference and whether that
/// difference is a prepend-count mismatch (same ASes, different copies).
struct RunSplit {
  std::int32_t distance = INT32_MAX;
  bool by_prepend = false;
};

/// The origin-rooted runs `method` compares: those of the stripped path
/// under method (ii), of the path itself otherwise.
std::vector<net::AsRun> runs_under(net::PathView path, PrependMethod method) {
  return method == PrependMethod::kStripAfterGrouping
             ? path.stripped().runs_from_origin()
             : path.runs_from_origin();
}

RunSplit split_runs(std::span<const net::AsRun> a,
                    std::span<const net::AsRun> b, bool count_aware) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i].asn != b[i].asn) {
      return {static_cast<std::int32_t>(i + 1), false};
    }
    if (count_aware && a[i].count != b[i].count) {
      // Same AS, different number of copies: the policy difference is the
      // prepending applied by this AS.
      return {static_cast<std::int32_t>(i + 1), true};
    }
  }
  if (a.size() != b.size()) {
    return {static_cast<std::int32_t>(n + 1), false};
  }
  return {};
}

}  // namespace

std::int32_t split_point(net::PathView a, net::PathView b,
                         PrependMethod method) {
  if (a.empty() || b.empty()) return a.empty() && b.empty() ? INT32_MAX : 1;
  const bool count_aware = method == PrependMethod::kRunAware;
  return split_runs(runs_under(a, method), runs_under(b, method), count_aware)
      .distance;
}

double FormationResult::cumulative_share(int d) const {
  if (total_atoms == 0) return 0.0;
  std::size_t n = 0;
  for (int i = 1; i <= d && i <= kMaxDistance; ++i) n += atoms_at_distance[i];
  return static_cast<double>(n) / static_cast<double>(total_atoms);
}

double FormationResult::cause_share(DistanceOneCause c) const {
  if (total_atoms == 0) return 0.0;
  std::size_t n = 0;
  for (auto x : cause) {
    if (x == c) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(total_atoms);
}

FormationResult formation_distance(const AtomSet& atoms,
                                   PrependMethod method) {
  OBS_SPAN("analyze.formation");
  FormationResult out;
  const std::size_t n_atoms = atoms.atoms.size();
  out.distance.assign(n_atoms, 1);
  out.cause.assign(n_atoms, DistanceOneCause::kNotDistanceOne);
  out.atoms_at_distance.assign(FormationResult::kMaxDistance + 1, 0);
  out.atoms_at_distance_multi.assign(FormationResult::kMaxDistance + 1, 0);
  out.first_split_at.assign(FormationResult::kMaxDistance + 1, 0);
  out.all_split_at.assign(FormationResult::kMaxDistance + 1, 0);
  out.total_atoms = n_atoms;
  out.total_ases = atoms.atoms_by_origin.size();

  const net::PathPool& pool = atoms.paths();
  const bool count_aware = method == PrependMethod::kRunAware;

  // Lazy origin-rooted run cache per path id.
  std::vector<std::vector<net::AsRun>> runs(pool.size());
  std::vector<char> runs_ready(pool.size(), 0);
  auto runs_of = [&](bgp::PathId id) -> std::span<const net::AsRun> {
    if (!runs_ready[id]) {
      runs[id] = runs_under(pool.get(id), method);
      runs_ready[id] = 1;
    }
    return runs[id];
  };

  struct PairSplit {
    std::int32_t distance = INT32_MAX;
    bool visibility = false;  // split forced by differing VP sets
    bool prepend = false;     // realized by a run-0.. prepend mismatch
  };

  auto pair_split = [&](const Atom& a, const Atom& b) -> PairSplit {
    PairSplit ps;
    // Walk the two sorted (vp, path) lists in lockstep. A VP present in
    // exactly one list forces splitting point 1 ("empty path" rule). A VP
    // seeing both contributes its run comparison.
    std::size_t i = 0, j = 0;
    bool prepend_at_min = false;
    std::int32_t best = INT32_MAX;
    while (i < a.paths.size() || j < b.paths.size()) {
      if (i < a.paths.size() &&
          (j >= b.paths.size() || a.paths[i].first < b.paths[j].first)) {
        ps.visibility = true;
        best = 1;
        ++i;
        continue;
      }
      if (j < b.paths.size() &&
          (i >= a.paths.size() || b.paths[j].first < a.paths[i].first)) {
        ps.visibility = true;
        best = 1;
        ++j;
        continue;
      }
      // Same VP.
      if (a.paths[i].second != b.paths[j].second) {
        const RunSplit rs =
            split_runs(runs_of(a.paths[i].second), runs_of(b.paths[j].second),
                       count_aware);
        if (rs.distance < best) {
          best = rs.distance;
          prepend_at_min = rs.by_prepend;
        }
      }
      ++i;
      ++j;
      if (best == 1 && ps.visibility) break;  // cannot get lower
    }
    ps.distance = best;
    ps.prepend = prepend_at_min && best != INT32_MAX && !ps.visibility;
    return ps;
  };

  // Union-find scratch for method (ii): atoms whose stripped paths agree
  // everywhere are indistinguishable and must be treated as one atom when
  // counting — this is precisely the flaw §3.4.2 demonstrates.
  std::vector<std::uint32_t> uf;
  std::function<std::uint32_t(std::uint32_t)> find_root =
      [&](std::uint32_t x) {
        while (uf[x] != x) x = uf[x] = uf[uf[x]];
        return x;
      };

  for (const auto& [origin, group] : atoms.atoms_by_origin) {
    (void)origin;
    if (group.size() == 1) {
      const std::uint32_t a = group.front();
      out.distance[a] = 1;
      out.cause[a] = DistanceOneCause::kOnlyAtomOfOrigin;
      out.first_split_at[1] += 1;
      out.all_split_at[1] += 1;
      out.atoms_at_distance[1] += 1;
      continue;
    }
    // Pairwise within the origin. Guard against pathological fan-out by
    // sampling at most kMaxSiblings comparison partners per atom (the max
    // is then a lower bound; origins this large are vanishingly rare).
    constexpr std::size_t kMaxSiblings = 512;
    const std::size_t m = group.size();
    const std::size_t step = m > kMaxSiblings ? m / kMaxSiblings : 1;

    uf.assign(m, 0);
    for (std::uint32_t i = 0; i < m; ++i) uf[i] = i;

    struct AtomAccum {
      std::int32_t d = 1;
      bool any_visibility = false;
      bool any_prepend = false;
    };
    std::vector<AtomAccum> acc(m);

    for (std::size_t ia = 0; ia < m; ++ia) {
      const Atom& a = atoms.atoms[group[ia]];
      for (std::size_t ib = ia + 1; ib < m; ib += step) {
        const PairSplit ps = pair_split(a, atoms.atoms[group[ib]]);
        if (ps.distance == INT32_MAX) {
          // Indistinguishable (method (ii) only): merge for counting.
          uf[find_root(static_cast<std::uint32_t>(ia))] =
              find_root(static_cast<std::uint32_t>(ib));
          continue;
        }
        for (std::size_t side : {ia, ib}) {
          acc[side].d = std::max(acc[side].d, ps.distance);
          acc[side].any_visibility |= ps.visibility;
          acc[side].any_prepend |= ps.prepend;
        }
      }
    }

    // Fold accumulators into union classes; count each class once.
    int as_min = FormationResult::kMaxDistance;
    int as_max = 1;
    std::vector<char> counted(m, 0);
    for (std::size_t ia = 0; ia < m; ++ia) {
      const std::uint32_t root = find_root(static_cast<std::uint32_t>(ia));
      // Class-wide distance = max over members (a member's finite splits).
      AtomAccum cls = acc[ia];
      for (std::size_t ib = 0; ib < m; ++ib) {
        if (find_root(static_cast<std::uint32_t>(ib)) != root) continue;
        cls.d = std::max(cls.d, acc[ib].d);
        cls.any_visibility |= acc[ib].any_visibility;
        cls.any_prepend |= acc[ib].any_prepend;
      }
      const int capped =
          std::min<std::int32_t>(cls.d, FormationResult::kMaxDistance);
      out.distance[group[ia]] = static_cast<std::uint8_t>(capped);
      if (capped == 1) {
        // Priority: a unique vantage-point set (§3.4.3 cause ii) over
        // prepending (cause iii) over anything else (MOAS, aggregation).
        out.cause[group[ia]] = cls.any_visibility
                                   ? DistanceOneCause::kUniquePeerSet
                                   : (cls.any_prepend
                                          ? DistanceOneCause::kPrepending
                                          : DistanceOneCause::kOther);
      }
      if (!counted[root]) {
        counted[root] = 1;
        out.atoms_at_distance[capped] += 1;
        out.atoms_at_distance_multi[capped] += 1;
        ++out.total_multi_atoms;
        as_min = std::min(as_min, capped);
        as_max = std::max(as_max, capped);
      } else {
        // Merged duplicates are not counted; keep totals consistent.
        --out.total_atoms;
      }
    }
    out.first_split_at[as_min] += 1;
    out.all_split_at[as_max] += 1;
  }
  return out;
}

}  // namespace bgpatoms::core
