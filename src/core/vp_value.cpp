#include "core/vp_value.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <unordered_map>

#include "core/incremental.h"
#include "core/parallel.h"
#include "net/hash.h"
#include "obs/obs.h"

namespace bgpatoms::core {

namespace {

/// Below this row count candidate scoring runs single-threaded (the same
/// gate compute_atoms applies: tiny inputs lose more to dispatch than
/// they gain from workers).
constexpr std::size_t kParallelMinRows = 4096;

/// Sum over classes of C(size, 2): row pairs grouped together. With the
/// masked partition nested in the full one, the pairs the two partitions
/// disagree on are exactly S_masked - S_full.
std::uint64_t pairs_together(std::span<const std::uint32_t> labels,
                             std::size_t groups) {
  std::vector<std::uint64_t> size(groups, 0);
  for (const std::uint32_t l : labels) ++size[l];
  std::uint64_t s = 0;
  for (const std::uint64_t c : size) s += c * (c - 1) / 2;
  return s;
}

}  // namespace

VpSelection select_vps(const AtomSignatureMatrix& matrix,
                       const VpSelectOptions& options) {
  OBS_SPAN("vp_value.select");
  const std::size_t n = matrix.num_prefixes();
  const std::size_t num_vps = matrix.num_vps();

  VpSelection out;
  out.total_vps = num_vps;

  // The selection target: the full (all-columns) partition, grouped by
  // the atom kernels' row grouping on this thread.
  std::uint64_t s_full = 0;
  for (const auto& group : atoms_detail::group_rows(matrix, nullptr)) {
    ++out.full_groups;
    s_full += std::uint64_t{group.size()} * (group.size() - 1) / 2;
  }
  const std::uint64_t all_pairs =
      n < 2 ? 0 : static_cast<std::uint64_t>(n) * (n - 1) / 2;

  // Selection state: canonical labels of the masked partition so far
  // (zero columns selected = one class holding every row).
  std::vector<std::uint32_t> labels(n, 0);
  std::size_t groups = n == 0 ? 0 : 1;
  const auto fidelity_of = [&](std::size_t g) {
    return out.full_groups == 0
               ? 1.0
               : static_cast<double>(g) / static_cast<double>(out.full_groups);
  };
  out.fidelity = fidelity_of(groups);

  std::vector<std::uint32_t> remaining(num_vps);
  std::iota(remaining.begin(), remaining.end(), 0u);
  TaskPool pool(n >= kParallelMinRows ? options.threads : 1);

  while (!remaining.empty() && out.fidelity < options.min_fidelity &&
         (options.budget == 0 || out.steps.size() < options.budget)) {
    // Score every remaining candidate: classes the column would add,
    // counted as distinct (current label, cell) pairs minus the current
    // class count. Each task writes only its own slot, so the values are
    // identical for any worker count.
    std::vector<std::size_t> gain(remaining.size(), 0);
    pool.run(remaining.size(), [&](std::size_t k) {
      const std::uint32_t c = remaining[k];
      std::vector<std::uint64_t> keys(n);
      for (std::size_t i = 0; i < n; ++i) {
        keys[i] =
            (static_cast<std::uint64_t>(labels[i]) << 32) | matrix.cell(i, c);
      }
      std::sort(keys.begin(), keys.end());
      gain[k] = static_cast<std::size_t>(
                    std::unique(keys.begin(), keys.end()) - keys.begin()) -
                groups;
    });

    // Sequential argmax with the deterministic tie-break: larger gain,
    // then lexicographically smaller column content, then smaller column
    // index (remaining is ascending, so keeping the earlier candidate on
    // byte-identical columns is the index tie-break).
    std::size_t best = 0;
    for (std::size_t k = 1; k < remaining.size(); ++k) {
      if (gain[k] < gain[best]) continue;
      if (gain[k] > gain[best]) {
        best = k;
        continue;
      }
      const std::uint32_t a = remaining[k];
      const std::uint32_t b = remaining[best];
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t ca = matrix.cell(i, a);
        const std::uint32_t cb = matrix.cell(i, b);
        if (ca != cb) {
          if (ca < cb) best = k;
          break;
        }
      }
    }
    if (gain[best] == 0) {
      // Every remaining column is constant within every current class, so
      // no set of them can refine further: the full partition is already
      // reproduced (fidelity 1.0) and the loop condition caught it — this
      // is a belt-and-braces exit, not a reachable state.
      break;
    }
    const std::uint32_t chosen = remaining[best];

    // Apply: split classes by the chosen column, renumbering by
    // first-encounter row order to keep the labels canonical.
    std::unordered_map<std::uint64_t, std::uint32_t> renum;
    renum.reserve(groups + gain[best]);
    std::uint32_t next = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(labels[i]) << 32) |
          matrix.cell(i, chosen);
      const auto [it, inserted] = renum.try_emplace(key, next);
      if (inserted) ++next;
      labels[i] = it->second;
    }
    groups = next;

    VpStep step;
    step.vp = chosen;
    step.gain = gain[best];
    step.groups = groups;
    step.fidelity = fidelity_of(groups);
    const std::uint64_t s_sel = pairs_together(labels, groups);
    step.rand_index =
        all_pairs == 0
            ? 1.0
            : 1.0 - static_cast<double>(s_sel - s_full) /
                        static_cast<double>(all_pairs);
    step.split_distance = out.full_groups - groups;
    out.fidelity = step.fidelity;
    out.steps.push_back(step);
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(best));
  }

  out.vps.reserve(out.steps.size());
  for (const auto& step : out.steps) out.vps.push_back(step.vp);
  std::sort(out.vps.begin(), out.vps.end());
  // The greedy relabeling kept `labels` canonical at every step, so this
  // equals partition_fingerprint(compute_atoms(...)) over out.vps.
  out.fingerprint = hash_row32(labels.data(), n, kPartitionFingerprintSeed);
  OBS_COUNT_N("vp_value.selected", out.steps.size());
  return out;
}

}  // namespace bgpatoms::core
