// Correlation of atom structure with BGP update records (paper §3.3, §4.2,
// §5.3 — Figures 3, 10, 15).
//
// For every entity (atom, or AS = all prefixes sharing an origin) of size
// k, Pr_full(k) is the share of update records touching the entity that
// contain *all* k of its prefixes:
//
//   Pr_full(k) = Σ_e N_all(e) / Σ_e (N_all(e) + N_partial(e))
//
// summed over entities of size k. The AS population is additionally split
// into "all single-prefix atoms" vs "has a multi-prefix atom" (§4.2).
//
// The correlator is incremental: records are fed one chunk at a time, so
// core::analyze correlates a streamed update cursor (bgp::UpdateStreamView)
// without the stream ever being materialized. Results are bit-identical
// for any chunking of the same record sequence.
#pragma once

#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "bgp/records.h"
#include "core/atoms.h"

namespace bgpatoms::core {

struct PrFullCurve {
  /// Index k (1-based) -> Pr_full(k); NaN when no entity of size k was
  /// touched by any update.
  std::vector<double> pr;
  std::vector<std::size_t> n_all;
  std::vector<std::size_t> n_any;  // N_all + N_partial

  double at(std::size_t k) const {
    return k < pr.size() ? pr[k] : std::numeric_limits<double>::quiet_NaN();
  }
};

struct UpdateCorrelation {
  PrFullCurve atom;       // atoms with k prefixes
  PrFullCurve as_all;     // ASes with k prefixes
  PrFullCurve as_multi;   // ASes with >= 1 atom of size > 1
  PrFullCurve as_single;  // ASes whose atoms are all single-prefix
  std::size_t updates_seen = 0;
};

/// Streaming accumulator: builds the entity populations from `atoms` once,
/// then counts fed update records. `atoms` must outlive the correlator.
class UpdateCorrelator {
 public:
  explicit UpdateCorrelator(const AtomSet& atoms, std::size_t max_k = 16);
  ~UpdateCorrelator();
  UpdateCorrelator(UpdateCorrelator&&) noexcept;
  UpdateCorrelator& operator=(UpdateCorrelator&&) noexcept;

  /// Counts one batch of records (timestamp order across calls).
  void feed(std::span<const bgp::UpdateRecord> records);

  /// Snapshot of the curves over everything fed so far.
  UpdateCorrelation result() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Correlates `updates` (as captured into the dataset that produced
/// `atoms`) with the atom/AS structure. `max_k` bounds the reported curve.
UpdateCorrelation correlate_updates(
    const AtomSet& atoms, const std::vector<bgp::UpdateRecord>& updates,
    std::size_t max_k = 16);

}  // namespace bgpatoms::core
