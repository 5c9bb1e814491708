#include "core/analyze.h"

#include "obs/obs.h"

namespace bgpatoms::core {

namespace {

/// sanitize() under its per-stage span, with the shared work counters.
SanitizedSnapshot sanitize_traced(bgp::SnapshotView& view,
                                  const bgp::Snapshot& snap,
                                  const SanitizeConfig& config) {
  OBS_SPAN("analyze.sanitize");
  return sanitize(view, snap, config);
}

/// compute_atoms() under its per-stage span. Atom counts are work items
/// (a pure function of the snapshot), so counting them keeps the
/// backend-equivalence and thread-determinism contracts intact.
AtomSet atoms_traced(const SanitizedSnapshot& san, const AtomOptions& options) {
  OBS_SPAN("analyze.atoms");
  OBS_COUNT("analyze.atom_sets_computed");
  AtomSet atoms = compute_atoms(san, options);
  OBS_COUNT_N("analyze.atoms_produced", atoms.atoms.size());
  return atoms;
}

/// stability() under its per-stage span.
StabilityResult stability_traced(const AtomSet& reference,
                                 const AtomSet& later) {
  OBS_SPAN("analyze.stability");
  return stability(reference, later);
}

/// Appends `san`'s products to (sanitized, atom_sets), computing atoms
/// after insertion so AtomSet::snapshot points at the deque element.
const AtomSet& emplace_products(std::deque<SanitizedSnapshot>& sanitized,
                                std::deque<AtomSet>& atom_sets,
                                SanitizedSnapshot&& san,
                                const AtomOptions& options) {
  sanitized.push_back(std::move(san));
  atom_sets.push_back(atoms_traced(sanitized.back(), options));
  return atom_sets.back();
}

}  // namespace

AnalysisResult analyze(bgp::SnapshotView& snapshots,
                       bgp::UpdateStreamView* updates,
                       const AnalysisConfig& config) {
  AnalysisResult out;
  const std::size_t ref = config.reference_snapshot;
  const bool vp_select = config.vp_budget > 0 || config.vp_min_fidelity > 0.0;

  // Masked-analysis state, filled when the reference snapshot runs
  // select_vps. Later snapshots are masked by *peer identity* (asn,
  // address, collector), not column position: sanitization can drop or
  // reorder peers between snapshots, so the reference's column indices
  // don't transfer.
  std::vector<bgp::PeerIdentity> selected_peers;
  AtomOptions ref_options = config.atoms;  // gains vp_subset at i == ref

  // AtomOptions for a snapshot at-or-after the reference: the selected
  // columns of `san`, or config.atoms untouched while no selection exists.
  const auto options_for = [&](const SanitizedSnapshot& san) {
    AtomOptions options = config.atoms;
    if (!vp_select || !out.vp_selection) return options;
    for (std::uint32_t col = 0; col < san.vps.size(); ++col) {
      for (const bgp::PeerIdentity& peer : selected_peers) {
        if (san.vps[col].peer == peer) {
          options.vp_subset.push_back(col);
          break;
        }
      }
    }
    return options;
  };

  // Snapshots before the reference whose stability can only be computed
  // once the reference's atoms exist (reference_snapshot > 0). In
  // keep_all mode out.sanitized/atom_sets already retain them; this
  // buffer is the streamed path's bounded stand-in.
  std::deque<SanitizedSnapshot> pending_san;
  std::deque<AtomSet> pending_atoms;

  std::size_t i = 0;
  for (const bgp::Snapshot* snap = snapshots.next_snapshot(); snap != nullptr;
       snap = snapshots.next_snapshot(), ++i) {
    ++out.snapshots_seen;
    // Backend-independent work accounting: both counters must come out
    // identical for a DatasetView and an ArchiveView over the same
    // campaign (test_views pins this), catching silent double-reads or
    // skipped sections that byte-identical *products* alone would miss.
    OBS_COUNT("analyze.snapshots_seen");
    OBS_COUNT_N("analyze.records_seen", bgp::Dataset::record_count(*snap));
    const bool keep = config.keep_all || i == ref;
    const bool buffer =
        !keep && config.with_stability && i >= 1 && i < ref;
    if (!keep && !buffer && !(config.with_stability && i >= 1)) {
      continue;  // consumed (on-disk order) but nothing to compute
    }

    if (keep) {
      SanitizedSnapshot san =
          sanitize_traced(snapshots, *snap, config.sanitize);
      if (vp_select && i == ref) {
        OBS_SPAN("analyze.vp_select");
        AtomOptions probe = config.atoms;
        probe.vp_subset.clear();
        const AtomSignatureMatrix matrix =
            AtomSignatureMatrix::build(san, probe, nullptr);
        VpSelectOptions sel;
        sel.budget = config.vp_budget;
        sel.min_fidelity =
            config.vp_min_fidelity > 0.0 ? config.vp_min_fidelity : 1.0;
        sel.threads = config.atoms.threads;
        out.vp_selection = select_vps(matrix, sel);
        selected_peers.reserve(out.vp_selection->vps.size());
        for (const std::uint32_t col : out.vp_selection->vps) {
          selected_peers.push_back(san.vps[col].peer);
        }
        ref_options.vp_subset = out.vp_selection->vps;
      }
      // Pre-reference keep_all snapshots stay unmasked (streamed parity:
      // the selection doesn't exist yet when they pass by).
      const AtomOptions options = i == ref   ? ref_options
                                  : i > ref  ? options_for(san)
                                             : config.atoms;
      emplace_products(out.sanitized, out.atom_sets, std::move(san), options);
      if (i == ref) out.reference_index = out.atom_sets.size() - 1;
    } else if (buffer) {
      emplace_products(pending_san, pending_atoms,
                       sanitize_traced(snapshots, *snap, config.sanitize),
                       config.atoms);
    } else {
      // Transient later snapshot (streamed stability): products live only
      // for this iteration; i > ref, so the reference already exists.
      const SanitizedSnapshot san =
          sanitize_traced(snapshots, *snap, config.sanitize);
      const AtomSet atoms = atoms_traced(san, options_for(san));
      out.stability.push_back(
          {i, san.timestamp, stability_traced(out.reference_atoms(), atoms)});
      continue;
    }

    if (!config.with_stability) continue;
    if (i == ref) {
      // Reference just materialized: emit the buffered/retained earlier
      // snapshots in capture order, then the reference against itself
      // when i >= 1 — matching the historical reference-vs-every-other-
      // snapshot loop exactly.
      if (config.keep_all) {
        for (std::size_t j = 1; j < ref; ++j) {
          out.stability.push_back({j, out.sanitized[j].timestamp,
                                   stability_traced(out.reference_atoms(),
                                                    out.atom_sets[j])});
        }
      } else {
        for (std::size_t j = 0; j < pending_atoms.size(); ++j) {
          out.stability.push_back({j + 1, pending_san[j].timestamp,
                                   stability_traced(out.reference_atoms(),
                                                    pending_atoms[j])});
        }
        pending_atoms.clear();
        pending_san.clear();
      }
      if (i >= 1) {
        out.stability.push_back(
            {i, out.reference().timestamp,
             stability_traced(out.reference_atoms(), out.reference_atoms())});
      }
    } else if (i > ref && i >= 1) {
      // keep_all retained snapshot after the reference.
      out.stability.push_back({i, out.sanitized.back().timestamp,
                               stability_traced(out.reference_atoms(),
                                                out.atom_sets.back())});
    }
  }

  if (out.has_reference()) {
    {
      OBS_SPAN("analyze.stats");
      out.stats = general_stats(out.reference_atoms());
    }
    if (config.with_updates && updates != nullptr) {
      OBS_SPAN("analyze.update_corr");
      // One drain of the update cursor feeds both consumers, chunk by
      // chunk; the correlator's result is independent of the chunking.
      UpdateCorrelator corr(out.reference_atoms(), config.update_max_k);
      std::optional<IncrementalAtoms> inc;
      if (config.incremental) {
        // ref_options carries vp_subset when selection ran: the follow
        // maintains the same masked partition the reference atoms hold.
        inc.emplace(out.reference(), snapshots.paths(), ref_options);
      }
      for (auto chunk = updates->next_chunk(); !chunk.empty();
           chunk = updates->next_chunk()) {
        corr.feed(chunk);
        if (inc) inc->apply(chunk);
      }
      out.correlation = corr.result();
      if (inc) {
        LiveUpdateDrift drift;
        const AtomSet live_atoms = inc->atoms();
        drift.atoms = live_atoms.atoms.size();
        drift.vs_reference =
            stability_traced(out.reference_atoms(), live_atoms);
        drift.counters = inc->counters();
        out.live = drift;
      }
    }
  }
  return out;
}

}  // namespace bgpatoms::core
