#include "core/update_corr.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "obs/obs.h"

namespace bgpatoms::core {

namespace {

/// One entity population: prefix -> entity, entity -> size.
struct Entities {
  std::unordered_map<bgp::PrefixId, std::uint32_t> of_prefix;
  std::vector<std::uint32_t> size;
  std::vector<std::size_t> n_all, n_any;

  void finalize_entity_counts() {
    n_all.assign(size.size(), 0);
    n_any.assign(size.size(), 0);
  }
};

PrFullCurve make_curve(const Entities& e, std::size_t max_k) {
  PrFullCurve c;
  c.pr.assign(max_k + 1, std::numeric_limits<double>::quiet_NaN());
  c.n_all.assign(max_k + 1, 0);
  c.n_any.assign(max_k + 1, 0);
  for (std::size_t i = 0; i < e.size.size(); ++i) {
    const std::size_t k = e.size[i];
    if (k == 0 || k > max_k) continue;
    c.n_all[k] += e.n_all[i];
    c.n_any[k] += e.n_any[i];
  }
  for (std::size_t k = 1; k <= max_k; ++k) {
    if (c.n_any[k] > 0) {
      c.pr[k] = static_cast<double>(c.n_all[k]) /
                static_cast<double>(c.n_any[k]);
    }
  }
  return c;
}

}  // namespace

struct UpdateCorrelator::Impl {
  std::size_t max_k = 16;
  Entities atom_e;
  Entities as_e;
  std::vector<bool> as_has_multi_atom;
  std::size_t updates_seen = 0;

  // Per-record scratch, reused across feeds.
  std::vector<bgp::PrefixId> rec_prefixes;
  std::unordered_map<std::uint32_t, std::uint32_t> touched;  // entity -> count

  void scan(Entities& e) {
    touched.clear();
    for (bgp::PrefixId p : rec_prefixes) {
      const auto it = e.of_prefix.find(p);
      if (it != e.of_prefix.end()) ++touched[it->second];
    }
    for (const auto& [entity, count] : touched) {
      ++e.n_any[entity];
      if (count >= e.size[entity]) ++e.n_all[entity];
    }
  }
};

UpdateCorrelator::UpdateCorrelator(const AtomSet& atoms, std::size_t max_k)
    : impl_(std::make_unique<Impl>()) {
  impl_->max_k = max_k;

  Entities& atom_e = impl_->atom_e;
  atom_e.size.resize(atoms.atoms.size());
  for (std::uint32_t a = 0; a < atoms.atoms.size(); ++a) {
    atom_e.size[a] = static_cast<std::uint32_t>(atoms.atoms[a].size());
    for (bgp::PrefixId p : atoms.atoms[a].prefixes) {
      atom_e.of_prefix.emplace(p, a);
    }
  }
  atom_e.finalize_entity_counts();

  Entities& as_e = impl_->as_e;
  for (const auto& [asn, group] : atoms.atoms_by_origin) {
    const auto id = static_cast<std::uint32_t>(as_e.size.size());
    std::uint32_t total = 0;
    bool multi = false;
    for (std::uint32_t a : group) {
      total += static_cast<std::uint32_t>(atoms.atoms[a].size());
      if (atoms.atoms[a].size() > 1) multi = true;
      for (bgp::PrefixId p : atoms.atoms[a].prefixes) {
        as_e.of_prefix.emplace(p, id);
      }
    }
    as_e.size.push_back(total);
    impl_->as_has_multi_atom.push_back(multi);
  }
  as_e.finalize_entity_counts();
}

UpdateCorrelator::~UpdateCorrelator() = default;
UpdateCorrelator::UpdateCorrelator(UpdateCorrelator&&) noexcept = default;
UpdateCorrelator& UpdateCorrelator::operator=(UpdateCorrelator&&) noexcept =
    default;

void UpdateCorrelator::feed(std::span<const bgp::UpdateRecord> records) {
  // Per-chunk, not per-record: the feed granularity both backends share,
  // so the counter comes out identical for in-memory and streamed runs.
  OBS_COUNT_N("analyze.update_records_seen", records.size());
  // A prefix may appear in both the announced and withdrawn lists of one
  // record (withdraw + re-announce packed together); it still touches its
  // entity once, so dedupe per record before counting — otherwise a
  // half-updated entity can reach count >= size and inflate Pr_full(k).
  auto& rec_prefixes = impl_->rec_prefixes;
  for (const auto& rec : records) {
    rec_prefixes.assign(rec.announced.begin(), rec.announced.end());
    rec_prefixes.insert(rec_prefixes.end(), rec.withdrawn.begin(),
                        rec.withdrawn.end());
    std::sort(rec_prefixes.begin(), rec_prefixes.end());
    rec_prefixes.erase(
        std::unique(rec_prefixes.begin(), rec_prefixes.end()),
        rec_prefixes.end());
    impl_->scan(impl_->atom_e);
    impl_->scan(impl_->as_e);
    ++impl_->updates_seen;
  }
}

UpdateCorrelation UpdateCorrelator::result() const {
  UpdateCorrelation out;
  out.updates_seen = impl_->updates_seen;
  out.atom = make_curve(impl_->atom_e, impl_->max_k);
  out.as_all = make_curve(impl_->as_e, impl_->max_k);

  // AS category curves.
  Entities as_multi = impl_->as_e, as_single = impl_->as_e;
  for (std::size_t i = 0; i < impl_->as_e.size.size(); ++i) {
    if (impl_->as_has_multi_atom[i]) {
      as_single.n_all[i] = as_single.n_any[i] = 0;
      as_single.size[i] = 0;
    } else {
      as_multi.n_all[i] = as_multi.n_any[i] = 0;
      as_multi.size[i] = 0;
    }
  }
  out.as_multi = make_curve(as_multi, impl_->max_k);
  out.as_single = make_curve(as_single, impl_->max_k);
  return out;
}

UpdateCorrelation correlate_updates(
    const AtomSet& atoms, const std::vector<bgp::UpdateRecord>& updates,
    std::size_t max_k) {
  UpdateCorrelator corr(atoms, max_k);
  corr.feed({updates.data(), updates.size()});
  return corr.result();
}

}  // namespace bgpatoms::core
