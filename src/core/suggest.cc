#include "core/suggest.h"

#include <algorithm>

#include "util/random.h"

namespace certfix {

bool Suggester::VerifyRegionRow(const RuleSet& applicable, const Tuple& t,
                                AttrSet z_validated,
                                const std::vector<AttrId>& z_full) {
  // Probe master tuples compatible with t on the validated lhs part of
  // some applicable rule; cap the number of probes. Refined rules keep
  // their (Xm, Bm) shape, so the engine's indexes are shared when given.
  constexpr size_t kMaxProbes = 16;
  MasterIndex index = base_index_ != nullptr
                          ? MasterIndex(applicable, *dm_, *base_index_)
                          : MasterIndex(applicable, *dm_);
  Saturator sat(applicable, *dm_, index);
  if (!dom_cache_.has_value()) {
    dom_cache_ = ActiveDomain(*rules_, *dm_);
    // Refined patterns also pin values of t; fresh-value generation only
    // needs a superset, and probe rows are concrete on mentioned
    // attributes, so dom(Sigma, Dm) suffices.
  }
  sat.SetDomHint(&*dom_cache_);
  CoverageChecker coverage(sat);

  // Choose probe candidates: masters matching the first rule with a
  // non-empty validated lhs intersection; otherwise a fixed-size sample.
  std::vector<size_t> candidates;
  for (size_t i = 0; i < applicable.size() && candidates.empty(); ++i) {
    const EditingRule& rule = applicable.at(i);
    std::vector<AttrId> r_key;
    std::vector<AttrId> m_key;
    for (size_t p = 0; p < rule.lhs().size(); ++p) {
      if (z_validated.Contains(rule.lhs()[p])) {
        r_key.push_back(rule.lhs()[p]);
        m_key.push_back(rule.lhsm()[p]);
      }
    }
    if (r_key.empty()) continue;
    const RowSpan rows = partial_cache_.Lookup(m_key, t, r_key);
    candidates.assign(rows.begin(), rows.end());
  }
  if (candidates.empty()) {
    size_t n = std::min(kMaxProbes, dm_->size());
    for (size_t i = 0; i < n; ++i) candidates.push_back(i);
  }

  size_t probes = 0;
  for (size_t m : candidates) {
    if (probes++ >= kMaxProbes) break;
    std::optional<PatternTuple> row = BuildRowForMaster(
        applicable, z_full, dm_->at(m), &t, z_validated);
    if (!row.has_value()) continue;
    Region probe = Region::Of(applicable.r_schema(), z_full);
    if (!probe.AddRow(*row).ok()) continue;
    Result<bool> ok = coverage.IsCertainRegion(probe);
    if (ok.ok() && *ok) return true;
  }
  return false;
}

AttrSet Suggester::Suggest(const Tuple& t, AttrSet z) {
  const SchemaPtr& schema = rules_->r_schema();
  AttrSet all = schema->AllAttrs();
  if (z == all) return AttrSet();

  ApplicableRules applicable = Applicable(t, z);
  const RuleSet& sigma_t = applicable.rules;

  // Fig. 6 line 2: compute a certain-region attribute list for
  // (Sigma_t[Z], Dm) containing Z, using the randomized backward
  // minimization of [20] (CompCRegion): start from all attributes and
  // repeatedly drop attributes outside Z while the schema-level closure
  // still covers R; keep the smallest list over several restarts.
  // (Attributes no applicable rule can fix survive every drop attempt.)
  constexpr size_t kTrials = 12;
  Rng rng(0x5eedULL ^ z.bits());
  AttrSet best = all;
  std::vector<AttrId> droppable = all.Minus(z).ToVector();
  for (size_t trial = 0; trial < kTrials; ++trial) {
    rng.Shuffle(&droppable);
    AttrSet zz = all;
    for (AttrId a : droppable) {
      AttrSet probe = zz;
      probe.Remove(a);
      if (sigma_t.Closure(probe) == all) zz = probe;
    }
    if (zz.Count() < best.Count()) best = zz;
  }
  AttrSet s = best.Minus(z);

  if (s.Empty()) {
    // Z alone suffices at the schema level; nothing to suggest means the
    // remaining attributes should be derivable — verify and fall back.
    s = all.Minus(z);
    return s;
  }

  std::vector<AttrId> z_full = z.Union(s).ToVector();
  if (sigma_t.Closure(z.Union(s)) == all &&
      VerifyRegionRow(sigma_t, t, z, z_full)) {
    return s;
  }
  // Fallback: ask the user for everything not yet validated. (R, {t})
  // is trivially a certain region.
  return all.Minus(z);
}

bool Suggester::IsSuggestion(const Tuple& t, AttrSet z, AttrSet s) {
  const SchemaPtr& schema = rules_->r_schema();
  AttrSet all = schema->AllAttrs();
  if (s.Intersects(z)) s = s.Minus(z);
  if (s.Empty()) return false;
  if (z.Union(s) == all) return true;  // trivial region
  ApplicableRules applicable = Applicable(t, z);
  if (applicable.rules.Closure(z.Union(s)) != all) return false;
  return VerifyRegionRow(applicable.rules, t, z, z.Union(s).ToVector());
}

}  // namespace certfix
