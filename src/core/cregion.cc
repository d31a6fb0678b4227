#include "core/cregion.h"

#include <algorithm>
#include <set>

namespace certfix {

std::optional<PatternTuple> BuildRowForMaster(const RuleSet& rules,
                                              const std::vector<AttrId>& z,
                                              const Tuple& tm,
                                              const Tuple* anchor,
                                              AttrSet anchor_attrs) {
  const SchemaPtr& schema = rules.r_schema();
  AttrSet z_set = AttrSet::FromVector(z);

  PatternTuple base(schema);
  for (AttrId a : z) base.SetWildcard(a);
  if (anchor != nullptr) {
    for (AttrId a : anchor_attrs.Intersect(z_set).ToVector()) {
      PatternTuple cell(schema);
      cell.SetConst(a, anchor->at(a));
      if (!base.MergeFrom(cell)) return std::nullopt;
    }
  }

  // Replay a closure derivation, merging the cells each used rule imposes
  // on the Z attributes. Rules whose cells conflict with the row so far
  // are skipped (they would fire with a different master tuple, e.g. the
  // a2-to-a1 homepage rules of the DBLP workload); because different rule
  // orders skip different rules, all rotations of the rule order are
  // tried until one derivation covers R.
  size_t n = rules.size();
  for (size_t start = 0; start < std::max<size_t>(n, 1); ++start) {
    PatternTuple row = base;
    AttrSet closure = z_set;
    std::vector<bool> skipped(n, false);
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t j = 0; j < n; ++j) {
        size_t idx = (start + j) % n;
        if (skipped[idx]) continue;
        const EditingRule& rule = rules.at(idx);
        if (closure.Contains(rule.rhs())) continue;
        if (!rule.premise_set().SubsetOf(closure)) continue;
        // Master-side pattern screen: for pattern attributes that are
        // also key attributes, tm must satisfy the pattern (otherwise
        // this rule cannot fire with tm).
        bool master_ok = true;
        for (size_t p = 0; p < rule.lhs().size(); ++p) {
          PatternValue pv = rule.pattern().Get(rule.lhs()[p]);
          if (!pv.is_wildcard() && !pv.Matches(tm.at(rule.lhsm()[p]))) {
            master_ok = false;
            break;
          }
        }
        if (!master_ok) {
          skipped[idx] = true;
          continue;
        }

        PatternTuple cells(schema);
        for (const auto& [attr, pv] : rule.pattern().cells()) {
          if (z_set.Contains(attr) && !pv.is_wildcard()) cells.Set(attr, pv);
        }
        for (size_t p = 0; p < rule.lhs().size(); ++p) {
          if (z_set.Contains(rule.lhs()[p])) {
            cells.SetConst(rule.lhs()[p], tm.at(rule.lhsm()[p]));
          }
        }
        PatternTuple merged = row;
        if (!merged.MergeFrom(cells)) {
          // Conflicts are permanent: the cells depend only on tm and the
          // row can only gain constraints.
          skipped[idx] = true;
          continue;
        }
        row = std::move(merged);
        closure.Add(rule.rhs());
        changed = true;
      }
    }
    if (closure == schema->AllAttrs()) return row;
  }
  return std::nullopt;
}

std::vector<AttrId> RegionFinder::CompCRegionZ(
    const CRegionOptions& opts) const {
  const SchemaPtr& schema = sat_->rules().r_schema();
  AttrSet all = schema->AllAttrs();
  Rng rng(opts.seed);
  AttrSet best = all;
  for (size_t trial = 0; trial < std::max<size_t>(opts.trials, 1); ++trial) {
    std::vector<AttrId> order = all.ToVector();
    rng.Shuffle(&order);
    AttrSet z = all;
    for (AttrId a : order) {
      AttrSet z2 = z;
      z2.Remove(a);
      if (sat_->rules().Closure(z2) == all) z = z2;
    }
    if (z.Count() < best.Count()) best = z;
  }
  return best.ToVector();
}

std::vector<AttrId> RegionFinder::GRegionZ() const {
  const RuleSet& rules = sat_->rules();
  const SchemaPtr& schema = rules.r_schema();
  AttrSet all = schema->AllAttrs();
  AttrSet z;        // chosen attributes (validated by the user)
  AttrSet covered;  // z plus attributes directly fixed from z

  auto direct_gain = [&](AttrId a) {
    AttrSet z2 = z;
    z2.Add(a);
    int gain = 0;
    AttrSet gained;
    for (const EditingRule& rule : rules) {
      if (covered.Contains(rule.rhs()) || z2.Contains(rule.rhs())) continue;
      if (gained.Contains(rule.rhs())) continue;
      if (rule.premise_set().SubsetOf(z2)) {
        gained.Add(rule.rhs());
        ++gain;
      }
    }
    return gain;
  };

  while (covered.Union(z) != all) {
    AttrId best = AttrSet::kMaxAttrs;
    int best_gain = 0;
    for (AttrId a = 0; a < schema->num_attrs(); ++a) {
      if (z.Contains(a)) continue;
      int gain = direct_gain(a);
      if (gain > best_gain) {
        best_gain = gain;
        best = a;
      }
    }
    if (best == AttrSet::kMaxAttrs) {
      // Zero-gain fallback: the attribute occurring most often in premises
      // of rules whose rhs is still uncovered; if none helps, validate all
      // remaining uncovered attributes directly.
      std::vector<int> freq(schema->num_attrs(), 0);
      for (const EditingRule& rule : rules) {
        if (covered.Contains(rule.rhs()) || z.Contains(rule.rhs())) continue;
        for (AttrId a : rule.premise_set().ToVector()) {
          if (!z.Contains(a)) ++freq[a];
        }
      }
      int best_freq = 0;
      for (AttrId a = 0; a < schema->num_attrs(); ++a) {
        if (!z.Contains(a) && freq[a] > best_freq) {
          best_freq = freq[a];
          best = a;
        }
      }
      if (best == AttrSet::kMaxAttrs) {
        z = z.Union(all.Minus(covered));
        break;
      }
    }
    z.Add(best);
    // Recompute the directly covered set from z.
    covered = z;
    bool changed = true;
    while (changed) {
      changed = false;
      for (const EditingRule& rule : rules) {
        // One-step only: premises must be user-validated attributes.
        if (!covered.Contains(rule.rhs()) &&
            rule.premise_set().SubsetOf(z)) {
          covered.Add(rule.rhs());
          changed = true;
        }
      }
    }
  }
  return z.ToVector();
}

Region RegionFinder::BuildRegion(const std::vector<AttrId>& z,
                                 const CRegionOptions& opts,
                                 double* coverage_out) const {
  const RuleSet& rules = sat_->rules();
  const Relation& dm = sat_->master();
  Region region = Region::Of(rules.r_schema(), z);
  CoverageChecker coverage(*sat_);

  size_t sample = std::min(opts.sample_masters, dm.size());
  size_t valid = 0;
  std::set<std::string> dedup;
  size_t stride = dm.size() == 0 ? 1 : std::max<size_t>(1, dm.size() / std::max<size_t>(sample, 1));
  size_t inspected = 0;
  for (size_t m = 0; m < dm.size() && inspected < sample; m += stride) {
    ++inspected;
    std::optional<PatternTuple> row = BuildRowForMaster(rules, z, dm.at(m));
    if (!row.has_value()) continue;
    // Validate with the concrete checker; skip duplicates.
    std::string key = row->ToString();
    if (dedup.count(key) > 0) {
      ++valid;
      continue;
    }
    Region probe = Region::Of(rules.r_schema(), z);
    if (!probe.AddRow(*row).ok()) continue;
    Result<bool> ok = coverage.IsCertainRegion(probe);
    if (ok.ok() && *ok) {
      ++valid;
      dedup.insert(key);
      if (region.tableau().size() < opts.max_rows) {
        Status st = region.AddRow(*row);
        (void)st;
      }
    }
  }
  if (coverage_out != nullptr) {
    *coverage_out =
        inspected == 0 ? 0.0
                       : static_cast<double>(valid) / static_cast<double>(inspected);
  }
  return region;
}

std::vector<RankedRegion> RegionFinder::ComputeCertainRegions(
    const CRegionOptions& opts) const {
  const SchemaPtr& schema = sat_->rules().r_schema();
  Rng rng(opts.seed);
  AttrSet all = schema->AllAttrs();

  // Candidate Z lists: randomized minimization restarts plus the greedy
  // baseline's pick, deduplicated.
  std::set<AttrSet> candidates;
  for (size_t trial = 0; trial < std::max<size_t>(opts.trials, 1); ++trial) {
    std::vector<AttrId> order = all.ToVector();
    rng.Shuffle(&order);
    AttrSet z = all;
    for (AttrId a : order) {
      AttrSet z2 = z;
      z2.Remove(a);
      if (sat_->rules().Closure(z2) == all) z = z2;
    }
    candidates.insert(z);
  }
  candidates.insert(AttrSet::FromVector(GRegionZ()));

  std::vector<RankedRegion> out;
  for (const AttrSet& z_set : candidates) {
    std::vector<AttrId> z = z_set.ToVector();
    double master_coverage = 0.0;
    Region region = BuildRegion(z, opts, &master_coverage);
    if (region.tableau().empty()) continue;
    double quality =
        master_coverage -
        opts.size_penalty * static_cast<double>(z.size()) /
            static_cast<double>(schema->num_attrs());
    out.push_back(RankedRegion{std::move(region), quality});
  }
  std::sort(out.begin(), out.end(),
            [](const RankedRegion& a, const RankedRegion& b) {
              if (a.quality != b.quality) return a.quality > b.quality;
              return a.region.z().size() < b.region.z().size();
            });
  return out;
}

}  // namespace certfix
