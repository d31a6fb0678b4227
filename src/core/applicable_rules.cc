#include "core/applicable_rules.h"

namespace certfix {

RowSpan PartialMasterIndexCache::Lookup(
    const std::vector<AttrId>& master_attrs, const Tuple& t,
    const std::vector<AttrId>& r_attrs) {
  if (master_attrs.empty()) {
    if (!all_rows_ready_) {
      all_rows_.resize(dm_->size());
      for (size_t i = 0; i < dm_->size(); ++i) all_rows_[i] = i;
      all_rows_ready_ = true;
    }
    return all_rows_;
  }
  auto it = cache_.find(master_attrs);
  if (it == cache_.end()) {
    it = cache_
             .emplace(master_attrs,
                      std::make_unique<FlatKeyIndex>(*dm_, master_attrs))
             .first;
  }
  return it->second->LookupTuple(t, r_attrs);
}

ApplicableRules DeriveApplicableRules(const RuleSet& sigma,
                                      const Relation& dm,
                                      PartialMasterIndexCache* cache,
                                      const Tuple& t, AttrSet z) {
  ApplicableRules out;
  out.rules = RuleSet(sigma.r_schema(), sigma.rm_schema());
  for (size_t i = 0; i < sigma.size(); ++i) {
    const EditingRule& rule = sigma.at(i);
    // (a) The rule must not overwrite a validated attribute.
    if (z.Contains(rule.rhs())) continue;
    // (b) The pattern restricted to validated attributes must match t.
    if (!rule.pattern().MatchesOn(t, z)) continue;
    // (c) Some master tuple must agree with t on the validated part of X
    // and match the pattern cells translated to the master side.
    std::vector<AttrId> r_key;
    std::vector<AttrId> m_key;
    for (size_t p = 0; p < rule.lhs().size(); ++p) {
      if (z.Contains(rule.lhs()[p])) {
        r_key.push_back(rule.lhs()[p]);
        m_key.push_back(rule.lhsm()[p]);
      }
    }
    const RowSpan candidates = cache->Lookup(m_key, t, r_key);
    bool has_master = false;
    for (size_t m : candidates) {
      bool match = true;
      for (size_t p = 0; p < rule.lhs().size(); ++p) {
        AttrId a = rule.lhs()[p];
        PatternValue pv = rule.pattern().Get(a);
        if (!pv.is_wildcard() && !pv.Matches(dm.Cell(m, rule.lhsm()[p]))) {
          match = false;
          break;
        }
      }
      if (match) {
        has_master = true;
        break;
      }
    }
    if (!has_master) continue;

    // Build phi+: extend the pattern with the validated lhs attributes,
    // pinned to t's values (refinement (i)-(ii) of Sect. 5.2).
    PatternTuple tp = rule.pattern();
    for (AttrId a : r_key) tp.SetConst(a, t.at(a));
    // Also pin validated pattern attributes to t's concrete values.
    for (const auto& [attr, pv] : rule.pattern().cells()) {
      (void)pv;
      if (z.Contains(attr)) tp.SetConst(attr, t.at(attr));
    }
    Result<EditingRule> refined = EditingRule::Make(
        rule.name() + "+", sigma.r_schema(), sigma.rm_schema(), rule.lhs(),
        rule.lhsm(), rule.rhs(), rule.rhsm(), std::move(tp));
    if (!refined.ok()) continue;  // cannot happen: same shape as source
    Status st = out.rules.Add(std::move(refined).ValueOrDie());
    (void)st;
    out.origin.push_back(i);
  }
  return out;
}

}  // namespace certfix
