#include "core/saturation.h"

#include <map>

#include "core/exhaustive.h"

namespace certfix {

const std::set<Value>& Saturator::Dom() const {
  if (dom_hint_ != nullptr) return *dom_hint_;
  std::lock_guard<std::mutex> lock(dom_mutex_);
  if (!dom_cache_.has_value()) {
    dom_cache_ = ActiveDomain(*rules_, *dm_);
  }
  return *dom_cache_;
}

std::vector<size_t> Saturator::FirstRoundProbeRules(AttrSet z0) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < rules_->size(); ++i) {
    const EditingRule& rule = rules_->at(i);
    if (z0.Contains(rule.rhs())) continue;
    if (!rule.premise_set().SubsetOf(z0)) continue;
    if (rule.lhs().empty()) continue;  // probes the all-rows summary
    out.push_back(i);
  }
  return out;
}

std::string FixConflict::ToString(const SchemaPtr& schema) const {
  std::string name = schema ? schema->attr_name(attr) : std::to_string(attr);
  return "conflict on " + name + ": '" + value_a.ToString() + "' (rule #" +
         std::to_string(rule_a) + ") vs '" + value_b.ToString() +
         "' (rule #" + std::to_string(rule_b) + ")";
}

SaturationResult Saturator::Run(IdRow& row, AttrSet z0, int excluded,
                                std::vector<FixMove>* proposals,
                                ProbeLog* probes) const {
  SaturationResult result;
  result.covered = z0;
  AttrSet z = z0;

  // One proposal per (attr, value); the map detects same-round conflicts.
  // Proposed values are compared by master-pool id — every proposal comes
  // out of the same MasterIndex, so id equality is value equality.
  struct Proposal {
    Value value;
    ValueId id;
    size_t rule_idx;
    size_t master_idx;
  };
  // Ids of values already appended to `proposals` this run (entries the
  // caller passed in up front, if any, are compared by value below).
  const size_t pre_existing = proposals == nullptr ? 0 : proposals->size();
  std::vector<ValueId> proposal_ids;

  bool changed = true;
  while (changed) {
    changed = false;
    std::map<AttrId, std::vector<Proposal>> round;
    for (size_t i = 0; i < rules_->size(); ++i) {
      const EditingRule& rule = rules_->at(i);
      AttrId b = rule.rhs();
      if (z.Contains(b)) continue;
      if (!rule.premise_set().SubsetOf(z)) continue;
      if (!rule.pattern().Matches(row)) continue;
      // The single master-data read of the whole engine. Recording the
      // probe even when the answer is empty matters: a later master insert
      // creating this key must invalidate the tuple.
      if (probes != nullptr) probes->Add(ProbeKeyHash(i, row, rule.lhs()));
      // Distinct proposed values only: a key matched by many master rows
      // with the same Bm value yields a single (equivalent) proposal.
      for (const MasterIndex::RhsValue& rv : index_->RhsValues(i, row)) {
        round[b].push_back(Proposal{rv.value, rv.id, i, rv.row});
      }
    }
    if (excluded >= 0) {
      auto it = round.find(static_cast<AttrId>(excluded));
      if (it != round.end()) {
        if (proposals != nullptr) {
          for (const Proposal& p : it->second) {
            bool seen = false;
            for (ValueId id : proposal_ids) {
              if (id == p.id) {
                seen = true;
                break;
              }
            }
            for (size_t k = 0; !seen && k < pre_existing; ++k) {
              if ((*proposals)[k].value == p.value) seen = true;
            }
            if (!seen) {
              proposals->push_back(FixMove{p.rule_idx, p.master_idx,
                                           it->first, p.value});
              proposal_ids.push_back(p.id);
            }
          }
        }
        round.erase(it);
      }
    }
    for (const auto& [attr, props] : round) {
      // Same-round conflict check: all proposals must agree.
      const Proposal& first = props.front();
      for (size_t k = 1; k < props.size(); ++k) {
        if (props[k].id != first.id) {
          result.unique = false;
          result.conflicts.push_back(FixConflict{attr, first.value,
                                                 props[k].value,
                                                 first.rule_idx,
                                                 props[k].rule_idx});
        }
      }
      // Apply the first proposal even under conflict so the covered set
      // stays maximal; callers treat `unique == false` as inconsistent.
      row.Fix(attr, first.id);
      z.Add(attr);
      result.covered.Add(attr);
      result.steps.push_back(
          FixMove{first.rule_idx, first.master_idx, attr, first.value});
      changed = true;
    }
  }
  return result;
}

namespace {

/// The Tuple entry points: `check` over t's IdRow, its fixed row returned
/// as a tuple of a private pool (t's pool is never written).
template <typename Check>
SaturationResult OnTuple(const MasterIndex& index, const Tuple& t,
                         const Check& check) {
  IdRow row(index, [&t](AttrId a) -> const Value& { return t.at(a); });
  SaturationResult result = check(row);
  result.fixed = Tuple(t.schema());
  for (AttrId a = 0; a < row.size(); ++a) result.fixed.Set(a, row.at(a));
  return result;
}

}  // namespace

SaturationResult Saturator::Saturate(const Tuple& t, AttrSet z0) const {
  return OnTuple(*index_, t,
                 [&](IdRow& row) { return Run(row, z0, -1, nullptr, nullptr); });
}

SaturationResult Saturator::SaturateExcluding(
    const Tuple& t, AttrSet z0, AttrId excluded,
    std::vector<FixMove>* proposals) const {
  return OnTuple(*index_, t, [&](IdRow& row) {
    return Run(row, z0, static_cast<int>(excluded), proposals, nullptr);
  });
}

SaturationResult Saturator::CheckUniqueFix(const Tuple& t, AttrSet z0) const {
  return OnTuple(*index_, t,
                 [&](IdRow& row) { return CheckUniqueFix(row, z0); });
}

SaturationResult Saturator::CheckUniqueFix(IdRow& row, AttrSet z0,
                                           ProbeLog* probes) const {
  const IdRow input = row;
  SaturationResult full = Run(row, z0, -1, nullptr, probes);
  if (!full.unique) return full;
  // Cross-round conflicts: for each attribute B that some move validated,
  // collect every value proposed for B by moves whose premises do not
  // depend on B. Two distinct values means two distinct maximal fixes.
  AttrSet targets = full.covered.Minus(z0);
  for (AttrId b : targets.ToVector()) {
    std::vector<FixMove> proposals;
    IdRow excluded = input;
    SaturationResult excl =
        Run(excluded, z0, static_cast<int>(b), &proposals, probes);
    if (!excl.unique) {
      // Conflict on another attribute surfaced under this order; report.
      full.unique = false;
      full.conflicts.insert(full.conflicts.end(), excl.conflicts.begin(),
                            excl.conflicts.end());
      return full;
    }
    if (proposals.size() > 1) {
      full.unique = false;
      full.conflicts.push_back(
          FixConflict{b, proposals[0].value, proposals[1].value,
                      proposals[0].rule_idx, proposals[1].rule_idx});
      return full;
    }
  }
  return full;
}

}  // namespace certfix
