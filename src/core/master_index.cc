#include "core/master_index.h"

#include <memory>
#include <unordered_set>

#include "telemetry/metrics.h"

namespace certfix {

const MasterIndex::RhsSummary MasterIndex::kEmptySummary;

namespace {

/// Dedups (value-id, row) pairs into a summary. Summaries are almost
/// always tiny (1 distinct Bm value per key in consistent master data),
/// so membership starts as a linear scan over the summary itself and
/// upgrades to a hash set only past kLinearMax — high-cardinality Bm
/// columns (e.g. an all-rows summary over a unique column) would
/// otherwise make index build quadratic.
class DistinctAdder {
 public:
  void Add(MasterIndex::RhsSummary* summary, const Value& v, ValueId id,
           size_t row) {
    if (seen_ == nullptr) {
      for (const MasterIndex::RhsValue& existing : *summary) {
        if (existing.id == id) return;
      }
      summary->push_back(MasterIndex::RhsValue{v, id, row});
      if (summary->size() > kLinearMax) {
        seen_ = std::make_unique<std::unordered_set<ValueId>>();
        for (const MasterIndex::RhsValue& existing : *summary) {
          seen_->insert(existing.id);
        }
      }
      return;
    }
    if (seen_->insert(id).second) {
      summary->push_back(MasterIndex::RhsValue{v, id, row});
    }
  }

 private:
  static constexpr size_t kLinearMax = 16;
  std::unique_ptr<std::unordered_set<ValueId>> seen_;
};

/// Projects row[attrs]; false when the master lacks a value (no row matches).
bool ProjectRow(const IdRow& row, const std::vector<AttrId>& attrs,
                IdKey* key) {
  key->resize(attrs.size());
  for (size_t k = 0; k < attrs.size(); ++k) {
    (*key)[k] = row.id_at(attrs[k]);
    if ((*key)[k] == kInvalidValueId) return false;
  }
  return true;
}

}  // namespace

std::shared_ptr<MasterIndex::ValueIndex> MasterIndex::BuildValueIndex(
    const Relation& dm, const std::vector<AttrId>& xm, AttrId bm) {
  auto vi = std::make_shared<ValueIndex>();
  const IdColumn& bm_col = dm.Column(bm);
  std::vector<const IdColumn*> key_cols;
  key_cols.reserve(xm.size());
  for (AttrId a : xm) key_cols.push_back(&dm.Column(a));
  IdKey key(xm.size());
  DistinctAdder all_rows_adder;
  std::vector<DistinctAdder> adders;  // parallel to summaries
  if (!xm.empty()) vi->table.Reset(xm.size(), dm.size());
  for (size_t row = 0; row < dm.size(); ++row) {
    ValueId vid = bm_col[row];
    const Value& v = dm.pool()->value(vid);
    if (xm.empty()) {
      all_rows_adder.Add(&vi->all_rows_summary, v, vid, row);
      continue;
    }
    for (size_t k = 0; k < key_cols.size(); ++k) key[k] = (*key_cols[k])[row];
    const uint32_t fresh = static_cast<uint32_t>(vi->summaries.size());
    const uint32_t slot = vi->table.InsertOrGet(key.data(), fresh);
    if (slot == fresh) {
      vi->summaries.emplace_back();
      adders.emplace_back();
    }
    adders[slot].Add(&vi->summaries[slot], v, vid, row);
  }
  return vi;
}

void MasterIndex::Build(const RuleSet& rules, const MasterIndex* share) {
  arity_ = rules.r_schema()->num_attrs();
  relevant_ = rules.MentionedAttrs().ToVector();
  rule_to_value_.reserve(rules.size());
  probe_.reserve(rules.size());
  for (const EditingRule& rule : rules) {
    probe_.push_back(rule.lhs());
    std::pair<std::vector<AttrId>, AttrId> vkey{rule.lhsm(), rule.rhsm()};
    auto vit = value_ids_.find(vkey);
    if (vit == value_ids_.end()) {
      std::shared_ptr<ValueIndex> vi;
      if (share != nullptr) {
        auto sit = share->value_ids_.find(vkey);
        if (sit != share->value_ids_.end()) {
          vi = share->value_indexes_[static_cast<size_t>(sit->second)];
        }
      }
      if (vi == nullptr) vi = BuildValueIndex(*dm_, rule.lhsm(), rule.rhsm());
      value_indexes_.push_back(std::move(vi));
      const int id = static_cast<int>(value_indexes_.size() - 1);
      vit = value_ids_.emplace(std::move(vkey), id).first;
    }
    rule_to_value_.push_back(vit->second);
  }
}

MasterIndex::MasterIndex(const RuleSet& rules, const Relation& dm)
    : dm_(&dm) {
  Build(rules, nullptr);
}

MasterIndex::MasterIndex(const RuleSet& rules, const Relation& dm,
                         const MasterIndex& share_from)
    : dm_(&dm) {
  Build(rules, &share_from);
}

const MasterIndex::RhsSummary& MasterIndex::Lookup(size_t rule_idx,
                                                   const IdKey& key) const {
  const ValueIndex& vi =
      *value_indexes_[static_cast<size_t>(rule_to_value_[rule_idx])];
  if (probe_[rule_idx].empty()) return vi.all_rows_summary;
  const uint32_t slot = vi.table.Find(key.data());
  return slot == FlatIdTable::kNotFound ? kEmptySummary : vi.summaries[slot];
}

const MasterIndex::RhsSummary& MasterIndex::RhsValues(size_t rule_idx,
                                                      const IdRow& row) const {
  thread_local IdKey key;  // reused across probes, no per-probe allocation
  if (!ProjectRow(row, probe_[rule_idx], &key)) return kEmptySummary;
  return Lookup(rule_idx, key);
}

const MasterIndex::RhsSummary& MasterIndex::RhsValues(
    size_t rule_idx, const Tuple& t, PoolBridge* bridge) const {
  thread_local IdKey key;
  if (!ProjectIds(t, probe_[rule_idx], dm_->pool().get(), bridge, &key)) {
    return kEmptySummary;
  }
  return Lookup(rule_idx, key);
}

void MasterIndex::PrefetchRhsProbes(const IdRow& row,
                                    const std::vector<size_t>& rule_idxs) const {
  // One probe batch = all round-1 probes staged for a single tuple.
  telemetry::ScopedLatency latency(
      CERTFIX_TL_HISTOGRAM("master_probe_batch_ns"));
  thread_local IdKey key;
  for (size_t rule_idx : rule_idxs) {
    if (probe_[rule_idx].empty()) continue;
    if (!ProjectRow(row, probe_[rule_idx], &key)) continue;
    const ValueIndex& vi =
        *value_indexes_[static_cast<size_t>(rule_to_value_[rule_idx])];
    vi.table.Prefetch(vi.table.Hash(key.data()));
  }
}

}  // namespace certfix
