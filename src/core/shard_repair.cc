#include "core/shard_repair.h"

namespace certfix {

ShardRepairer::ShardRepairer(const RuleSet& rules, AttrSet trusted,
                             bool use_memo)
    : schema_(rules.r_schema()),
      trusted_(trusted),
      all_(rules.r_schema()->AllAttrs()),
      pool_(std::make_shared<ValuePool>()) {
  if (use_memo) memo_ = std::make_unique<RepairMemo>(rules, trusted);
  rows_.reserve(kProbeBlock);
}

void ShardRepairer::Bind(const Saturator& sat) {
  sat_ = &sat;
  bridge_ = PoolBridge(pool_.get(), sat.index().pool().get());
  first_round_ = sat.FirstRoundProbeRules(trusted_);
}

bool ShardRepairer::RecycleIfOver(size_t max_values) {
  if (pool_->size() <= max_values) return false;
  pool_ = std::make_shared<ValuePool>();
  bridge_ = PoolBridge(pool_.get(), sat_->index().pool().get());
  if (memo_ != nullptr) memo_->Clear();
  return true;
}

void ShardRepairer::Stage(std::vector<Value> values) {
  Tuple row(schema_, pool_);
  for (size_t a = 0; a < values.size(); ++a) {
    row.Set(static_cast<AttrId>(a), std::move(values[a]));
  }
  if (memo_ != nullptr) memo_->Prefetch(row);
  sat_->index().PrefetchRhsProbes(row, first_round_, &bridge_);
  rows_.push_back(std::move(row));
}

RepairedRow ShardRepairer::Repair(size_t j, bool record_probes) {
  const Tuple& row = rows_[j];
  ProbeLog probes;
  const uint64_t hits_before = memo_ != nullptr ? memo_->hits() : 0;
  TupleRepair r = RepairOneTuple(*sat_, row, trusted_, all_, &bridge_,
                                 record_probes ? &probes : nullptr,
                                 memo_.get());
  RepairedRow out;
  out.report = r.report;
  out.probes = std::move(probes.hashes);
  if (memo_ != nullptr) out.memo = memo_->hits() > hits_before ? 1 : 0;
  // On conflict the input row goes out unchanged (r.fixed is empty).
  const Tuple& fixed = r.report.conflicting() ? row : r.fixed;
  out.fixed.reserve(schema_->num_attrs());
  for (size_t a = 0; a < schema_->num_attrs(); ++a) {
    out.fixed.push_back(fixed.at(static_cast<AttrId>(a)));
  }
  return out;
}

}  // namespace certfix
