#include "core/shard_repair.h"

namespace certfix {

ShardRepairer::ShardRepairer(const RuleSet& rules, AttrSet trusted)
    : schema_(rules.r_schema()),
      trusted_(trusted),
      all_(rules.r_schema()->AllAttrs()),
      pool_(std::make_shared<ValuePool>()),
      memo_(rules, trusted) {
  rows_.reserve(kProbeBlock);
}

void ShardRepairer::Bind(const Saturator& sat) {
  sat_ = &sat;
  bridge_ = PoolBridge(pool_.get(), sat.index().pool().get());
  first_round_ = sat.FirstRoundProbeRules(trusted_);
}

bool ShardRepairer::RecycleIfOver(size_t max_values) {
  if (pool_->size() <= max_values) return false;
  rows_.clear();
  pool_ = std::make_shared<ValuePool>();
  bridge_ = PoolBridge(pool_.get(), sat_->index().pool().get());
  memo_.Clear();
  ++recycles_;
  return true;
}

void ShardRepairer::Stage(std::vector<Value>& values) {
  Tuple row(schema_, pool_);
  for (size_t a = 0; a < values.size(); ++a) {
    row.Set(static_cast<AttrId>(a), std::move(values[a]));
  }
  StageRow(std::move(row));
}

void ShardRepairer::Stage(const Tuple& source) {
  StageRow(source.RebasedTo(pool_));
}

void ShardRepairer::StageRow(Tuple row) {
  memo_.Prefetch(row);
  sat_->index().PrefetchRhsProbes(row, first_round_, &bridge_);
  rows_.push_back(std::move(row));
}

RepairedRow ShardRepairer::Repair(size_t j, ShardOutput output) {
  const Tuple& row = rows_[j];
  ProbeLog probes;
  TupleRepair r = RepairOneTuple(
      *sat_, row, trusted_, all_, memo_, &bridge_,
      output == ShardOutput::kRowsAndProbes ? &probes : nullptr);
  RepairedRow out;
  out.report = r.report;
  out.probes = std::move(probes.hashes);
  out.memo_hit = r.memo_hit;
  if (output == ShardOutput::kChangedRows && r.report.cells_changed == 0) {
    return out;  // a conflict changes no cell either
  }
  // On conflict the input row goes out unchanged (r.fixed is empty).
  const Tuple& fixed = r.report.conflicting() ? row : r.fixed;
  out.fixed.reserve(schema_->num_attrs());
  for (size_t a = 0; a < schema_->num_attrs(); ++a) {
    out.fixed.push_back(fixed.at(static_cast<AttrId>(a)));
  }
  return out;
}

std::vector<ShardRepairer> MakeShards(size_t n, const Saturator& sat,
                                      AttrSet trusted) {
  std::vector<ShardRepairer> shards;
  shards.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    shards.emplace_back(sat.rules(), trusted);
    shards.back().Bind(sat);
  }
  return shards;
}

}  // namespace certfix
