#include "core/shard_repair.h"

namespace certfix {

ShardRepairer::ShardRepairer(const RuleSet& rules, AttrSet trusted)
    : trusted_(trusted),
      all_(rules.r_schema()->AllAttrs()),
      memo_(rules, trusted) {
  staged_.reserve(kProbeBlock);
}

void ShardRepairer::Bind(const Saturator& sat) {
  sat_ = &sat;
  first_round_ = sat.FirstRoundProbeRules(trusted_);
}

void ShardRepairer::Stage(IdRow row, std::vector<Value>* values) {
  memo_.Prefetch(row);
  sat_->index().PrefetchRhsProbes(row, first_round_);
  staged_.push_back(Staged{std::move(row), values});
}

RepairedRow ShardRepairer::Repair(size_t j, ShardOutput output) {
  const Staged& staged = staged_[j];
  ProbeLog probes;
  RepairedRow out;
  static_cast<TupleRepair&>(out) = RepairOneTuple(
      *sat_, staged.row, trusted_, all_, memo_,
      output == ShardOutput::kRowsAndProbes ? &probes : nullptr);
  out.probes = std::move(probes.hashes);
  if (output == ShardOutput::kChangedRows) return out;
  // A clean or conflicting row moves on untouched.
  const ValuePool& master = *sat_->index().pool();
  std::vector<Value>& values = *staged.values;
  for (const auto& [attr, id] : out.changed) values[attr] = master.value(id);
  out.fixed = std::move(values);
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
