#include "incremental/delta_repair.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "core/repair_memo.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace certfix {

namespace {
/// Private master copy for the copying constructor: the engine mutates
/// its master on kMaster* deltas, and the single-writer pool contract
/// forbids sharing the caller's pool for that.
Relation CopyToPrivatePool(const Relation& master) {
  Relation copy(master.schema());
  copy.Reserve(master.size());
  for (size_t i = 0; i < master.size(); ++i) {
    (void)copy.Append(master.at(i));  // same schema by construction
  }
  return copy;
}

}  // namespace

DeltaRepairEngine::DeltaRepairEngine(const RuleSet& rules,
                                     const Relation& master, AttrSet trusted,
                                     DeltaRepairOptions options)
    : DeltaRepairEngine(rules, CopyToPrivatePool(master), trusted, options) {}

DeltaRepairEngine::DeltaRepairEngine(const RuleSet& rules, Relation&& master,
                                     AttrSet trusted,
                                     DeltaRepairOptions options)
    : rules_(&rules),
      schema_(rules.r_schema()),
      master_schema_(rules.rm_schema()),
      trusted_(trusted),
      graph_(rules),
      master_(std::move(master)),
      index_(std::make_unique<MasterIndex>(rules, master_)),
      sat_(std::make_unique<Saturator>(rules, master_, *index_)),
      input_(schema_),
      repaired_(schema_),
      shards_(MakeShards(ResolveShards(options.num_shards), *sat_, trusted_)),
      // One shard repairs inline on the caller's thread (zero workers).
      pipeline_(shards_.size() > 1 ? shards_.size() : 0, kRingCapacity,
                [this](size_t ring, std::vector<Pipeline::Ticket>& block,
                       const Pipeline::Emit& emit) {
                  RepairShardBlock(ring, block, emit);
                },
                [this](uint64_t, Done& done) { ApplyResult(done); },
                "delta.merge") {}

DeltaRepairEngine::~DeltaRepairEngine() {
  pipeline_.Close();
  Publish();
}

Status DeltaRepairEngine::CheckLive() {
  if (pipeline_.failed()) {
    return Status::Internal(
        "delta engine worker failed; Flush() rethrows the cause");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Pipeline

Status DeltaRepairEngine::EnqueueRepair(uint32_t slot) {
  CERTFIX_SPAN("delta.ingest");
  ++counts_.tuples_repaired;
  Job job;
  job.slot = slot;
  job.values.reserve(schema_->num_attrs());
  for (size_t a = 0; a < schema_->num_attrs(); ++a) {
    job.values.push_back(input_.Cell(slot, static_cast<AttrId>(a)));
  }
  if (!pipeline_.Submit(std::move(job),
                        [](const Job& j, uint64_t) { return j.slot; })) {
    return Status::Internal("delta engine worker failed");
  }
  return Status::OK();
}

void DeltaRepairEngine::RepairShardBlock(
    size_t ring, std::vector<Pipeline::Ticket>& block,
    const Pipeline::Emit& emit) {
  CERTFIX_SPAN("delta.shard_repair");
  ShardRepairer& shard = shards_[ring];
  shard.RecycleIfOver(kShardPoolLimit);
  shard.RepairBlock(
      block.size(),
      [&block](size_t j) -> std::vector<Value>& {
        return block[j].job.values;
      },
      ShardOutput::kRowsAndProbes, [&](size_t j, RepairedRow row) {
        emit(j, Done{block[j].job.slot, std::move(row)});
      });
}

void DeltaRepairEngine::Untally(uint32_t slot) {
  if (slot_class_[slot] != kPendingClass) {
    --counts_.ClassCount(static_cast<FixClass>(slot_class_[slot]));
  }
  counts_.cells_changed -= slot_cells_[slot];
  slot_cells_[slot] = 0;
}

void DeltaRepairEngine::UnregisterProbes(uint32_t slot) {
  for (uint64_t h : slot_probes_[slot]) {
    auto it = probe_to_slots_.find(h);
    if (it == probe_to_slots_.end()) continue;
    auto& v = it->second;
    v.erase(std::remove(v.begin(), v.end(), slot), v.end());
    if (v.empty()) probe_to_slots_.erase(it);
  }
  slot_probes_[slot].clear();
}

void DeltaRepairEngine::ApplyResult(Done& done) {
  const uint32_t slot = done.slot;
  RepairedRow& r = done.row;
  if (slot_class_[slot] == kDeadClass) {
    // Deleted while the repair was in flight. The memo tallies still
    // count it: they measure saturation work saved, not live state.
    ++(r.memo_hit ? counts_.memo_hits : counts_.memo_misses);
    return;
  }
  UnregisterProbes(slot);
  std::sort(r.probes.begin(), r.probes.end());
  r.probes.erase(std::unique(r.probes.begin(), r.probes.end()),
                 r.probes.end());
  for (uint64_t h : r.probes) probe_to_slots_[h].push_back(slot);
  slot_probes_[slot] = std::move(r.probes);

  for (size_t a = 0; a < r.fixed.size(); ++a) {
    AttrId attr = static_cast<AttrId>(a);
    if (repaired_.Cell(slot, attr) != r.fixed[a]) {
      repaired_.SetCell(slot, attr, std::move(r.fixed[a]));
    }
  }

  Untally(slot);
  counts_.Add(r.report, r.memo_hit);
  slot_class_[slot] = static_cast<uint8_t>(r.report.kind);
  slot_cells_[slot] = static_cast<uint32_t>(r.report.cells_changed);
}

void DeltaRepairEngine::Flush() {
  Status st = EnsureIndexFresh();  // may enqueue invalidated re-repairs
  pipeline_.Drain();
  Publish();
  if (!st.ok()) {
    throw std::runtime_error(st.ToString());
  }
}

// ---------------------------------------------------------------------------
// Input deltas

Status DeltaRepairEngine::EnsureIndexFresh() {
  if (!index_stale_) return Status::OK();
  CERTFIX_SPAN("delta.rebuild");
  // A master delta staled the index. The pipeline is drained: master
  // deltas drain it before they mutate the master, and nothing is
  // submitted while index_stale_ is set (every path that submits runs
  // this first). So no worker is probing the old index, and no worker
  // touches a shard while this thread rebinds it and flushes its memo.
  index_ = std::make_unique<MasterIndex>(*rules_, master_);
  sat_ = std::make_unique<Saturator>(*rules_, master_, *index_);
  ++counts_.master_rebuilds;
  index_stale_ = false;
  for (ShardRepairer& shard : shards_) {
    shard.Bind(*sat_);
    shard.memo().FlushProbes(pending_memo_flush_);
  }
  pending_memo_flush_.clear();
  std::vector<uint32_t> dirty(dirty_slots_.begin(), dirty_slots_.end());
  dirty_slots_.clear();
  counts_.tuples_invalidated += dirty.size();
  for (uint32_t slot : dirty) {
    CERTFIX_RETURN_IF_ERROR(EnqueueRepair(slot));
  }
  return Status::OK();
}

Status DeltaRepairEngine::Insert(const Tuple& t) {
  CERTFIX_RETURN_IF_ERROR(CheckLive());
  CERTFIX_RETURN_IF_ERROR(EnsureIndexFresh());
  uint32_t slot = static_cast<uint32_t>(input_.size());
  CERTFIX_RETURN_IF_ERROR(input_.Append(t));
  {
    std::lock_guard<std::mutex> lock(pipeline_.merge_mutex());
    // Placeholder: input values until the job lands.
    repaired_.Append(t);  // contract-lint: allow(status-discard) schema-checked on entry
    slot_probes_.emplace_back();
    slot_class_.push_back(kPendingClass);
    slot_cells_.push_back(0);
  }
  order_.push_back(slot);
  ++counts_.deltas_applied;
  return EnqueueRepair(slot);
}

Status DeltaRepairEngine::Update(size_t pos, const Tuple& t) {
  CERTFIX_RETURN_IF_ERROR(CheckLive());
  if (pos >= order_.size()) {
    return Status::InvalidArgument("update position " + std::to_string(pos) +
                                   " out of range (rows: " +
                                   std::to_string(order_.size()) + ")");
  }
  // Unlike Insert (where Relation::Append validates), UpdateRow indexes
  // the tuple by this schema's attrs unchecked — validate here.
  CERTFIX_RETURN_IF_ERROR(CheckTupleSchema(t, schema_));
  CERTFIX_RETURN_IF_ERROR(EnsureIndexFresh());
  uint32_t slot = order_[pos];
  AttrSet changed = input_.UpdateRow(slot, t);
  ++counts_.deltas_applied;
  if (changed.Empty()) {
    // Cell-level dirty tracking: the row is byte-identical, its repair is
    // still exact — nothing to invalidate.
    ++counts_.noop_updates;
    return Status::OK();
  }
  return EnqueueRepair(slot);
}

Status DeltaRepairEngine::Delete(size_t pos) {
  CERTFIX_RETURN_IF_ERROR(CheckLive());
  if (pos >= order_.size()) {
    return Status::InvalidArgument("delete position " + std::to_string(pos) +
                                   " out of range (rows: " +
                                   std::to_string(order_.size()) + ")");
  }
  uint32_t slot = order_[pos];
  order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(pos));
  dirty_slots_.erase(slot);
  {
    std::lock_guard<std::mutex> lock(pipeline_.merge_mutex());
    UnregisterProbes(slot);
    Untally(slot);
    slot_class_[slot] = kDeadClass;
  }
  ++counts_.deltas_applied;
  return Status::OK();
}

Status DeltaRepairEngine::Load(const Relation& input) {
  for (size_t i = 0; i < input.size(); ++i) {
    CERTFIX_RETURN_IF_ERROR(Insert(input.at(i)));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Master deltas

void DeltaRepairEngine::InvalidateMasterRow(
    size_t row, const std::vector<size_t>& rule_idxs) {
  for (size_t i : rule_idxs) {
    uint64_t h = MasterProbeKeyHash(i, master_, row, rules_->at(i).lhsm());
    // Every affected hash joins the next rebuild's memo flush, whether
    // or not a live slot depends on it right now: shard memos also hold
    // entries for rows since deleted or updated.
    pending_memo_flush_.push_back(h);
    auto it = probe_to_slots_.find(h);
    if (it == probe_to_slots_.end()) continue;
    for (uint32_t slot : it->second) {
      if (slot_class_[slot] != kDeadClass) dirty_slots_.insert(slot);
    }
  }
}

Status DeltaRepairEngine::MasterInsert(const Tuple& t) {
  CERTFIX_RETURN_IF_ERROR(CheckLive());
  CERTFIX_RETURN_IF_ERROR(CheckTupleSchema(t, master_schema_));
  pipeline_.Drain();
  CERTFIX_RETURN_IF_ERROR(master_.Append(t));
  {
    // A new master row can answer any rule's probe for its key.
    std::lock_guard<std::mutex> lock(pipeline_.merge_mutex());
    std::vector<size_t> every(rules_->size());
    for (size_t i = 0; i < every.size(); ++i) every[i] = i;
    InvalidateMasterRow(master_.size() - 1, every);
  }
  index_stale_ = true;
  ++counts_.deltas_applied;
  return Status::OK();
}

Status DeltaRepairEngine::MasterUpdate(size_t pos, const Tuple& t) {
  CERTFIX_RETURN_IF_ERROR(CheckLive());
  CERTFIX_RETURN_IF_ERROR(CheckTupleSchema(t, master_schema_));
  if (pos >= master_.size()) {
    return Status::InvalidArgument(
        "master update position " + std::to_string(pos) +
        " out of range (rows: " + std::to_string(master_.size()) + ")");
  }
  // The changed mask only *reads* master_ cells (workers never write the
  // master), so a self-identical upsert is detected and skipped without
  // paying the drain barrier. Mutating master_ below does require
  // quiescence: interning into its pool would race worker probes.
  AttrSet changed;
  for (size_t a = 0; a < master_schema_->num_attrs(); ++a) {
    AttrId attr = static_cast<AttrId>(a);
    if (master_.Cell(pos, attr) != t.at(attr)) changed.Add(attr);
  }
  ++counts_.deltas_applied;
  if (changed.Empty()) {
    ++counts_.noop_updates;
    return Status::OK();
  }
  pipeline_.Drain();
  // Only rules whose master side reads a changed attribute can answer
  // differently — and only for the row's old or new key.
  std::vector<size_t> affected = graph_.RulesReadingMasterAttrs(changed);
  {
    std::lock_guard<std::mutex> lock(pipeline_.merge_mutex());
    InvalidateMasterRow(pos, affected);  // old projections
  }
  master_.UpdateRow(pos, t);
  {
    std::lock_guard<std::mutex> lock(pipeline_.merge_mutex());
    InvalidateMasterRow(pos, affected);  // new projections
  }
  if (!affected.empty()) index_stale_ = true;
  return Status::OK();
}

Status DeltaRepairEngine::MasterDelete(size_t pos) {
  CERTFIX_RETURN_IF_ERROR(CheckLive());
  if (pos >= master_.size()) {
    return Status::InvalidArgument(
        "master delete position " + std::to_string(pos) +
        " out of range (rows: " + std::to_string(master_.size()) + ")");
  }
  pipeline_.Drain();
  {
    std::lock_guard<std::mutex> lock(pipeline_.merge_mutex());
    std::vector<size_t> every(rules_->size());
    for (size_t i = 0; i < every.size(); ++i) every[i] = i;
    InvalidateMasterRow(pos, every);
  }
  // Relations have no erase; rebuild the master without the row. The
  // MasterIndex rebuild right after is O(|Dm|) anyway. Old index/saturator
  // reference the dropped relation — destroy them before it goes away.
  index_.reset();
  sat_.reset();
  Relation next(master_schema_);
  next.Reserve(master_.size() - 1);
  for (size_t i = 0; i < master_.size(); ++i) {
    if (i != pos) next.Append(master_.at(i));
  }
  master_ = std::move(next);
  index_stale_ = true;
  ++counts_.deltas_applied;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Parse-level entry points

Status DeltaRepairEngine::Apply(const Delta& delta) {
  switch (delta.kind) {
    case DeltaKind::kInsert: {
      CERTFIX_ASSIGN_OR_RETURN(Tuple t,
                               Tuple::FromStrings(schema_, delta.fields));
      return Insert(t);
    }
    case DeltaKind::kUpdate: {
      CERTFIX_ASSIGN_OR_RETURN(Tuple t,
                               Tuple::FromStrings(schema_, delta.fields));
      return Update(delta.row, t);
    }
    case DeltaKind::kDelete:
      return Delete(delta.row);
    case DeltaKind::kMasterInsert: {
      CERTFIX_ASSIGN_OR_RETURN(
          Tuple t, Tuple::FromStrings(master_schema_, delta.fields));
      return MasterInsert(t);
    }
    case DeltaKind::kMasterUpdate: {
      CERTFIX_ASSIGN_OR_RETURN(
          Tuple t, Tuple::FromStrings(master_schema_, delta.fields));
      return MasterUpdate(delta.row, t);
    }
    case DeltaKind::kMasterDelete:
      return MasterDelete(delta.row);
  }
  return Status::InvalidArgument("unknown delta kind");
}

Status DeltaRepairEngine::ApplyAll(DeltaSource* source) {
  Delta delta;
  for (;;) {
    CERTFIX_ASSIGN_OR_RETURN(bool got, source->Next(&delta));
    if (!got) return Status::OK();
    CERTFIX_RETURN_IF_ERROR(Apply(delta));
  }
}

// ---------------------------------------------------------------------------
// Reads

Relation DeltaRepairEngine::SnapshotRepaired() {
  Flush();
  CERTFIX_SPAN("delta.sink");
  Relation out(schema_);
  out.Reserve(order_.size());
  for (uint32_t slot : order_) out.Append(repaired_.at(slot));
  return out;
}

Relation DeltaRepairEngine::SnapshotInput() {
  Flush();
  Relation out(schema_);
  out.Reserve(order_.size());
  for (uint32_t slot : order_) out.Append(input_.at(slot));
  return out;
}

std::vector<size_t> DeltaRepairEngine::ConflictPositions() {
  Flush();
  std::vector<size_t> out;
  for (size_t pos = 0; pos < order_.size(); ++pos) {
    if (slot_class_[order_[pos]] ==
        static_cast<uint8_t>(FixClass::kConflicting)) {
      out.push_back(pos);
    }
  }
  return out;
}

DeltaRepairStats DeltaRepairEngine::stats() {
  Flush();  // publishes the drained counts
  return published_;
}

void DeltaRepairEngine::Publish() {
  DeltaRepairStats now = counts_;
  now.rows = order_.size();
  for (const ShardRepairer& shard : shards_) {
    now.pool_recycles += shard.recycles();
  }
  now.max_reorder = pipeline_.max_reorder();
  telemetry::Registry& reg = *telemetry::Registry::Global();
  const std::string prefix = "delta.";
  // The populations' gauges move by the change, which may be negative.
  for (const auto& [name, count] : RepairTally::kPopulations) {
    reg.GetGauge(prefix + name)
        ->Add(static_cast<int64_t>(now.*count) -
              static_cast<int64_t>(published_.*count));
  }
  for (const auto& [name, count] : RepairTally::kMemoCounts) {
    reg.GetCounter(prefix + name)->Add(now.*count - published_.*count);
  }
  using Field = uint64_t DeltaRepairStats::*;
  const std::pair<const char*, Field> kActivity[] = {
      {"delta.deltas_applied", &DeltaRepairStats::deltas_applied},
      {"delta.tuples_repaired", &DeltaRepairStats::tuples_repaired},
      {"delta.tuples_invalidated", &DeltaRepairStats::tuples_invalidated},
      {"delta.master_rebuilds", &DeltaRepairStats::master_rebuilds},
      {"delta.noop_updates", &DeltaRepairStats::noop_updates},
      {"delta.pool_recycles", &DeltaRepairStats::pool_recycles},
  };
  for (const auto& [name, count] : kActivity) {
    reg.GetCounter(name)->Add(now.*count - published_.*count);
  }
  reg.GetMaxGauge("delta.max_reorder")->Note(now.max_reorder);
  published_ = now;
}

}  // namespace certfix
