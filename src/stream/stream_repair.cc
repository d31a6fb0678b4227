#include "stream/stream_repair.h"

#include <stdexcept>

#include "analysis/analyzer.h"
#include "telemetry/trace.h"

namespace certfix {

StreamRepairEngine::StreamRepairEngine(const Saturator& sat, AttrSet trusted,
                                       StreamSink* sink,
                                       StreamOptions options)
    : sat_(&sat),
      schema_(sat.rules().r_schema()),
      trusted_(trusted),
      trusted_attrs_(trusted.ToVector()),
      sink_(sink),
      options_(options),
      counts_({{"stream.tuples_in", &StreamSnapshot::tuples_in},
               {"stream.tuples_out", &StreamSnapshot::tuples_out},
               {"stream.fully_covered", &StreamSnapshot::fully_covered},
               {"stream.partial", &StreamSnapshot::partial},
               {"stream.untouched", &StreamSnapshot::untouched},
               {"stream.conflicting", &StreamSnapshot::conflicting},
               {"stream.cells_changed", &StreamSnapshot::cells_changed},
               {"stream.backpressure_waits",
                &StreamSnapshot::backpressure_waits},
               {"stream.pool_recycles", &StreamSnapshot::pool_recycles},
               {"stream.memo_hits", &StreamSnapshot::memo_hits},
               {"stream.memo_misses", &StreamSnapshot::memo_misses}}),
      // The analyze_first gate runs before any worker exists: a strict
      // rejection leaves the engine inert (no workers) with the verdict
      // in precheck_status_ — Push refuses, Finish throws it.
      precheck_status_(GateRuleset(sat, trusted_, options_.analyze_first,
                                   "StreamRepairEngine")),
      pipeline_(precheck_status_.ok() ? ResolveShards(options_.num_shards)
                                      : 0,
                options_.queue_capacity, [this] { return MakeShardStep(); },
                [this](uint64_t seq, RepairedRow& r) { EmitRecord(seq, r); },
                "stream.merge") {}

bool StreamRepairEngine::Submit(std::vector<Value> values) {
  CERTFIX_SPAN("stream.ingest");
  if (!precheck_status_.ok()) return false;
  // FNV-1a over the master-key (trusted) cell hashes: tuples of one
  // entity land on one shard, so its repeats meet that shard's memo.
  // Routing never affects output — the merge stage orders by seq — so
  // any hash is semantically safe here. An empty trusted set degenerates
  // to round-robin.
  auto route = [this](const std::vector<Value>& cells, uint64_t seq) {
    if (trusted_attrs_.empty()) return static_cast<size_t>(seq);
    size_t h = 1469598103934665603ULL;
    for (AttrId a : trusted_attrs_) {
      h ^= cells[a].Hash();
      h *= 1099511628211ULL;
    }
    return h;
  };
  if (!pipeline_.Submit(std::move(values), route)) return false;
  CERTFIX_TL_COUNTER("stream.tuples_in")->Increment();
  return true;
}

bool StreamRepairEngine::Push(const Tuple& t) {
  if (!CheckTupleSchema(t, schema_).ok()) return false;
  std::vector<Value> values;
  values.reserve(schema_->num_attrs());
  for (size_t a = 0; a < schema_->num_attrs(); ++a) {
    values.push_back(t.at(static_cast<AttrId>(a)));
  }
  return Submit(std::move(values));
}

Status StreamRepairEngine::PushStrings(
    const std::vector<std::string>& fields) {
  if (fields.size() != schema_->num_attrs()) {
    return Status::InvalidArgument(
        "field count " + std::to_string(fields.size()) +
        " does not match schema arity " +
        std::to_string(schema_->num_attrs()));
  }
  std::vector<Value> values;
  values.reserve(fields.size());
  for (size_t a = 0; a < fields.size(); ++a) {
    values.push_back(
        Value::Parse(fields[a], schema_->attr_type(static_cast<AttrId>(a))));
  }
  if (!Submit(std::move(values))) {
    if (!precheck_status_.ok()) return precheck_status_;
    return Status::Internal("stream engine is finished or failed");
  }
  return Status::OK();
}

StreamRepairEngine::Pipeline::Step StreamRepairEngine::MakeShardStep() {
  auto shard = std::make_shared<ShardRepairer>(sat_->rules(), trusted_,
                                               options_.use_memo);
  shard->Bind(*sat_);
  return [this, shard](std::vector<Pipeline::Ticket>& block,
                       const Pipeline::Emit& emit) {
    CERTFIX_SPAN("stream.shard_repair");
    // Once per block, before any row is staged: the budget may overshoot
    // by at most one block of values.
    if (shard->RecycleIfOver(options_.pool_recycle_values)) {
      CERTFIX_TL_COUNTER("stream.pool_recycles")->Increment();
    }
    shard->RepairBlock(
        block.size(),
        [&block](size_t j) -> std::vector<Value>& { return block[j].job; },
        /*record_probes=*/false, emit);
  };
}

void StreamRepairEngine::EmitRecord(uint64_t seq, RepairedRow& row) {
  StreamRecord record;
  record.seq = seq;
  record.fixed = std::move(row.fixed);
  record.report = row.report;
  {
    CERTFIX_SPAN("stream.sink");
    sink_->Emit(record);
  }
  CERTFIX_TL_COUNTER("stream.tuples_out")->Increment();
  CERTFIX_TL_COUNTER("stream.cells_changed")->Add(row.report.cells_changed);
  switch (row.report.kind) {
    case FixClass::kFullyCovered:
      CERTFIX_TL_COUNTER("stream.fully_covered")->Increment();
      break;
    case FixClass::kPartial:
      CERTFIX_TL_COUNTER("stream.partial")->Increment();
      break;
    case FixClass::kUntouched:
      CERTFIX_TL_COUNTER("stream.untouched")->Increment();
      break;
    case FixClass::kConflicting:
      CERTFIX_TL_COUNTER("stream.conflicting")->Increment();
      break;
  }
  if (row.memo == 1) CERTFIX_TL_COUNTER("stream.memo_hits")->Increment();
  if (row.memo == 0) CERTFIX_TL_COUNTER("stream.memo_misses")->Increment();
}

StreamSnapshot StreamRepairEngine::Finish() {
  if (!precheck_status_.ok()) {
    throw std::runtime_error(precheck_status_.ToString());
  }
  if (!finished_) {
    finished_ = true;
    pipeline_.Close();
    CERTFIX_TL_COUNTER("stream.backpressure_waits")
        ->Add(pipeline_.backpressure_waits());
  }
  pipeline_.Drain();  // rethrows the first worker exception, once
  StreamSnapshot s;
  counts_.Fill(&s);
  s.max_reorder = pipeline_.max_reorder();
  telemetry::Registry::Global()
      ->GetMaxGauge("stream.max_reorder")
      ->Note(s.max_reorder);
  return s;
}

}  // namespace certfix
