#include "stream/stream_repair.h"

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace certfix {

StreamRepairEngine::StreamRepairEngine(const Saturator& sat, AttrSet trusted,
                                       StreamSink* sink,
                                       StreamOptions options)
    : schema_(sat.rules().r_schema()),
      trusted_(trusted),
      trusted_attrs_(trusted.ToVector()),
      sink_(sink),
      shards_(MakeShards(ResolveShards(options.num_shards), sat, trusted_)),
      pipeline_(shards_.size(), kRingCapacity,
                [this](size_t ring, std::vector<Pipeline::Ticket>& block,
                       const Pipeline::Emit& emit) {
                  RepairShardBlock(ring, block, emit);
                },
                [this](uint64_t seq, RepairedRow& r) { EmitRecord(seq, r); },
                "stream.merge") {}

bool StreamRepairEngine::Submit(std::vector<Value> values) {
  CERTFIX_SPAN("stream.ingest");
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
  tuples_in_.fetch_add(1, std::memory_order_relaxed);
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
    return Status::Internal("stream engine is finished or failed");
  }
  return Status::OK();
}

void StreamRepairEngine::RepairShardBlock(
    size_t ring, std::vector<Pipeline::Ticket>& block,
    const Pipeline::Emit& emit) {
  CERTFIX_SPAN("stream.shard_repair");
  shards_[ring].RepairBlock(
      block.size(),
      [&block](size_t j) -> std::vector<Value>& { return block[j].job; },
      ShardOutput::kRows, emit);
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
  ++counts_.tuples_out;
  counts_.Add(row.report, row.memo_hit);
}

StreamSnapshot StreamRepairEngine::Finish() {
  if (!finished_) {
    finished_ = true;
    pipeline_.Close();  // joins the workers: counts_ is final
    StreamSnapshot& s = counts_;
    s.tuples_in = tuples_in_.load(std::memory_order_relaxed);
    s.backpressure_waits = pipeline_.backpressure_waits();
    s.max_reorder = pipeline_.max_reorder();
    telemetry::Registry* reg = telemetry::Registry::Global();
    s.AddTo(*reg, "stream");
    reg->GetCounter("stream.tuples_in")->Add(s.tuples_in);
    reg->GetCounter("stream.tuples_out")->Add(s.tuples_out);
    reg->GetCounter("stream.backpressure_waits")->Add(s.backpressure_waits);
    reg->GetMaxGauge("stream.max_reorder")->Note(s.max_reorder);
  }
  pipeline_.Drain();  // rethrows the first worker exception, once
  return counts_;
}

}  // namespace certfix
