#include "core/batch_repair.h"

#include <stdexcept>
#include <utility>

#include "core/shard_repair.h"
#include "stream/ordered_pipeline.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace certfix {

BatchRepairResult BatchRepair::Repair(const Relation& data,
                                      AttrSet trusted) const {
  using Pipeline = OrderedShardPipeline<size_t, RepairedRow>;
  // The shards read rows by the rules' R attribute ids, so `data` must be
  // over R: the same schema object or an equal one, as for
  // CheckTupleSchema.
  const SchemaPtr& r = sat_->rules().r_schema();
  if (data.schema() != r && !data.schema()->Equals(*r)) {
    throw std::invalid_argument("BatchRepair: relation schema " +
                                data.schema()->name() +
                                " does not match the rules' schema " +
                                r->name());
  }
  BatchRepairResult result;
  result.repaired = data;
  std::vector<ShardRepairer> shards =
      MakeShards(ResolveShards(options_.num_threads), *sat_, trusted);
  // The changed cells of each changed row, in row order. They are written
  // after the pipeline is done: result.repaired shares data's pool, which
  // the workers read until then.
  std::vector<std::pair<size_t, std::vector<FixedCell>>> changed;
  {
    Pipeline pipeline(
        shards.size() > 1 ? shards.size() : 0, kRingCapacity,
        [&](size_t ring, std::vector<Pipeline::Ticket>& block,
            const Pipeline::Emit& emit) {
          CERTFIX_SPAN("batch.shard_repair");
          shards[ring].RepairBlock(
              block.size(),
              [&](size_t j) { return data.at(block[j].job); },
              ShardOutput::kChangedRows, emit);
        },
        // Rows are submitted in order from 0, so a result's seq is its row.
        [&](uint64_t row, RepairedRow& r) {
          result.Add(r.report, r.memo_hit);
          if (r.report.conflicting()) {
            result.conflict_rows.push_back(row);
          } else if (!r.changed.empty()) {
            changed.emplace_back(row, std::move(r.changed));
          }
        },
        "batch.merge");
    // Round-robin by seq deals every shard an even share of the rows.
    for (size_t i = 0; i < data.size(); ++i) {
      // False only after a worker failed; Drain rethrows its error.
      if (!pipeline.Submit(i, [](size_t, uint64_t seq) { return seq; })) {
        break;
      }
    }
    pipeline.Drain();
  }
  {
    CERTFIX_SPAN("batch.merge");
    const ValuePool& master = *sat_->index().pool();
    for (const auto& [row, cells] : changed) {
      for (const auto& [attr, id] : cells) {
        result.repaired.SetCell(row, attr, master.value(id));
      }
    }
  }
  // Fold run totals into the registry so `--metrics-json` mirrors the
  // result struct.
  telemetry::Registry* reg = telemetry::Registry::Global();
  reg->GetCounter("batch.rows")->Add(data.size());
  result.AddTo(*reg, "batch");
  return result;
}

}  // namespace certfix
