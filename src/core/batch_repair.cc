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
  const size_t num_attrs = data.schema()->num_attrs();
  std::vector<ShardRepairer> shards =
      MakeShards(ResolveShards(options_.num_threads), *sat_, trusted);
  // Rows whose fix differs from the input, in row order. Their cells are
  // written after the pipeline is done: result.repaired shares data's
  // pool, which the submitter and workers read until then.
  std::vector<std::pair<size_t, std::vector<Value>>> changed;
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
          // Rows are dealt round-robin, so a ring whose row is within one
          // round of the end gets no more: free the shard's pool and memo
          // now, on its own thread and alongside the other shards, rather
          // than on the caller after the join.
          if (block.back().job + shards.size() >= data.size()) {
            shards[ring].RecycleIfOver(0);
          }
        },
        // Rows are submitted in order from 0, so a result's seq is its row.
        [&](uint64_t row, RepairedRow& r) {
          result.Add(r.report, r.memo_hit);
          if (r.report.conflicting()) {
            result.conflict_rows.push_back(row);
          } else if (r.report.cells_changed > 0) {
            changed.emplace_back(row, std::move(r.fixed));
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
    for (auto& [row, fixed] : changed) {
      for (size_t a = 0; a < num_attrs; ++a) {
        const AttrId attr = static_cast<AttrId>(a);
        if (result.repaired.Cell(row, attr) != fixed[a]) {
          result.repaired.SetCell(row, attr, std::move(fixed[a]));
        }
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
