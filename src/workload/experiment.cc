#include "workload/experiment.h"

#include "util/timer.h"

namespace certfix {

ExperimentResult RunInteractiveExperiment(CertainFixEngine* engine,
                                          const Relation& master,
                                          const Relation& non_master,
                                          const ExperimentConfig& config) {
  DirtyGenerator gen(master, non_master, config.gen);
  std::vector<DirtyPair> pairs = gen.Generate(config.num_tuples);

  ExperimentResult result;
  result.per_round.resize(config.report_rounds);
  std::vector<MetricsAccumulator> acc(config.report_rounds);
  std::vector<double> round_seconds(config.report_rounds, 0.0);
  std::vector<size_t> round_counts(config.report_rounds, 0);
  size_t total_rounds = 0;
  double total_seconds = 0.0;

  for (const DirtyPair& pair : pairs) {
    GroundTruthUser user(pair.clean);
    FixOutcome outcome = engine->Fix(pair.dirty, &user);
    total_rounds += outcome.num_rounds();
    total_seconds += outcome.total_seconds();
    if (outcome.completed) ++result.completed_tuples;
    if (outcome.conflict) ++result.conflict_tuples;

    // Per-round cumulative state: after round k the tuple is
    // rounds[min(k, last)] (state freezes once fixing completes).
    for (size_t k = 0; k < config.report_rounds; ++k) {
      size_t idx = std::min(k, outcome.rounds.empty()
                                   ? static_cast<size_t>(0)
                                   : outcome.rounds.size() - 1);
      if (outcome.rounds.empty()) {
        acc[k].Record(pair.dirty, pair.clean, pair.dirty, AttrSet());
        continue;
      }
      const RoundRecord& rec = outcome.rounds[idx];
      acc[k].Record(pair.dirty, pair.clean, rec.after, rec.auto_changed);
      if (k < outcome.rounds.size()) {
        round_seconds[k] += outcome.rounds[k].seconds;
        ++round_counts[k];
      }
    }
  }

  for (size_t k = 0; k < config.report_rounds; ++k) {
    RoundMetrics& m = result.per_round[k];
    m.recall_t = acc[k].recall_t();
    m.recall_a = acc[k].recall_a();
    m.precision_a = acc[k].precision_a();
    m.f_measure = acc[k].f_measure();
    m.tuples_active = round_counts[k];
    m.avg_seconds =
        round_counts[k] == 0 ? 0.0 : round_seconds[k] / round_counts[k];
  }
  result.avg_rounds = pairs.empty()
                          ? 0.0
                          : static_cast<double>(total_rounds) / pairs.size();
  result.avg_round_seconds =
      total_rounds == 0 ? 0.0 : total_seconds / static_cast<double>(total_rounds);
  result.cache = engine->cache_stats();
  return result;
}

namespace {

// Appends each pair's dirty tuple to `*dirty`, returning the pairs
// actually appended. Append can only fail on a schema mismatch (a
// workload bug); dropping the pair keeps row indexes aligned with the
// relation so scoring never reads past the repaired rows.
std::vector<const DirtyPair*> BuildDirtyRelation(
    const std::vector<DirtyPair>& pairs, Relation* dirty) {
  std::vector<const DirtyPair*> appended;
  appended.reserve(pairs.size());
  dirty->Reserve(pairs.size());
  for (const DirtyPair& pair : pairs) {
    if (dirty->Append(pair.dirty).ok()) appended.push_back(&pair);
  }
  return appended;
}

// Attribute-level quality of `repaired` (row i = pairs[i]) against each
// pair's ground truth.
MetricsAccumulator ScoreRepairs(const std::vector<const DirtyPair*>& pairs,
                                const Relation& repaired) {
  MetricsAccumulator acc;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const Tuple& out = repaired.at(i);
    AttrSet changed;
    for (AttrId a : pairs[i]->dirty.DiffAttrs(out)) changed.Add(a);
    acc.Record(pairs[i]->dirty, pairs[i]->clean, out, changed);
  }
  return acc;
}

}  // namespace

BaselineResult RunIncRepBaseline(const CfdSet& cfds,
                                 const std::vector<DirtyPair>& pairs,
                                 const IncRepOptions& options) {
  BaselineResult result;
  if (pairs.empty()) return result;
  Relation dirty(pairs.front().dirty.schema());
  std::vector<const DirtyPair*> appended = BuildDirtyRelation(pairs, &dirty);
  Timer timer;
  IncRep increp(cfds, options);
  RepairResult repair = increp.Repair(dirty);
  result.seconds = timer.Seconds();
  result.cells_changed = repair.cells_changed;

  MetricsAccumulator acc = ScoreRepairs(appended, repair.repaired);
  result.recall_a = acc.recall_a();
  result.precision_a = acc.precision_a();
  result.f_measure = acc.f_measure();
  return result;
}

}  // namespace certfix
