/// \file experiment.h
/// \brief The Sect. 6 experiment driver: runs the interactive framework
/// over a generated tuple stream and reports per-round quality metrics,
/// plus the IncRep baseline runner for the Exp-1(7) comparison.

#ifndef CERTFIX_WORKLOAD_EXPERIMENT_H_
#define CERTFIX_WORKLOAD_EXPERIMENT_H_

#include "core/certain_fix.h"
#include "repair/increp.h"
#include "workload/dirty_gen.h"
#include "workload/metrics.h"

namespace certfix {

/// \brief Driver configuration.
struct ExperimentConfig {
  size_t num_tuples = 1000;
  size_t report_rounds = 5;   ///< per-round metrics reported for k = 1..N
  DirtyGenOptions gen;
};

/// \brief Cumulative metrics after k rounds of interaction.
struct RoundMetrics {
  double recall_t = 0.0;
  double recall_a = 0.0;
  double precision_a = 1.0;
  double f_measure = 0.0;
  double avg_seconds = 0.0;   ///< mean engine time of round k (fixing +
                              ///< suggestion generation)
  size_t tuples_active = 0;   ///< tuples that still needed round k
};

/// \brief Full experiment outcome.
struct ExperimentResult {
  std::vector<RoundMetrics> per_round;  ///< index k-1 = after k rounds
  double avg_rounds = 0.0;              ///< mean interactions per tuple
  double avg_round_seconds = 0.0;       ///< mean engine time per round
  size_t completed_tuples = 0;          ///< tuples reaching a certain fix
  size_t conflict_tuples = 0;
  SuggestionCache::Stats cache;
};

/// Runs the interactive framework over `config.num_tuples` generated
/// inputs. `non_master` supplies the non-duplicate pool (disjoint keys).
ExperimentResult RunInteractiveExperiment(CertainFixEngine* engine,
                                          const Relation& master,
                                          const Relation& non_master,
                                          const ExperimentConfig& config);

/// \brief IncRep baseline outcome on the same generated stream.
struct BaselineResult {
  double recall_a = 0.0;
  double precision_a = 0.0;
  double f_measure = 0.0;
  size_t cells_changed = 0;
  double seconds = 0.0;
};

/// Repairs the dirty batch with IncRep and scores it against ground truth.
BaselineResult RunIncRepBaseline(const CfdSet& cfds,
                                 const std::vector<DirtyPair>& pairs,
                                 const IncRepOptions& options = {});

}  // namespace certfix

#endif  // CERTFIX_WORKLOAD_EXPERIMENT_H_
