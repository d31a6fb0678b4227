/// \file scenario.h
/// \brief Adversarial scenario generator: composes a key-popularity
/// distribution (arrival.h), an arrival-shape model (arrival.h), and a
/// correlated error model (error_model.h) over one of the synthetic
/// workloads (hosp.h / dblp.h) into a replayable scenario — a master
/// relation, an initial input relation, and a DeltaLogSource-compatible
/// delta log. The CLI (`certfix workload gen`), the scenario-corpus
/// harness (tests/scenario_corpus_test.cc) and perfbench's workloads all
/// replay the *same bytes*, so "engines agree on every workload shape we
/// can name" is a byte-level statement.
///
/// Determinism contract: GenerateScenario is a pure function of the spec
/// (seed included). Generating the same spec twice yields bit-identical
/// master/initial CSV and delta-log bytes — enforced by tests. To keep
/// that portable the generator never calls libm transcendentals (see
/// arrival.h) and renders no floating-point values into scenario bytes.
///
/// Spec format: a flat TOML subset —
///
/// ```toml
/// name = "zipf-burst"          # defaults to the file stem
/// workload = "hosp"            # hosp | dblp
/// seed = 42
/// master_rows = 120
/// initial_rows = 40
/// deltas = 300
/// duplicate_rate = 0.6         # P(input row matches a master row)
///
/// [popularity]
/// kind = "zipf"                # uniform | zipf | hotset
/// alpha = 1.2                  # zipf skew
/// hot_fraction = 0.1           # hotset: window size
/// hot_rate = 0.9               # hotset: P(pick in window)
/// shift_every = 100            # hotset: rotate window every N steps
///
/// [arrival]
/// kind = "bursty"              # steady | bursty
/// insert_weight = 0.4
/// update_weight = 0.4
/// delete_weight = 0.2
/// master_ratio = 0.05          # fraction of steps hitting master data
/// master_insert_weight = 0.4
/// master_update_weight = 0.4
/// master_delete_weight = 0.2
/// burst_min = 4
/// burst_max = 24
///
/// [errors]
/// tuple_error_rate = 0.25
/// burst_continue = 0.6         # error bursts across consecutive tuples
/// cluster_len = 3              # contiguous corrupted-attribute runs
/// cell_rate = 0.25             # used when cluster_len = 0
/// typo_weight = 0.45
/// null_weight = 0.2
/// transpose_weight = 0.2
/// swap_weight = 0.1
/// hostile_weight = 0.05
/// master_noise_rate = 0.0      # P(a master update corrupts the row)
/// ```
///
/// Supported TOML: `key = value` lines, `[section]` headers, `#`
/// comments; values are quoted strings, integers, floats, and booleans.
/// Unknown keys or sections are errors (typos must not silently produce
/// a different scenario).

#ifndef CERTFIX_WORKLOAD_SCENARIO_H_
#define CERTFIX_WORKLOAD_SCENARIO_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "relational/relation.h"
#include "rules/rule_set.h"
#include "stream/delta_source.h"
#include "util/result.h"
#include "workload/arrival.h"
#include "workload/error_model.h"

namespace certfix {

/// \brief Everything a scenario is generated from. Byte-determinism is
/// per (spec, seed); the seed lives in the spec.
struct ScenarioSpec {
  std::string name;
  std::string workload = "hosp";  ///< hosp | dblp
  uint64_t seed = 1;
  size_t master_rows = 120;
  size_t initial_rows = 40;
  size_t num_deltas = 300;
  /// P(a generated input row duplicates a master row) — the paper's d%.
  double duplicate_rate = 0.6;
  /// P(a master update corrupts a cell instead of staying consistent).
  double master_noise_rate = 0.0;
  PopularityOptions popularity;
  ArrivalOptions arrival;
  ErrorModelOptions errors;

  Status Validate() const;
};

/// Parses the TOML subset documented above. `default_name` seeds the
/// scenario name when the spec has no `name` key (callers pass the file
/// stem).
Result<ScenarioSpec> ParseScenarioSpec(const std::string& text,
                                       const std::string& default_name = "");
Result<ScenarioSpec> LoadScenarioSpecFile(const std::string& path);

/// \brief A generated scenario: the replayable bytes plus the typed
/// objects the harnesses run the engines with.
struct Scenario {
  ScenarioSpec spec;
  SchemaPtr schema;
  RuleSet rules;
  AttrSet trusted;
  std::vector<std::string> trusted_names;  ///< for CLI flags / echo
  Relation master;    ///< initial master data Dm
  Relation initial;   ///< initial input relation D
  std::vector<Delta> deltas;  ///< the scenario's mutation log
};

/// Generates the scenario. Fails on invalid specs or unknown workloads.
Result<Scenario> GenerateScenario(const ScenarioSpec& spec);

/// The scenario's deltas as WriteDeltaLog (stream/delta_source.h)
/// renders them, under the scenario's name and seed.
std::string DeltaLogToString(const Scenario& scenario);

/// Applies `deltas` positionally to string-rendered rows — the oracle
/// semantics documented in delta_source.h (deletes shift later rows up,
/// inserts append). Row fields use the same rendering as WriteCsv (null
/// as ""), so building a Relation from the result and running
/// BatchRepair over it is the from-scratch reference for any engine that
/// consumed the same log. Fails on out-of-range positions.
Status ApplyDeltaLog(const std::vector<Delta>& deltas,
                     std::vector<std::vector<std::string>>* input_rows,
                     std::vector<std::vector<std::string>>* master_rows);

/// String-rendered rows of `rel` (null cells as ""), the inverse of
/// RelationFromRows.
std::vector<std::vector<std::string>> RenderRows(const Relation& rel);

/// Builds a relation by appending each row through the CSV typing path.
Result<Relation> RelationFromRows(
    SchemaPtr schema, const std::vector<std::vector<std::string>>& rows);

}  // namespace certfix

#endif  // CERTFIX_WORKLOAD_SCENARIO_H_
