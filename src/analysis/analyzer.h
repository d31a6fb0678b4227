/// \file analyzer.h
/// \brief Ruleset static analyzer: is (Sigma, Dm, Z) well-formed?
///
/// Fronts the scattered well-formedness machinery — CheckUniqueFix
/// (consistency witnesses), DependencyGraph (cycles, reachability),
/// ZProblems-style closure (dead rules, coverage gaps) — behind one call
/// producing a RulesetReport of typed diagnostics. Three consumers:
/// `cli analyze` (human + --json), the repair commands' `--analyze` gate
/// (GateRuleset below), and tests.
///
/// The conflict search is a sound restriction of the active-domain
/// enumeration in the proof of Theorem 1: a trusted attribute's probe
/// value only ever reaches a rule through t[X] = tm[Xm] key agreement or
/// a pattern-constant comparison, so per attribute it suffices to try the
/// corresponding master-column values, the positive pattern constants,
/// and one fresh constant standing for "everything else". Attributes
/// outside Z (or unmentioned in Sigma) are never read and get a single
/// fresh value. Every reported conflict carries a concrete witness tuple;
/// absence of conflicts is exact up to the probe budget (a truncated
/// search adds an analysis-budget diagnostic).

#ifndef CERTFIX_ANALYSIS_ANALYZER_H_
#define CERTFIX_ANALYSIS_ANALYZER_H_

#include "analysis/diagnostics.h"
#include "analysis/rule_summary.h"
#include "core/saturation.h"
#include "util/result.h"

namespace certfix {

/// \brief Bounds on the analyzer's exhaustive parts.
struct AnalyzeOptions {
  /// Probe-tuple budget for the conflict search; exceeding it truncates
  /// the search and emits an analysis-budget warning.
  size_t max_probes = 100000;
  /// Conflict diagnostics reported (distinct (rule, rule, attr) triples
  /// beyond this many are counted but not rendered).
  size_t max_witnesses = 4;
};

/// \brief Static analyzer over one rule set.
class RulesetAnalyzer {
 public:
  /// `master_schema`, when given, is the schema the master data actually
  /// has; the analyzer reports drift between it and the schema the rules
  /// were compiled against. Null means "trust the ruleset's own Rm".
  explicit RulesetAnalyzer(const RuleSet& rules,
                           SchemaPtr master_schema = nullptr);

  /// The trusted region used when a caller has none: attributes no rule
  /// ever fixes (forced into every certain region, Sect. 4.2).
  static AttrSet DefaultTrusted(const RuleSet& rules);

  /// Full analysis. Without `master` the conflict search is skipped
  /// (structural checks only, probes = 0).
  RulesetReport Analyze(const Relation* master, AttrSet trusted,
                        const AnalyzeOptions& opts = {}) const;

 private:
  void CheckSchemaAndTypes(RulesetReport* report) const;
  void CheckStructure(const RuleSetSummary& summary, RulesetReport* report) const;
  void CheckShadowing(RulesetReport* report) const;
  void CheckCycles(const DependencyGraph& graph, RulesetReport* report) const;
  void CheckConflicts(const Saturator& sat, AttrSet trusted,
                      const AnalyzeOptions& opts, RulesetReport* report) const;

  const RuleSet* rules_;
  SchemaPtr rm_;  ///< expected master schema (never null after ctor)
};

/// \brief How a repair treats ruleset analysis before it starts.
///
///  - kOff:    no analysis; (Sigma, Dm, Z) is trusted as-is.
///  - kWarn:   analyze, log every diagnostic at warn level, proceed.
///  - kStrict: analyze; refuse the repair when any error-severity
///             diagnostic exists, carrying the witness in the Status.
enum class AnalyzeMode { kOff, kWarn, kStrict };

/// \brief Repair precondition: analyze (rules, master, trusted) under
/// `mode`, once, before any engine is built. kOff returns OK without
/// analyzing; kWarn logs every diagnostic and returns OK; kStrict
/// additionally returns an Inconsistent status carrying the first error
/// (witness included) when any error-severity diagnostic exists.
Status GateRuleset(const RuleSet& rules, const Relation& master,
                   AttrSet trusted, AnalyzeMode mode);

}  // namespace certfix

#endif  // CERTFIX_ANALYSIS_ANALYZER_H_
