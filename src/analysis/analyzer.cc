#include "analysis/analyzer.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <tuple>

#include "core/exhaustive.h"
#include "core/master_index.h"
#include "util/logging.h"

namespace certfix {

namespace {

bool TypeCompatible(DataType type, const Value& v) {
  if (v.is_null()) return true;
  switch (type) {
    case DataType::kString: return v.is_string();
    case DataType::kInt: return v.is_int();
    case DataType::kDouble: return v.is_double() || v.is_int();
  }
  return false;
}

/// True when every tuple matching `specific` also satisfies `general`.
bool CellImplied(const PatternValue& general, const PatternValue& specific) {
  if (general.is_wildcard()) return true;
  if (general.is_const()) {
    return specific.is_const() && specific.value() == general.value();
  }
  // general is a negation x != c.
  if (specific.is_neg_const()) return specific.value() == general.value();
  return specific.is_const() && specific.value() != general.value();
}

/// True when rule `i` is at least as general as rule `j` with the same
/// fix: any move (j, tm) on any tuple is also a move (i, tm) with the
/// same effect, so `j` is redundant.
bool Shadows(const EditingRule& i, const EditingRule& j) {
  if (i.rhs() != j.rhs() || i.rhsm() != j.rhsm()) return false;
  for (size_t k = 0; k < i.lhs().size(); ++k) {
    AttrId x = i.lhs()[k];
    auto it = std::find(j.lhs().begin(), j.lhs().end(), x);
    if (it == j.lhs().end()) return false;
    size_t m = static_cast<size_t>(it - j.lhs().begin());
    if (j.lhsm()[m] != i.lhsm()[k]) return false;
  }
  PatternTuple normalized = i.pattern().Normalized();
  for (const auto& [attr, cell] : normalized.cells()) {
    if (!CellImplied(cell, j.pattern().Get(attr))) return false;
  }
  return true;
}

std::string QuotedNames(const std::vector<std::string>& names) {
  std::string out;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ", ";
    out += "'" + names[i] + "'";
  }
  return out;
}

}  // namespace

RulesetAnalyzer::RulesetAnalyzer(const RuleSet& rules, SchemaPtr master_schema)
    : rules_(&rules),
      rm_(master_schema ? std::move(master_schema) : rules.rm_schema()) {}

AttrSet RulesetAnalyzer::DefaultTrusted(const RuleSet& rules) {
  return rules.r_schema()->AllAttrs().Minus(rules.RhsUnion());
}

RulesetReport RulesetAnalyzer::Analyze(const Relation* master, AttrSet trusted,
                                       const AnalyzeOptions& opts) const {
  DependencyGraph graph(*rules_);
  RuleSetSummary summary(graph, trusted);

  RulesetReport report;
  report.num_rules = rules_->size();
  const SchemaPtr& r = rules_->r_schema();
  for (AttrId a : trusted.ToVector()) report.trusted.push_back(r->attr_name(a));
  for (AttrId a : summary.closure().Minus(trusted).ToVector()) {
    report.fixable.push_back(r->attr_name(a));
  }
  for (size_t i = 0; i < rules_->size(); ++i) {
    RuleSummaryRow row;
    row.rule = rules_->at(i).name();
    row.reachable = summary.Reachable(i);
    row.fanout = summary.Fanout(i);
    row.downstream = summary.Downstream(i).size();
    report.summary.push_back(std::move(row));
  }

  CheckSchemaAndTypes(&report);
  bool schema_ok = report.ok();
  if (master != nullptr && schema_ok &&
      !master->schema()->Equals(*rules_->rm_schema())) {
    Diagnostic d;
    d.kind = DiagnosticKind::kUnknownAttribute;
    d.severity = DiagnosticSeverity::kError;
    d.message = "master relation schema " + master->schema()->ToString() +
                " does not match the ruleset's master schema " +
                rules_->rm_schema()->ToString();
    report.diagnostics.push_back(std::move(d));
    schema_ok = false;
  }
  if (master != nullptr && schema_ok && !rules_->empty()) {
    MasterIndex index(*rules_, *master);
    Saturator sat(*rules_, *master, index);
    CheckConflicts(sat, trusted, opts, &report);
  }
  CheckCycles(graph, &report);
  CheckStructure(summary, &report);
  CheckShadowing(&report);
  return report;
}

void RulesetAnalyzer::CheckSchemaAndTypes(RulesetReport* report) const {
  const SchemaPtr& r = rules_->r_schema();
  for (size_t i = 0; i < rules_->size(); ++i) {
    const EditingRule& rule = rules_->at(i);
    const SchemaPtr& rule_rm = rule.rm_schema();
    std::set<AttrId> seen_master;
    std::vector<AttrId> master_side(rule.lhsm());
    master_side.push_back(rule.rhsm());
    for (AttrId ma : master_side) {
      if (!seen_master.insert(ma).second) continue;
      if (ma >= rm_->num_attrs() ||
          rule_rm->attr_name(ma) != rm_->attr_name(ma)) {
        Diagnostic d;
        d.kind = DiagnosticKind::kUnknownAttribute;
        d.severity = DiagnosticSeverity::kError;
        d.rules = {rule.name()};
        d.attr = rule_rm->attr_name(ma);
        d.message = "rule '" + rule.name() + "' references master attribute '" +
                    rule_rm->attr_name(ma) + "' absent from " +
                    rm_->ToString();
        report->diagnostics.push_back(std::move(d));
        continue;
      }
      // Names agree; flag a type change at the same position.
      if (rule_rm->attr_type(ma) != rm_->attr_type(ma)) {
        Diagnostic d;
        d.kind = DiagnosticKind::kTypeMismatch;
        d.severity = DiagnosticSeverity::kError;
        d.rules = {rule.name()};
        d.attr = rm_->attr_name(ma);
        d.message = "rule '" + rule.name() + "' expects master attribute '" +
                    rm_->attr_name(ma) + "' to be " +
                    DataTypeName(rule_rm->attr_type(ma)) + " but it is " +
                    DataTypeName(rm_->attr_type(ma));
        report->diagnostics.push_back(std::move(d));
      }
    }
    // Positional comparisons t[X] = tm[Xm] and the copy t[B] := tm[Bm]
    // are type-incompatible when the paired attributes disagree.
    for (size_t k = 0; k < rule.lhs().size(); ++k) {
      AttrId x = rule.lhs()[k];
      AttrId xm = rule.lhsm()[k];
      if (xm < rule_rm->num_attrs() &&
          r->attr_type(x) != rule_rm->attr_type(xm)) {
        Diagnostic d;
        d.kind = DiagnosticKind::kTypeMismatch;
        d.severity = DiagnosticSeverity::kError;
        d.rules = {rule.name()};
        d.attr = r->attr_name(x);
        d.message = "rule '" + rule.name() + "' compares " +
                    r->attr_name(x) + " (" + DataTypeName(r->attr_type(x)) +
                    ") against master attribute " + rule_rm->attr_name(xm) +
                    " (" + DataTypeName(rule_rm->attr_type(xm)) +
                    "); the key can never match";
        report->diagnostics.push_back(std::move(d));
      }
    }
    if (rule.rhsm() < rule_rm->num_attrs() &&
        r->attr_type(rule.rhs()) != rule_rm->attr_type(rule.rhsm())) {
      Diagnostic d;
      d.kind = DiagnosticKind::kTypeMismatch;
      d.severity = DiagnosticSeverity::kError;
      d.rules = {rule.name()};
      d.attr = r->attr_name(rule.rhs());
      d.message = "rule '" + rule.name() + "' fixes " +
                  r->attr_name(rule.rhs()) + " (" +
                  DataTypeName(r->attr_type(rule.rhs())) +
                  ") from master attribute " + rule_rm->attr_name(rule.rhsm()) +
                  " (" + DataTypeName(rule_rm->attr_type(rule.rhsm())) + ")";
      report->diagnostics.push_back(std::move(d));
    }
    for (const auto& [attr, cell] : rule.pattern().cells()) {
      if (cell.is_wildcard()) continue;
      if (!TypeCompatible(r->attr_type(attr), cell.value())) {
        Diagnostic d;
        d.kind = DiagnosticKind::kTypeMismatch;
        d.severity = DiagnosticSeverity::kError;
        d.rules = {rule.name()};
        d.attr = r->attr_name(attr);
        d.message = "rule '" + rule.name() + "' pattern constant " +
                    cell.value().ToString() + " on attribute '" +
                    r->attr_name(attr) + "' is not " +
                    DataTypeName(r->attr_type(attr));
        report->diagnostics.push_back(std::move(d));
      }
    }
  }
}

void RulesetAnalyzer::CheckStructure(const RuleSetSummary& summary,
                                     RulesetReport* report) const {
  const SchemaPtr& r = rules_->r_schema();
  for (size_t i = 0; i < rules_->size(); ++i) {
    const EditingRule& rule = rules_->at(i);
    if (summary.Reachable(i)) continue;
    Diagnostic d;
    d.kind = DiagnosticKind::kDeadRule;
    d.severity = DiagnosticSeverity::kWarning;
    d.rules = {rule.name()};
    d.attr = r->attr_name(rule.rhs());
    if (summary.trusted().Contains(rule.rhs())) {
      d.message = "rule '" + rule.name() +
                  "' can never fire: its target attribute '" +
                  r->attr_name(rule.rhs()) + "' is already trusted";
    } else {
      std::string missing;
      for (AttrId a :
           rule.premise_set().Minus(summary.closure()).ToVector()) {
        if (!missing.empty()) missing += ", ";
        missing += r->attr_name(a);
      }
      d.message = "rule '" + rule.name() +
                  "' is unreachable: premise attribute(s) {" + missing +
                  "} can never be validated from the trusted region";
    }
    report->diagnostics.push_back(std::move(d));
  }
  for (AttrId a : r->AllAttrs().Minus(summary.closure()).ToVector()) {
    Diagnostic d;
    d.kind = DiagnosticKind::kCoverageGap;
    d.severity = DiagnosticSeverity::kWarning;
    d.attr = r->attr_name(a);
    d.message = "no rule chain can fix attribute '" + r->attr_name(a) +
                "' from the trusted region; repairs leave it unvalidated";
    report->diagnostics.push_back(std::move(d));
  }
}

void RulesetAnalyzer::CheckShadowing(RulesetReport* report) const {
  for (size_t j = 0; j < rules_->size(); ++j) {
    for (size_t i = 0; i < rules_->size(); ++i) {
      if (i == j) continue;
      if (!Shadows(rules_->at(i), rules_->at(j))) continue;
      // On mutual (identical) shadowing keep the earlier rule.
      if (i > j && Shadows(rules_->at(j), rules_->at(i))) continue;
      Diagnostic d;
      d.kind = DiagnosticKind::kShadowedRule;
      d.severity = DiagnosticSeverity::kWarning;
      d.rules = {rules_->at(j).name(), rules_->at(i).name()};
      d.attr = rules_->r_schema()->attr_name(rules_->at(j).rhs());
      d.message = "rule '" + rules_->at(j).name() +
                  "' is redundant: every move it makes is also made by the "
                  "more general rule '" + rules_->at(i).name() + "'";
      report->diagnostics.push_back(std::move(d));
      break;
    }
  }
}

void RulesetAnalyzer::CheckCycles(const DependencyGraph& graph,
                                  RulesetReport* report) const {
  // Tarjan's SCC; components of size > 1 are the cycles (self-loops are
  // impossible: B is never in X, and the graph skips u == u edges).
  const size_t n = graph.num_nodes();
  std::vector<int> index(n, -1);
  std::vector<int> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<size_t> stack;
  std::vector<std::vector<size_t>> components;
  int next_index = 0;
  std::function<void(size_t)> strongconnect = [&](size_t u) {
    index[u] = lowlink[u] = next_index++;
    stack.push_back(u);
    on_stack[u] = true;
    for (size_t v : graph.Successors(u)) {
      if (index[v] < 0) {
        strongconnect(v);
        lowlink[u] = std::min(lowlink[u], lowlink[v]);
      } else if (on_stack[v]) {
        lowlink[u] = std::min(lowlink[u], index[v]);
      }
    }
    if (lowlink[u] == index[u]) {
      std::vector<size_t> comp;
      size_t v;
      do {
        v = stack.back();
        stack.pop_back();
        on_stack[v] = false;
        comp.push_back(v);
      } while (v != u);
      if (comp.size() > 1) {
        std::sort(comp.begin(), comp.end());
        components.push_back(std::move(comp));
      }
    }
  };
  for (size_t u = 0; u < n; ++u) {
    if (index[u] < 0) strongconnect(u);
  }
  std::sort(components.begin(), components.end());
  for (const std::vector<size_t>& comp : components) {
    Diagnostic d;
    d.kind = DiagnosticKind::kDependencyCycle;
    d.severity = DiagnosticSeverity::kWarning;
    for (size_t u : comp) d.rules.push_back(rules_->at(u).name());
    d.message = "rules " + QuotedNames(d.rules) +
                " form a dependency cycle: each can enable the others, so "
                "firing order is data-dependent (saturation still "
                "terminates; fixed attributes are never re-validated)";
    report->diagnostics.push_back(std::move(d));
  }
}

void RulesetAnalyzer::CheckConflicts(const Saturator& sat, AttrSet trusted,
                                     const AnalyzeOptions& opts,
                                     RulesetReport* report) const {
  const Relation& dm = sat.master();
  const SchemaPtr& r = rules_->r_schema();
  const AttrSet mentioned = rules_->MentionedAttrs();
  const std::set<Value>& dom = sat.Dom();
  const size_t num_attrs = r->num_attrs();

  // Per-attribute candidate domains (see the header comment): master
  // values the attribute is keyed against, positive pattern constants on
  // it, plus one fresh value standing in for every other constant.
  std::vector<std::vector<Value>> cand(num_attrs);
  size_t fresh_ordinal = 0;
  for (AttrId a = 0; a < num_attrs; ++a) {
    if (!trusted.Contains(a) || !mentioned.Contains(a)) {
      cand[a].push_back(FreshValue(r->attr_type(a), fresh_ordinal++, dom));
      continue;
    }
    std::set<Value> vals;
    for (const EditingRule& rule : *rules_) {
      for (size_t k = 0; k < rule.lhs().size(); ++k) {
        if (rule.lhs()[k] != a) continue;
        std::vector<Value> distinct = dm.DistinctValues(rule.lhsm()[k]);
        for (Value& v : distinct) vals.insert(std::move(v));
      }
      PatternValue cell = rule.pattern().Get(a);
      if (cell.is_const()) vals.insert(cell.value());
    }
    vals.insert(FreshValue(r->attr_type(a), fresh_ordinal++, dom));
    cand[a].assign(vals.begin(), vals.end());
  }

  size_t total = 1;
  bool truncated = false;
  for (AttrId a = 0; a < num_attrs; ++a) {
    if (total > opts.max_probes / std::max<size_t>(cand[a].size(), 1)) {
      truncated = true;
      break;
    }
    total *= cand[a].size();
  }

  PoolPtr probe_pool = std::make_shared<ValuePool>();
  PoolBridge bridge(probe_pool.get(), dm.pool().get());
  const std::vector<AttrId> witness_attrs =
      trusted.Intersect(mentioned).ToVector();
  std::set<std::tuple<size_t, size_t, AttrId>> seen;
  size_t reported = 0;
  size_t probes = 0;
  std::vector<size_t> odo(num_attrs, 0);
  while (probes < opts.max_probes) {
    Tuple t(r, probe_pool);
    for (AttrId a = 0; a < num_attrs; ++a) t.Set(a, cand[a][odo[a]]);
    SaturationResult res = sat.CheckUniqueFix(t, trusted, &bridge);
    ++probes;
    for (const FixConflict& c : res.conflicts) {
      size_t lo = std::min(c.rule_a, c.rule_b);
      size_t hi = std::max(c.rule_a, c.rule_b);
      if (!seen.emplace(lo, hi, c.attr).second) continue;
      if (reported >= opts.max_witnesses) continue;
      ++reported;
      Diagnostic d;
      d.kind = DiagnosticKind::kRuleConflict;
      d.severity = DiagnosticSeverity::kError;
      d.rules = {rules_->at(c.rule_a).name(), rules_->at(c.rule_b).name()};
      d.attr = r->attr_name(c.attr);
      for (AttrId a : witness_attrs) {
        if (!d.witness.empty()) d.witness += ", ";
        d.witness += r->attr_name(a) + "=" + t.at(a).ToString();
      }
      d.message = "rules '" + d.rules[0] + "' and '" + d.rules[1] +
                  "' propose conflicting fixes " + d.attr +
                  ":=" + c.value_a.ToString() + " vs " + d.attr +
                  ":=" + c.value_b.ToString() + " for a tuple with " +
                  d.witness;
      report->diagnostics.push_back(std::move(d));
    }
    bool wrapped = true;
    for (AttrId a = 0; a < num_attrs; ++a) {
      if (++odo[a] < cand[a].size()) {
        wrapped = false;
        break;
      }
      odo[a] = 0;
    }
    if (wrapped) break;
  }
  report->probes = probes;
  if (seen.size() > reported) {
    Diagnostic d;
    d.kind = DiagnosticKind::kRuleConflict;
    d.severity = DiagnosticSeverity::kError;
    d.message = std::to_string(seen.size() - reported) +
                " further conflicting rule pair(s) found but not rendered "
                "(max_witnesses)";
    report->diagnostics.push_back(std::move(d));
  }
  if (truncated) {
    Diagnostic d;
    d.kind = DiagnosticKind::kAnalysisBudget;
    d.severity = DiagnosticSeverity::kWarning;
    d.message = "conflict search truncated at " + std::to_string(probes) +
                " probe tuple(s); a clean result is not exhaustive (raise "
                "max_probes for a full search)";
    report->diagnostics.push_back(std::move(d));
  }
}

Status GateRuleset(const RuleSet& rules, const Relation& master,
                   AttrSet trusted, AnalyzeMode mode) {
  if (mode == AnalyzeMode::kOff) return Status::OK();
  RulesetReport report = RulesetAnalyzer(rules).Analyze(&master, trusted);
  for (const Diagnostic& d : report.diagnostics) {
    CERTFIX_LOG(kWarn) << "analyze: " << d.ToString();
  }
  if (mode == AnalyzeMode::kStrict && !report.ok()) {
    return Status::Inconsistent(
        "ruleset rejected by strict analysis (" +
        std::to_string(report.errors()) +
        " error(s)): " + report.FirstError()->ToString());
  }
  return Status::OK();
}

}  // namespace certfix
