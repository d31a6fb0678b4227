/// \file rule_parser.h
/// \brief Text format for editing rules.
///
/// One rule per line (blank lines and '#' comments ignored):
///
///     rule phi3: (AC, phn | AC, Hphn) -> (str | str) when type=1, AC!=0800
///
/// Left of `->`: the lists X | Xm (positional correspondence). Right: B |
/// Bm. The optional `when` clause lists pattern cells `attr=value`,
/// `attr!=value`, or `attr=_` (wildcard). Values are parsed per the R
/// schema's attribute type; quote with double quotes to embed commas, and
/// inside quotes write a literal quote twice (`name="say ""hi"""`).
///
/// Rule groups: a name ending in `*` expands a multi-attribute rhs into
/// one rule per (B, Bm) pair — the paper's "eR1 is expressed as three
/// editing rules of the form phi1, for B1 ranging over {AC, str, city}":
///
///     rule eR1*: (zip | zip) -> (AC, str, city | AC, str, city)
///
/// expands to eR1_1, eR1_2, eR1_3. Both sides of the rhs must list the
/// same number of attributes.

#ifndef CERTFIX_RULES_RULE_PARSER_H_
#define CERTFIX_RULES_RULE_PARSER_H_

#include <string>

#include "rules/rule_set.h"
#include "util/result.h"

namespace certfix {

/// Parses a single `rule ...` line into an EditingRule. Group lines
/// (starred names) are rejected here; use ParseRuleGroup or ParseRules.
Result<EditingRule> ParseRule(const std::string& line, SchemaPtr r,
                              SchemaPtr rm);

/// Parses one line that may be a plain rule or a starred group, returning
/// every rule it denotes.
Result<std::vector<EditingRule>> ParseRuleGroup(const std::string& line,
                                                SchemaPtr r, SchemaPtr rm);

/// Parses a whole rule file (multiple lines) into a RuleSet.
Result<RuleSet> ParseRules(const std::string& text, SchemaPtr r,
                           SchemaPtr rm);

/// Renders one rule back into the DSL above (inverse of ParseRule; group
/// lines are not reconstructed — each expanded rule prints on its own).
std::string RuleToDsl(const EditingRule& rule);

/// Whole-file rendering: one rule per line, trailing newline. Feeding the
/// result back through ParseRules reproduces the set — the durable
/// session (incremental/durable_session.h) persists rulesets this way.
std::string RulesToDsl(const RuleSet& rules);

}  // namespace certfix

#endif  // CERTFIX_RULES_RULE_PARSER_H_
