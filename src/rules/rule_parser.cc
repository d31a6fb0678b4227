#include "rules/rule_parser.h"

#include <sstream>

#include "util/string_util.h"

namespace certfix {

namespace {

// Splits on `sep` at depth zero (outside quotes), trimming each piece.
Result<std::vector<std::string>> SplitTop(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  bool in_quotes = false;
  for (char c : s) {
    if (c == '"') {
      in_quotes = !in_quotes;
      cur += c;
    } else if (c == sep && !in_quotes) {
      out.emplace_back(Trim(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (in_quotes) return Status::ParseError("unterminated quote");
  out.emplace_back(Trim(cur));
  return out;
}

// A fully quoted value loses its outer quotes, and each doubled quote
// inside reads as one literal quote (the CSV convention), so RuleToDsl can
// render any constant back into a line that parses to it.
std::string Unquote(std::string_view s) {
  s = Trim(s);
  if (s.size() < 2 || s.front() != '"' || s.back() != '"') {
    return std::string(s);
  }
  s = s.substr(1, s.size() - 2);
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    out += s[i];
    if (s[i] == '"' && i + 1 < s.size() && s[i + 1] == '"') ++i;
  }
  return out;
}

Status ParsePatternClause(const std::string& clause, const SchemaPtr& r,
                          PatternTuple* tp) {
  CERTFIX_ASSIGN_OR_RETURN(std::vector<std::string> cells,
                           SplitTop(clause, ','));
  for (const std::string& cell : cells) {
    if (cell.empty()) continue;
    size_t neq = cell.find("!=");
    bool negated = neq != std::string::npos;
    size_t eq = negated ? neq : cell.find('=');
    if (eq == std::string::npos) {
      return Status::ParseError("pattern cell missing '=': " + cell);
    }
    std::string attr_name(Trim(cell.substr(0, eq)));
    std::string value_text =
        Unquote(cell.substr(eq + (negated ? 2 : 1)));
    CERTFIX_ASSIGN_OR_RETURN(AttrId attr, r->IndexOf(attr_name));
    if (value_text == "_" && !negated) {
      tp->SetWildcard(attr);
      continue;
    }
    Value v = Value::Parse(value_text, r->attr_type(attr));
    if (negated) {
      tp->SetNeg(attr, std::move(v));
    } else {
      tp->SetConst(attr, std::move(v));
    }
  }
  return Status::OK();
}

}  // namespace

namespace internal {

// Shared line parse producing possibly-multiple (B, Bm) targets; the
// public wrappers enforce singleton vs group semantics.
Result<std::vector<EditingRule>> ParseRuleLine(const std::string& line,
                                               SchemaPtr r, SchemaPtr rm,
                                               bool* was_group);

}  // namespace internal

Result<EditingRule> ParseRule(const std::string& line, SchemaPtr r,
                              SchemaPtr rm) {
  bool was_group = false;
  CERTFIX_ASSIGN_OR_RETURN(
      std::vector<EditingRule> rules,
      internal::ParseRuleLine(line, std::move(r), std::move(rm),
                              &was_group));
  if (was_group) {
    return Status::ParseError(
        "group rule (starred name) passed to ParseRule: " + line);
  }
  return std::move(rules.front());
}

Result<std::vector<EditingRule>> ParseRuleGroup(const std::string& line,
                                                SchemaPtr r, SchemaPtr rm) {
  bool was_group = false;
  return internal::ParseRuleLine(line, std::move(r), std::move(rm),
                                 &was_group);
}

Result<std::vector<EditingRule>> internal::ParseRuleLine(
    const std::string& line, SchemaPtr r, SchemaPtr rm, bool* was_group) {
  std::string_view s = Trim(line);
  if (!StartsWith(s, "rule")) {
    return Status::ParseError("rule line must start with 'rule': " + line);
  }
  s.remove_prefix(4);
  size_t colon = s.find(':');
  if (colon == std::string_view::npos) {
    return Status::ParseError("missing ':' after rule name: " + line);
  }
  std::string name(Trim(s.substr(0, colon)));
  if (name.empty()) return Status::ParseError("empty rule name: " + line);
  *was_group = !name.empty() && name.back() == '*';
  if (*was_group) name.pop_back();
  if (name.empty()) return Status::ParseError("empty group name: " + line);
  s = Trim(s.substr(colon + 1));

  // Split "(<X|Xm>) -> (<B|Bm>) [when ...]".
  size_t arrow = s.find("->");
  if (arrow == std::string_view::npos) {
    return Status::ParseError("missing '->': " + line);
  }
  std::string_view left = Trim(s.substr(0, arrow));
  std::string_view rest = Trim(s.substr(arrow + 2));

  auto strip_parens = [&](std::string_view v) -> Result<std::string> {
    v = Trim(v);
    if (v.size() < 2 || v.front() != '(' || v.back() != ')') {
      return Status::ParseError("expected parenthesized list in: " + line);
    }
    return std::string(v.substr(1, v.size() - 2));
  };

  CERTFIX_ASSIGN_OR_RETURN(std::string left_inner, strip_parens(left));

  // The right side is "(B | Bm)" possibly followed by "when <pattern>".
  size_t close = rest.find(')');
  if (rest.empty() || rest.front() != '(' || close == std::string_view::npos) {
    return Status::ParseError("expected '(B | Bm)' after '->': " + line);
  }
  std::string right_inner(rest.substr(1, close - 1));
  std::string_view tail = Trim(rest.substr(close + 1));

  PatternTuple tp(r);
  if (!tail.empty()) {
    if (!StartsWith(tail, "when")) {
      return Status::ParseError("unexpected trailing text: " +
                                std::string(tail));
    }
    CERTFIX_RETURN_NOT_OK(
        ParsePatternClause(std::string(Trim(tail.substr(4))), r, &tp));
  }

  CERTFIX_ASSIGN_OR_RETURN(std::vector<std::string> left_parts,
                           SplitTop(left_inner, '|'));
  if (left_parts.size() != 2) {
    return Status::ParseError("left side needs 'X | Xm': " + line);
  }
  CERTFIX_ASSIGN_OR_RETURN(std::vector<std::string> right_parts,
                           SplitTop(right_inner, '|'));
  if (right_parts.size() != 2) {
    return Status::ParseError("right side needs 'B | Bm': " + line);
  }

  auto names = [](const std::string& list) -> Result<std::vector<std::string>> {
    CERTFIX_ASSIGN_OR_RETURN(std::vector<std::string> parts,
                             SplitTop(list, ','));
    std::vector<std::string> out;
    for (auto& p : parts) {
      if (!p.empty()) out.push_back(p);
    }
    return out;
  };

  CERTFIX_ASSIGN_OR_RETURN(std::vector<std::string> x, names(left_parts[0]));
  CERTFIX_ASSIGN_OR_RETURN(std::vector<std::string> xm, names(left_parts[1]));
  CERTFIX_ASSIGN_OR_RETURN(std::vector<std::string> bs,
                           names(right_parts[0]));
  CERTFIX_ASSIGN_OR_RETURN(std::vector<std::string> bms,
                           names(right_parts[1]));
  if (bs.empty() || bs.size() != bms.size()) {
    return Status::ParseError("rhs lists 'B | Bm' must be non-empty and of "
                              "equal length: " + line);
  }
  if (!*was_group && bs.size() != 1) {
    return Status::ParseError(
        "multiple rhs attributes require a group (starred) rule name: " +
        line);
  }

  std::vector<EditingRule> out;
  for (size_t i = 0; i < bs.size(); ++i) {
    std::string rule_name =
        *was_group ? name + "_" + std::to_string(i + 1) : name;
    CERTFIX_ASSIGN_OR_RETURN(
        EditingRule rule,
        EditingRule::MakeByName(std::move(rule_name), r, rm, x, xm, bs[i],
                                bms[i], tp));
    out.push_back(std::move(rule));
  }
  return out;
}

Result<RuleSet> ParseRules(const std::string& text, SchemaPtr r,
                           SchemaPtr rm) {
  RuleSet out(r, rm);
  std::istringstream in(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view s = Trim(line);
    if (s.empty() || s.front() == '#') continue;
    Result<std::vector<EditingRule>> rules =
        ParseRuleGroup(std::string(s), r, rm);
    if (!rules.ok()) {
      return Status::ParseError("line " + std::to_string(line_no) + ": " +
                                rules.status().message());
    }
    std::vector<EditingRule> list = std::move(rules).ValueOrDie();
    for (EditingRule& rule : list) {
      CERTFIX_RETURN_NOT_OK(out.Add(std::move(rule)));
    }
  }
  return out;
}

std::string RuleToDsl(const EditingRule& rule) {
  std::string out = "rule " + rule.name() + ": (";
  for (size_t i = 0; i < rule.lhs().size(); ++i) {
    out += (i ? ", " : "") + rule.r_schema()->attr_name(rule.lhs()[i]);
  }
  out += " | ";
  for (size_t i = 0; i < rule.lhsm().size(); ++i) {
    out += (i ? ", " : "") + rule.rm_schema()->attr_name(rule.lhsm()[i]);
  }
  out += ") -> (" + rule.r_schema()->attr_name(rule.rhs()) + " | " +
         rule.rm_schema()->attr_name(rule.rhsm()) + ")";
  if (!rule.pattern().empty()) {
    out += " when ";
    bool first = true;
    for (const auto& [attr, pv] : rule.pattern().cells()) {
      if (!first) out += ", ";
      first = false;
      out += rule.r_schema()->attr_name(attr);
      if (pv.is_wildcard()) {
        out += "=_";
      } else {
        out += pv.is_neg_const() ? "!=" : "=";
        out += '"';
        for (char c : pv.value().ToString()) {
          out += c;
          if (c == '"') out += '"';
        }
        out += '"';
      }
    }
  }
  return out;
}

std::string RulesToDsl(const RuleSet& rules) {
  std::string out;
  for (const EditingRule& rule : rules) {
    out += RuleToDsl(rule);
    out += "\n";
  }
  return out;
}

}  // namespace certfix
