#include "rules/rule_parser.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace certfix {
namespace {

using testing_fixtures::A;
using testing_fixtures::SupplierMasterSchema;
using testing_fixtures::SupplierSchema;

class RuleParserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = SupplierSchema();
    rm_ = SupplierMasterSchema();
  }
  SchemaPtr r_;
  SchemaPtr rm_;
};

TEST_F(RuleParserTest, MinimalRule) {
  Result<EditingRule> rule =
      ParseRule("rule phi1: (zip | zip) -> (AC | AC)", r_, rm_);
  ASSERT_TRUE(rule.ok()) << rule.status();
  EXPECT_EQ(rule->name(), "phi1");
  EXPECT_TRUE(rule->pattern().empty());
}

TEST_F(RuleParserTest, MultiAttrLists) {
  Result<EditingRule> rule = ParseRule(
      "rule phi6: (AC, phn | AC, Hphn) -> (str | str)", r_, rm_);
  ASSERT_TRUE(rule.ok()) << rule.status();
  EXPECT_EQ(rule->lhs().size(), 2u);
  EXPECT_EQ(rule->lhsm()[1], A(rm_, "Hphn"));
}

TEST_F(RuleParserTest, PatternConstAndNeg) {
  Result<EditingRule> rule = ParseRule(
      "rule phi6: (AC, phn | AC, Hphn) -> (str | str) when type=1, AC!=0800",
      r_, rm_);
  ASSERT_TRUE(rule.ok()) << rule.status();
  PatternValue type_cell = rule->pattern().Get(A(r_, "type"));
  EXPECT_TRUE(type_cell.is_const());
  EXPECT_EQ(type_cell.value().as_string(), "1");
  PatternValue ac_cell = rule->pattern().Get(A(r_, "AC"));
  EXPECT_TRUE(ac_cell.is_neg_const());
  EXPECT_EQ(ac_cell.value().as_string(), "0800");
}

TEST_F(RuleParserTest, ExplicitWildcard) {
  Result<EditingRule> rule =
      ParseRule("rule p: (zip | zip) -> (AC | AC) when type=_", r_, rm_);
  ASSERT_TRUE(rule.ok()) << rule.status();
  EXPECT_TRUE(rule->pattern().Get(A(r_, "type")).is_wildcard());
  EXPECT_TRUE(rule->pattern().Has(A(r_, "type")));
}

TEST_F(RuleParserTest, QuotedValueWithComma) {
  Result<EditingRule> rule = ParseRule(
      "rule p: (zip | zip) -> (AC | AC) when city=\"Edinburgh, UK\"", r_,
      rm_);
  ASSERT_TRUE(rule.ok()) << rule.status();
  EXPECT_EQ(rule->pattern().Get(A(r_, "city")).value().as_string(),
            "Edinburgh, UK");
}

TEST_F(RuleParserTest, DoubledQuoteInsideQuotesIsALiteralQuote) {
  Result<EditingRule> rule = ParseRule(
      "rule p: (zip | zip) -> (AC | AC) when city=\"say \"\"hi\"\", ok\"",
      r_, rm_);
  ASSERT_TRUE(rule.ok()) << rule.status();
  EXPECT_EQ(rule->pattern().Get(A(r_, "city")).value().as_string(),
            "say \"hi\", ok");
  // Rendering doubles the quotes again, so the rule reads back unchanged.
  const std::string dsl = RuleToDsl(*rule);
  EXPECT_EQ(dsl,
            "rule p: (zip | zip) -> (AC | AC) when city=\"say \"\"hi\"\", "
            "ok\"");
  Result<EditingRule> again = ParseRule(dsl, r_, rm_);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(RuleToDsl(*again), dsl);
}

TEST_F(RuleParserTest, NegatedEmptyStringIsNotNull) {
  // attr!="" parses as "attr != null" (empty parses to null), the idiom
  // used for the paper's zip != nil patterns.
  Result<EditingRule> rule =
      ParseRule("rule p: (zip | zip) -> (AC | AC) when zip!=\"\"", r_, rm_);
  ASSERT_TRUE(rule.ok()) << rule.status();
  PatternValue pv = rule->pattern().Get(A(r_, "zip"));
  EXPECT_TRUE(pv.is_neg_const());
  EXPECT_TRUE(pv.value().is_null());
}

TEST_F(RuleParserTest, ErrorsAreReported) {
  EXPECT_FALSE(ParseRule("phi1: (zip|zip) -> (AC|AC)", r_, rm_).ok());
  EXPECT_FALSE(ParseRule("rule : (zip|zip) -> (AC|AC)", r_, rm_).ok());
  EXPECT_FALSE(ParseRule("rule p: (zip|zip) (AC|AC)", r_, rm_).ok());
  EXPECT_FALSE(ParseRule("rule p: zip|zip -> (AC|AC)", r_, rm_).ok());
  EXPECT_FALSE(ParseRule("rule p: (zip|zip) -> (AC)", r_, rm_).ok());
  EXPECT_FALSE(ParseRule("rule p: (zip|zip) -> (AC|AC) extra", r_, rm_).ok());
  EXPECT_FALSE(
      ParseRule("rule p: (zip|zip) -> (AC|AC) when type~1", r_, rm_).ok());
  EXPECT_FALSE(
      ParseRule("rule p: (nope|zip) -> (AC|AC)", r_, rm_).ok());
}

TEST_F(RuleParserTest, FileWithCommentsAndBlanks) {
  const char* text = R"(
    # a comment
    rule a: (zip | zip) -> (AC | AC)

    rule b: (zip | zip) -> (str | str)
  )";
  Result<RuleSet> rules = ParseRules(text, r_, rm_);
  ASSERT_TRUE(rules.ok()) << rules.status();
  EXPECT_EQ(rules->size(), 2u);
  EXPECT_EQ(rules->at(1).name(), "b");
}

TEST_F(RuleParserTest, FileReportsLineNumber) {
  const char* text = "rule a: (zip | zip) -> (AC | AC)\nrule broken\n";
  Result<RuleSet> rules = ParseRules(text, r_, rm_);
  ASSERT_FALSE(rules.ok());
  EXPECT_NE(rules.status().message().find("line 2"), std::string::npos);
}

TEST_F(RuleParserTest, GroupRuleExpansion) {
  // The paper's "eR1 is expressed as three editing rules of the form
  // phi1, for B1 ranging over {AC, str, city}".
  Result<std::vector<EditingRule>> rules = ParseRuleGroup(
      "rule eR1*: (zip | zip) -> (AC, str, city | AC, str, city)", r_, rm_);
  ASSERT_TRUE(rules.ok()) << rules.status();
  ASSERT_EQ(rules->size(), 3u);
  EXPECT_EQ((*rules)[0].name(), "eR1_1");
  EXPECT_EQ((*rules)[0].rhs(), A(r_, "AC"));
  EXPECT_EQ((*rules)[1].rhs(), A(r_, "str"));
  EXPECT_EQ((*rules)[2].rhs(), A(r_, "city"));
  // All members share lhs and pattern.
  for (const EditingRule& rule : *rules) {
    EXPECT_EQ(rule.lhs(), std::vector<AttrId>{A(r_, "zip")});
  }
}

TEST_F(RuleParserTest, GroupRuleWithPatternAndCrossMap) {
  // eR3 of the paper: str/city/zip from (AC, Hphn) under type=1.
  Result<std::vector<EditingRule>> rules = ParseRuleGroup(
      "rule eR3*: (AC, phn | AC, Hphn) -> (str, city, zip | str, city, "
      "zip) when type=1, AC!=0800",
      r_, rm_);
  ASSERT_TRUE(rules.ok()) << rules.status();
  ASSERT_EQ(rules->size(), 3u);
  for (const EditingRule& rule : *rules) {
    EXPECT_TRUE(rule.pattern().Get(A(r_, "AC")).is_neg_const());
  }
}

TEST_F(RuleParserTest, GroupInRuleFile) {
  const char* text = R"(
    rule eR1*: (zip | zip) -> (AC, str, city | AC, str, city)
    rule eR2*: (phn | Mphn) -> (fn, ln | FN, LN) when type=2
  )";
  Result<RuleSet> rules = ParseRules(text, r_, rm_);
  ASSERT_TRUE(rules.ok()) << rules.status();
  EXPECT_EQ(rules->size(), 5u);
}

TEST_F(RuleParserTest, GroupErrors) {
  // Multi-attribute rhs without a starred name.
  EXPECT_FALSE(
      ParseRuleGroup("rule p: (zip | zip) -> (AC, str | AC, str)", r_, rm_)
          .ok());
  // Mismatched rhs arity.
  EXPECT_FALSE(
      ParseRuleGroup("rule p*: (zip | zip) -> (AC, str | AC)", r_, rm_)
          .ok());
  // Star with empty base name.
  EXPECT_FALSE(ParseRuleGroup("rule *: (zip | zip) -> (AC | AC)", r_, rm_)
                   .ok());
  // Starred line through the singleton API.
  EXPECT_FALSE(
      ParseRule("rule p*: (zip | zip) -> (AC | AC)", r_, rm_).ok());
}

TEST_F(RuleParserTest, GroupSemanticsMatchManualExpansion) {
  RuleSet manual = testing_fixtures::SupplierRules(r_, rm_);
  const char* text = R"(
    rule g1*: (zip | zip) -> (AC, str, city | AC, str, city)
    rule g2*: (phn | Mphn) -> (fn, ln | FN, LN) when type=2
    rule g3*: (AC, phn | AC, Hphn) -> (str, city, zip | str, city, zip) when type=1, AC!=0800
    rule g4: (AC | AC) -> (city | city) when AC=0800
  )";
  Result<RuleSet> grouped = ParseRules(text, r_, rm_);
  ASSERT_TRUE(grouped.ok()) << grouped.status();
  ASSERT_EQ(grouped->size(), manual.size());
  for (size_t i = 0; i < manual.size(); ++i) {
    EXPECT_EQ(grouped->at(i).lhs(), manual.at(i).lhs());
    EXPECT_EQ(grouped->at(i).rhs(), manual.at(i).rhs());
    EXPECT_EQ(grouped->at(i).rhsm(), manual.at(i).rhsm());
    EXPECT_EQ(grouped->at(i).pattern(), manual.at(i).pattern());
  }
}

TEST_F(RuleParserTest, RoundTripWithSupplierFixture) {
  RuleSet rules =
      testing_fixtures::SupplierRules(r_, rm_);
  EXPECT_EQ(rules.size(), 9u);
  // Spot-check phi9's constant pattern survived parsing.
  const EditingRule& phi9 = rules.at(8);
  EXPECT_EQ(phi9.pattern().Get(A(r_, "AC")).value().as_string(), "0800");
}

}  // namespace
}  // namespace certfix
