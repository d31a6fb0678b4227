/// \file bench_ablation.cc
/// \brief Ablations of the design choices called out in DESIGN.md:
///
///  A1  exact unique-fix check (full B-excluded analysis, Thm 4) vs the
///      same-round-only conflict screen — cost of exactness;
///  A2  direct-fix query checker (Thm 5) vs the general saturation
///      checker on direct rules — the PTIME special case in practice;
///  A3  distinct-value summaries vs raw candidate scans — why master
///      lookups stay O(#distinct values);
///  A4  randomized-restart region search: solution size vs trial count.

#include <iomanip>
#include <iostream>

#include "bench_util.h"
#include "core/cregion.h"
#include "core/direct_fix.h"
#include "rules/rule_parser.h"
#include "util/timer.h"

using namespace certfix;
using namespace certfix::bench;

namespace {

double MeasureMs(size_t iters, const std::function<void()>& fn) {
  Timer timer;
  for (size_t i = 0; i < iters; ++i) fn();
  return timer.Millis() / static_cast<double>(iters);
}

}  // namespace

int main() {
  PrintHeader("Ablations of design choices", "DESIGN.md 2.1-2.3");
  WorkloadSetup w = MakeHosp(Scaled(10000));
  MasterIndex index(w.rules, w.master);
  Saturator sat(w.rules, w.master, index);
  Tuple probe = w.master.at(w.master.size() / 2);
  AttrSet z{*w.schema->IndexOf("id"), *w.schema->IndexOf("mCode")};
  constexpr size_t kIters = 500;

  // A1: exactness cost.
  double saturate_ms =
      MeasureMs(kIters, [&] { sat.Saturate(probe, z); });
  double exact_ms =
      MeasureMs(kIters, [&] { sat.CheckUniqueFix(probe, z); });
  std::cout << "A1 unique-fix decision:   same-round screen "
            << std::fixed << std::setprecision(4) << saturate_ms
            << " ms  |  exact (Thm 4) " << exact_ms << " ms  ("
            << std::setprecision(1) << exact_ms / saturate_ms
            << "x; buys order-independent conflict detection)\n";

  // A2: direct-fix special case. Direct subset of the supplier rules.
  {
    SchemaPtr r = Schema::Make(
        "S", std::vector<std::string>{"fn", "ln", "AC", "phn", "type",
                                      "str", "city", "zip", "item"});
    SchemaPtr rm = Schema::Make(
        "Sm", std::vector<std::string>{"FN", "LN", "AC", "Hphn", "Mphn",
                                       "str", "city", "zip", "DOB",
                                       "gender"});
    Relation dm(rm);
    Status st = dm.AppendStrings({"Robert", "Brady", "131", "6884563",
                                  "079172485", "51 Elm Row", "Edi",
                                  "EH7 4AH", "11/11/55", "M"});
    st = dm.AppendStrings({"Mark", "Smith", "020", "6884563", "075568485",
                           "20 Baker St.", "Lnd", "NW1 6XE", "25/12/67",
                           "M"});
    (void)st;
    RuleSet direct = std::move(ParseRules(R"(
      rule d1: (zip | zip) -> (AC | AC)
      rule d2: (zip | zip) -> (str | str)
      rule d3: (zip | zip) -> (city | city)
      rule d4: (AC | AC) -> (city | city) when AC!=0800
    )", r, rm)).ValueOrDie();
    DirectFixChecker query_checker(direct, dm);
    MasterIndex di(direct, dm);
    Saturator ds(direct, dm, di);
    ConsistencyChecker general(ds);

    std::vector<AttrId> zz = {*r->IndexOf("zip"), *r->IndexOf("AC")};
    PatternTuple tc(r);
    tc.SetConst(*r->IndexOf("zip"), Value::Str("EH7 4AH"));
    tc.SetConst(*r->IndexOf("AC"), Value::Str("020"));
    Region region = Region::Of(r, zz);
    st = region.AddRow(tc);

    double query_ms = MeasureMs(2000, [&] {
      Result<bool> ok = query_checker.IsConsistent(zz, tc);
      (void)ok;
    });
    double general_ms = MeasureMs(2000, [&] {
      Result<bool> ok = general.IsConsistent(region);
      (void)ok;
    });
    std::cout << "A2 consistency (direct): query-based (Thm 5) "
              << std::setprecision(4) << query_ms
              << " ms  |  general (Thm 4) " << general_ms << " ms\n";
  }

  // A3: value summaries vs raw scans: compare a summary lookup against
  // iterating the raw candidate rows for a key matching many masters. The
  // rows come from a row index on the rule's Xm (the master index keeps
  // only the summaries).
  {
    size_t rule_idx = 3;  // phi4: (id, mCode) — narrow; use phi15: mCode
    for (size_t i = 0; i < w.rules.size(); ++i) {
      if (w.rules.at(i).name() == "phi15") rule_idx = i;
    }
    const EditingRule& rule = w.rules.at(rule_idx);
    FlatKeyIndex row_index(w.master, rule.lhsm());
    double summary_ms = MeasureMs(20000, [&] {
      const auto& s = index.RhsValues(rule_idx, probe);
      (void)s;
    });
    double scan_ms = MeasureMs(20000, [&] {
      const RowSpan rows = row_index.LookupTuple(probe, rule.lhs());
      size_t distinct = 0;
      Value last;
      for (size_t m : rows) {
        const Value& v = w.master.at(m).at(rule.rhsm());
        if (!(v == last)) {
          ++distinct;
          last = v;
        }
      }
      (void)distinct;
    });
    const size_t matches = row_index.LookupTuple(probe, rule.lhs()).size();
    std::cout << "A3 master proposals:      summary lookup "
              << std::setprecision(5) << summary_ms
              << " ms  |  raw candidate scan " << scan_ms << " ms  (key "
              << "matches " << matches << " master rows)\n";
  }

  // A4: region-search restarts vs solution size.
  {
    RegionFinder finder(sat);
    std::cout << "A4 region search restarts -> |Z| found:";
    for (size_t trials : {1u, 2u, 4u, 8u, 16u, 32u}) {
      CRegionOptions opts;
      opts.trials = trials;
      opts.seed = 1;
      std::vector<AttrId> zz = finder.CompCRegionZ(opts);
      std::cout << "  " << trials << "->" << zz.size();
    }
    std::cout << "   (minimum is 2 for HOSP)\n";
  }
  return 0;
}
