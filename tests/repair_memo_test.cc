/// \file repair_memo_test.cc
/// \brief RepairMemo on its own: a hit replays exactly what the miss
/// computed (changed cells, FixReport, probe-hash set), both equal the
/// naive reference engine (reference/naive_repair.h), values the master
/// lacks key apart through the memo's dictionary while equal values of
/// any pool share an entry, FlushProbes evicts exactly the entries whose
/// recorded probes contain a flushed hash, and Clear empties the memo.

#include "core/repair_memo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "reference/naive_repair.h"
#include "test_util.h"
#include "workload/dirty_gen.h"
#include "workload/hosp.h"

namespace certfix {
namespace {

using namespace testing_fixtures;

std::vector<uint64_t> SortedUnique(std::vector<uint64_t> hashes) {
  std::sort(hashes.begin(), hashes.end());
  hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
  return hashes;
}

/// Cell values of `t`, for comparisons across pools.
std::vector<Value> Cells(const Tuple& t) {
  std::vector<Value> cells;
  for (size_t a = 0; a < t.schema()->num_attrs(); ++a) {
    cells.push_back(t.at(static_cast<AttrId>(a)));
  }
  return cells;
}

/// The rules, master and trusted set one memo repairs under, plus the
/// rows it is fed, each in the pool it was built in. Pinned in place: the
/// index and saturator point into `rules` and `dm`.
struct World {
  RuleSet rules;
  Relation dm;
  AttrSet trusted;
  std::unique_ptr<MasterIndex> index;
  std::unique_ptr<Saturator> sat;
  std::vector<Tuple> rows;

  World(RuleSet r, Relation m, AttrSet z)
      : rules(std::move(r)), dm(std::move(m)), trusted(z) {
    index = std::make_unique<MasterIndex>(rules, dm);
    sat = std::make_unique<Saturator>(rules, dm, *index);
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// `t` in master-id space, as a shard stages it.
  IdRow Row(const Tuple& t) const {
    return IdRow(*index, [&t](AttrId a) -> const Value& { return t.at(a); });
  }
  /// Repairs `t` through `memo`.
  TupleRepair Repair(const Tuple& t, RepairMemo& memo,
                     ProbeLog* probes = nullptr) const {
    return RepairOneTuple(*sat, Row(t), trusted, rules.r_schema()->AllAttrs(),
                          memo, probes);
  }
  /// The row a repair leaves behind: `t` with the changed cells
  /// overwritten (the input itself on conflict).
  std::vector<Value> Outcome(const Tuple& t, const TupleRepair& r) const {
    std::vector<Value> cells = Cells(t);
    for (const auto& [attr, id] : r.changed) cells[attr] = dm.pool()->value(id);
    return cells;
  }
};

std::unique_ptr<World> SupplierWorld() {
  SchemaPtr r = SupplierSchema();
  SchemaPtr rm = SupplierMasterSchema();
  auto w = std::make_unique<World>(SupplierRules(r, rm), SupplierMaster(rm),
                                   Attrs(r, {"AC", "phn", "type", "zip"}));
  // t1 is fully fixable, t3 conflicts (Example 5), t4 matches no master.
  w->rows = {T1(r), T2(r), T3(r), T4(r)};
  return w;
}

std::unique_ptr<World> HospWorld() {
  SchemaPtr schema = HospWorkload::MakeSchema();
  Rng rng(17);
  Relation master = HospWorkload::MakeMaster(schema, 60, &rng);
  AttrSet trusted;
  trusted.Add(*schema->IndexOf("id"));
  trusted.Add(*schema->IndexOf("mCode"));
  auto w = std::make_unique<World>(HospWorkload::MakeRules(schema), master,
                                   trusted);
  DirtyGenOptions options;
  options.duplicate_rate = 0.7;
  options.noise_rate = 0.5;
  options.protected_attrs = trusted;
  options.seed = 29;
  Rng rng2(3);
  Relation non_master = HospWorkload::MakeMaster(schema, 30, &rng2, 800000);
  DirtyGenerator gen(w->dm, non_master, options);
  for (const DirtyPair& pair : gen.Generate(40)) w->rows.push_back(pair.dirty);
  return w;
}

void ExpectHitReplaysMissAndMatchesReference(const World& w) {
  RepairMemo memo(w.rules, w.trusted);
  size_t fixed_rows = 0;
  for (const Tuple& row : w.rows) {
    SCOPED_TRACE(row.ToString());
    // A row whose projection an earlier row already memoized starts as a
    // hit; the first sighting of every projection is a miss.
    const bool seen = memo.Find(w.Row(row)) != nullptr;
    ProbeLog first_probes;
    TupleRepair first = w.Repair(row, memo, &first_probes);
    EXPECT_EQ(first.memo_hit, seen);

    ProbeLog replay_probes;
    TupleRepair replay = w.Repair(row, memo, &replay_probes);
    EXPECT_TRUE(replay.memo_hit) << "second sighting hits";
    EXPECT_EQ(replay.report.kind, first.report.kind);
    EXPECT_EQ(replay.report.cells_changed, first.report.cells_changed);
    EXPECT_EQ(replay.report.covered, first.report.covered);
    EXPECT_EQ(replay.changed, first.changed);
    EXPECT_EQ(replay_probes.hashes, SortedUnique(first_probes.hashes));

    reference::RunResult want =
        reference::CheckUniqueFix(w.rules, w.dm, row, w.trusted);
    EXPECT_EQ(first.report.conflicting(), !want.unique);
    if (want.unique) {
      ++fixed_rows;
      EXPECT_EQ(w.Outcome(row, first), Cells(want.fixed));
      EXPECT_EQ(first.report.covered, want.covered);
      EXPECT_EQ(first.report.cells_changed, row.DiffCount(want.fixed));
      EXPECT_EQ(first.changed.size(), first.report.cells_changed);
    } else {
      EXPECT_TRUE(first.changed.empty());
    }
  }
  EXPECT_GT(fixed_rows, 0u);
}

TEST(RepairMemoTest, HitReplaysMissOnSupplierFixture) {
  ExpectHitReplaysMissAndMatchesReference(*SupplierWorld());
}

TEST(RepairMemoTest, HitReplaysMissOnHospWorkload) {
  ExpectHitReplaysMissAndMatchesReference(*HospWorld());
}

TEST(RepairMemoTest, HitOnInertAttributeKeepsTheNewRowsValue) {
  // `item` feeds no rule, so a row differing only there hits the entry
  // t1 left — and the replay fixes the new row, not a copy of t1.
  std::unique_ptr<World> world = SupplierWorld();
  const World& w = *world;
  const AttrId item = A(w.rules.r_schema(), "item");
  RepairMemo memo(w.rules, w.trusted);
  const Tuple& t1 = w.rows[0];
  TupleRepair miss = w.Repair(t1, memo);
  Tuple other = t1;
  other.Set(item, Value::Str("Vinyl"));
  TupleRepair hit = w.Repair(other, memo);
  EXPECT_FALSE(miss.memo_hit);
  EXPECT_TRUE(hit.memo_hit);
  ASSERT_FALSE(hit.report.conflicting());
  std::vector<Value> want = w.Outcome(t1, miss);
  want[item] = Value::Str("Vinyl");
  EXPECT_EQ(w.Outcome(other, hit), want);
}

TEST(RepairMemoTest, ValuesTheMasterLacksKeySeparateEntries) {
  // `type` is a pattern constant, never a master value: t1 (type 2) and a
  // copy with type 3 differ only in a value the master lacks. Only type 2
  // lets phi4/phi5 fix fn, so the two must not share an entry.
  std::unique_ptr<World> world = SupplierWorld();
  const World& w = *world;
  const AttrId type = A(w.rules.r_schema(), "type");
  const AttrId fn = A(w.rules.r_schema(), "fn");
  const Tuple& t1 = w.rows[0];
  Tuple t1_type3 = t1;
  t1_type3.Set(type, Value::Str("3"));
  ASSERT_EQ(w.Row(t1).id_at(type), kInvalidValueId);
  ASSERT_EQ(w.Row(t1_type3).id_at(type), kInvalidValueId);

  RepairMemo memo(w.rules, w.trusted);
  TupleRepair miss2 = w.Repair(t1, memo);
  TupleRepair miss3 = w.Repair(t1_type3, memo);
  EXPECT_FALSE(miss2.memo_hit);
  EXPECT_FALSE(miss3.memo_hit);
  EXPECT_EQ(memo.entries(), 2u);
  EXPECT_GE(memo.local_values(), 2u);
  EXPECT_EQ(w.Outcome(t1, miss2)[fn], Value::Str("Robert"));
  EXPECT_EQ(w.Outcome(t1_type3, miss3)[fn], Value::Str("Bob"));

  // Each row replays its own repair.
  TupleRepair hit2 = w.Repair(t1, memo);
  TupleRepair hit3 = w.Repair(t1_type3, memo);
  EXPECT_TRUE(hit2.memo_hit);
  EXPECT_TRUE(hit3.memo_hit);
  EXPECT_EQ(hit2.changed, miss2.changed);
  EXPECT_EQ(hit3.changed, miss3.changed);
  EXPECT_NE(hit2.changed, hit3.changed);
}

TEST(RepairMemoTest, EqualValuesFromDifferentPoolsHitOneEntry) {
  // t1 from its own private pool, then the same values read in place from
  // a relation's pool (master values and values the master lacks alike).
  std::unique_ptr<World> world = SupplierWorld();
  const World& w = *world;
  Relation rel(w.rules.r_schema());
  ASSERT_TRUE(rel.AppendStrings({"Bob", "Brady", "020", "079172485", "2",
                                 "501 Elm St.", "Edi", "EH7 4AH", "CDs"})
                  .ok());
  const Tuple& t1 = w.rows[0];
  ASSERT_NE(rel.pool(), t1.pool());

  RepairMemo memo(w.rules, w.trusted);
  TupleRepair miss = w.Repair(t1, memo);
  TupleRepair hit = w.Repair(rel.at(0), memo);
  EXPECT_FALSE(miss.memo_hit);
  EXPECT_TRUE(hit.memo_hit);
  EXPECT_EQ(memo.entries(), 1u);
  EXPECT_EQ(hit.changed, miss.changed);
  EXPECT_EQ(w.Outcome(rel.at(0), hit), w.Outcome(t1, miss));
}

TEST(RepairMemoTest, FlushProbesEvictsExactlyTheEntriesThatProbedTheHash) {
  std::unique_ptr<World> world = HospWorld();
  const World& w = *world;
  RepairMemo memo(w.rules, w.trusted);
  std::vector<std::vector<uint64_t>> probes;  // per row, sorted
  for (const Tuple& row : w.rows) {
    ProbeLog log;
    w.Repair(row, memo, &log);
    probes.push_back(SortedUnique(log.hashes));
  }
  const size_t entries = memo.entries();
  ASSERT_GT(entries, 1u);

  // Flush the hash the most rows probed: it evicts several entries, not
  // all of them.
  std::map<uint64_t, size_t> rows_per_hash;
  for (const std::vector<uint64_t>& p : probes) {
    for (uint64_t h : p) ++rows_per_hash[h];
  }
  uint64_t hot = 0;
  size_t hot_rows = 0;
  for (const auto& [h, n] : rows_per_hash) {
    if (n > hot_rows && n < w.rows.size()) {
      hot = h;
      hot_rows = n;
    }
  }
  ASSERT_GT(hot_rows, 1u);
  // Entries are per distinct relevant projection: count those holding
  // `hot`.
  std::set<std::string> evicted_keys;
  for (size_t i = 0; i < w.rows.size(); ++i) {
    if (std::binary_search(probes[i].begin(), probes[i].end(), hot)) {
      evicted_keys.insert(ProjectKey(w.rows[i], memo.relevant_attrs()));
    }
  }

  memo.FlushProbes({hot});
  EXPECT_EQ(memo.entries(), entries - evicted_keys.size());
  for (size_t i = 0; i < w.rows.size(); ++i) {
    const bool probed = std::binary_search(probes[i].begin(),
                                           probes[i].end(), hot);
    EXPECT_EQ(memo.Find(w.Row(w.rows[i])) == nullptr, probed) << "row " << i;
  }

  // A hash no entry recorded evicts nothing.
  uint64_t unused = 1;
  while (rows_per_hash.count(unused) > 0) ++unused;
  const size_t before = memo.entries();
  memo.FlushProbes({unused});
  EXPECT_EQ(memo.entries(), before);
}

TEST(RepairMemoTest, ClearEmptiesTheMemo) {
  std::unique_ptr<World> world = HospWorld();
  const World& w = *world;
  RepairMemo memo(w.rules, w.trusted);
  for (const Tuple& row : w.rows) w.Repair(row, memo);
  ASSERT_GT(memo.entries(), 0u);
  ASSERT_GT(memo.local_values(), 0u);
  memo.Clear();
  EXPECT_EQ(memo.entries(), 0u);
  EXPECT_EQ(memo.local_values(), 0u);
  for (const Tuple& row : w.rows) EXPECT_EQ(memo.Find(w.Row(row)), nullptr);
}

}  // namespace
}  // namespace certfix
