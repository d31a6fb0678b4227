/// \file repair_memo_test.cc
/// \brief RepairMemo on its own: a hit replays exactly what the miss
/// computed (fixed row, FixReport, probe-hash set), both equal the naive
/// reference engine (reference/naive_repair.h), FlushProbes evicts exactly
/// the entries whose recorded probes contain a flushed hash, and Clear
/// empties the memo.

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

/// The row a repair leaves behind: the fix, or the input on conflict.
std::vector<Value> Outcome(const Tuple& row, const TupleRepair& r) {
  return Cells(r.report.conflicting() ? row : r.fixed);
}

/// The rules, master and trusted set one memo repairs under, plus the
/// rows it is fed — interned in one shard-local pool, as the engines do.
/// Pinned in place: the index and saturator point into `rules` and `dm`.
struct World {
  RuleSet rules;
  Relation dm;
  AttrSet trusted;
  std::unique_ptr<MasterIndex> index;
  std::unique_ptr<Saturator> sat;
  PoolPtr local = std::make_shared<ValuePool>();
  std::vector<Tuple> rows;

  World(RuleSet r, Relation m, AttrSet z)
      : rules(std::move(r)), dm(std::move(m)), trusted(z) {
    index = std::make_unique<MasterIndex>(rules, dm);
    sat = std::make_unique<Saturator>(rules, dm, *index);
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  void AddRow(const Tuple& t) { rows.push_back(t.RebasedTo(local)); }
};

std::unique_ptr<World> SupplierWorld() {
  SchemaPtr r = SupplierSchema();
  SchemaPtr rm = SupplierMasterSchema();
  auto w = std::make_unique<World>(SupplierRules(r, rm), SupplierMaster(rm),
                                   Attrs(r, {"AC", "phn", "type", "zip"}));
  // t1 is fully fixable, t3 conflicts (Example 5), t4 matches no master.
  for (const Tuple& t : {T1(r), T2(r), T3(r), T4(r)}) w->AddRow(t);
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
  for (const DirtyPair& pair : gen.Generate(40)) w->AddRow(pair.dirty);
  return w;
}

void ExpectHitReplaysMissAndMatchesReference(const World& w) {
  const AttrSet all = w.rules.r_schema()->AllAttrs();
  PoolBridge bridge(w.local.get(), w.dm.pool().get());
  RepairMemo memo(w.rules, w.trusted);
  size_t fixed_rows = 0;
  for (const Tuple& row : w.rows) {
    SCOPED_TRACE(row.ToString());
    // A row whose projection an earlier row already memoized starts as a
    // hit; the first sighting of every projection is a miss.
    const bool seen = memo.Find(row) != nullptr;
    ProbeLog first_probes;
    TupleRepair first = RepairOneTuple(*w.sat, row, w.trusted, all, memo,
                                       &bridge, &first_probes);
    EXPECT_EQ(first.memo_hit, seen);

    ProbeLog replay_probes;
    TupleRepair replay = RepairOneTuple(*w.sat, row, w.trusted, all, memo,
                                        &bridge, &replay_probes);
    EXPECT_TRUE(replay.memo_hit) << "second sighting hits";
    EXPECT_EQ(replay.report.kind, first.report.kind);
    EXPECT_EQ(replay.report.cells_changed, first.report.cells_changed);
    EXPECT_EQ(replay.report.covered, first.report.covered);
    EXPECT_EQ(Outcome(row, replay), Outcome(row, first));
    EXPECT_EQ(replay_probes.hashes, SortedUnique(first_probes.hashes));

    reference::RunResult want =
        reference::CheckUniqueFix(w.rules, w.dm, row, w.trusted);
    EXPECT_EQ(first.report.conflicting(), !want.unique);
    if (want.unique) {
      ++fixed_rows;
      EXPECT_EQ(Outcome(row, first), Cells(want.fixed));
      EXPECT_EQ(first.report.covered, want.covered);
      EXPECT_EQ(first.report.cells_changed, row.DiffCount(want.fixed));
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
  const AttrSet all = w.rules.r_schema()->AllAttrs();
  const AttrId item = A(w.rules.r_schema(), "item");
  PoolBridge bridge(w.local.get(), w.dm.pool().get());
  RepairMemo memo(w.rules, w.trusted);
  const Tuple& t1 = w.rows[0];
  TupleRepair miss = RepairOneTuple(*w.sat, t1, w.trusted, all, memo, &bridge);
  Tuple other = t1;
  other.Set(item, Value::Str("Vinyl"));
  TupleRepair hit =
      RepairOneTuple(*w.sat, other, w.trusted, all, memo, &bridge);
  EXPECT_FALSE(miss.memo_hit);
  EXPECT_TRUE(hit.memo_hit);
  ASSERT_FALSE(hit.report.conflicting());
  EXPECT_EQ(hit.fixed.at(item), Value::Str("Vinyl"));
  Tuple want = miss.fixed;
  want.Set(item, Value::Str("Vinyl"));
  EXPECT_EQ(Cells(hit.fixed), Cells(want));
}

TEST(RepairMemoTest, FlushProbesEvictsExactlyTheEntriesThatProbedTheHash) {
  std::unique_ptr<World> world = HospWorld();
  const World& w = *world;
  const AttrSet all = w.rules.r_schema()->AllAttrs();
  PoolBridge bridge(w.local.get(), w.dm.pool().get());
  RepairMemo memo(w.rules, w.trusted);
  std::vector<std::vector<uint64_t>> probes;  // per row, sorted
  for (const Tuple& row : w.rows) {
    ProbeLog log;
    RepairOneTuple(*w.sat, row, w.trusted, all, memo, &bridge, &log);
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
    EXPECT_EQ(memo.Find(w.rows[i]) == nullptr, probed) << "row " << i;
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
  const AttrSet all = w.rules.r_schema()->AllAttrs();
  PoolBridge bridge(w.local.get(), w.dm.pool().get());
  RepairMemo memo(w.rules, w.trusted);
  for (const Tuple& row : w.rows) {
    RepairOneTuple(*w.sat, row, w.trusted, all, memo, &bridge);
  }
  ASSERT_GT(memo.entries(), 0u);
  memo.Clear();
  EXPECT_EQ(memo.entries(), 0u);
  for (const Tuple& row : w.rows) EXPECT_EQ(memo.Find(row), nullptr);
}

}  // namespace
}  // namespace certfix
