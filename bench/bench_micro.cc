/// \file bench_micro.cc
/// \brief google-benchmark micro-benchmarks for the core operations: rule
/// application, master lookup, batch saturation, the exact unique-fix
/// check, TransFix, applicable-rule derivation, suggestion generation, and
/// one IncRep pass. These back the complexity claims of Sects. 4-5
/// (TransFix O(|Sigma|^2), Suggest O(|Sigma|^2 |Dm| log |Dm|)).
///
/// The StringKey / FlatIndex pair measures the storage layer itself:
/// id-keyed flat-index probes (ValuePool interning) against the legacy
/// rendered-string keys they replaced. Machine-readable output:
///   bench_micro --benchmark_out=BENCH_micro.json --benchmark_out_format=json
/// (the CI release job publishes BENCH_micro.json as an artifact).

#include <benchmark/benchmark.h>

#include <string>
#include <unordered_map>

#include "core/certain_fix.h"
#include "core/shard_repair.h"
#include "repair/increp.h"
#include "workload/dirty_gen.h"
#include "workload/hosp.h"

namespace certfix {
namespace {

struct Fixture {
  SchemaPtr schema;
  RuleSet rules;
  Relation master;
  std::unique_ptr<MasterIndex> index;
  std::unique_ptr<Saturator> sat;
  std::unique_ptr<DependencyGraph> graph;
  std::unique_ptr<TransFix> transfix;
  std::unique_ptr<Suggester> suggester;
  FlatKeyIndex rule0_rows;  // row index on rule 0's Xm
  Tuple probe;
  AttrSet z0;

  explicit Fixture(size_t dm_size) {
    schema = HospWorkload::MakeSchema();
    rules = HospWorkload::MakeRules(schema);
    Rng rng(42);
    master = HospWorkload::MakeMaster(schema, dm_size, &rng);
    index = std::make_unique<MasterIndex>(rules, master);
    sat = std::make_unique<Saturator>(rules, master, *index);
    graph = std::make_unique<DependencyGraph>(rules);
    transfix = std::make_unique<TransFix>(rules, master, *graph, *index);
    suggester = std::make_unique<Suggester>(rules, master);
    rule0_rows = FlatKeyIndex(master, rules.at(0).lhsm());
    probe = master.at(master.size() / 2);
    z0.Add(*schema->IndexOf("id"));
    z0.Add(*schema->IndexOf("mCode"));
  }
};

Fixture& SharedFixture(size_t dm_size) {
  static std::map<size_t, std::unique_ptr<Fixture>> cache;
  auto it = cache.find(dm_size);
  if (it == cache.end()) {
    it = cache.emplace(dm_size, std::make_unique<Fixture>(dm_size)).first;
  }
  return *it->second;
}

void BM_RuleApplication(benchmark::State& state) {
  Fixture& f = SharedFixture(1000);
  const EditingRule& rule = f.rules.at(0);
  const Tuple& tm = f.master.at(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rule.AppliesTo(f.probe, tm));
  }
}
BENCHMARK(BM_RuleApplication);

// One row-index probe through the cache-conscious flat index.
void BM_FlatIndexProbe(benchmark::State& state) {
  Fixture& f = SharedFixture(static_cast<size_t>(state.range(0)));
  const std::vector<AttrId>& x = f.rules.at(0).lhs();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.rule0_rows.LookupTuple(f.probe, x));
  }
}
BENCHMARK(BM_FlatIndexProbe)->Arg(1000)->Arg(10000);

// Memoized repair replay: after the first (cold) RepairOneTuple, every
// iteration is a memo hit on a row already in master-id space — one
// flat-table probe and a copy of the recorded cells instead of a full
// saturation. As before, building the row is not timed here.
void BM_MemoHitPath(benchmark::State& state) {
  Fixture& f = SharedFixture(1000);
  AttrSet all = f.schema->AllAttrs();
  RepairMemo memo(f.rules, f.z0);
  IdRow row(*f.index, [&f](AttrId a) -> const Value& { return f.probe[a]; });
  RepairOneTuple(*f.sat, row, f.z0, all, memo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RepairOneTuple(*f.sat, row, f.z0, all, memo));
  }
}
BENCHMARK(BM_MemoHitPath);

// The whole shard hit path a stream or delta row takes: map its cells to
// master ids, stage it (memo and round-1 probe prefetches), replay the
// memo entry and hand the caller's vector back.
void BM_ShardHitPath(benchmark::State& state) {
  Fixture& f = SharedFixture(1000);
  ShardRepairer shard(f.rules, f.z0);
  shard.Bind(*f.sat);
  std::vector<Value> row;
  for (size_t a = 0; a < f.schema->num_attrs(); ++a) {
    row.push_back(f.probe.at(static_cast<AttrId>(a)));
  }
  auto repair = [&] {
    shard.RepairBlock(
        1, [&row](size_t) -> std::vector<Value>& { return row; },
        ShardOutput::kRows,
        [&row](size_t, RepairedRow r) { row = std::move(r.fixed); });
  };
  repair();
  for (auto _ : state) repair();
}
BENCHMARK(BM_ShardHitPath);

void BM_Saturate(benchmark::State& state) {
  Fixture& f = SharedFixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.sat->Saturate(f.probe, f.z0));
  }
}
BENCHMARK(BM_Saturate)->Arg(1000)->Arg(10000);

void BM_CheckUniqueFix(benchmark::State& state) {
  Fixture& f = SharedFixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.sat->CheckUniqueFix(f.probe, f.z0));
  }
}
BENCHMARK(BM_CheckUniqueFix)->Arg(1000)->Arg(10000);

void BM_TransFix(benchmark::State& state) {
  Fixture& f = SharedFixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.transfix->Run(f.probe, f.z0));
  }
}
BENCHMARK(BM_TransFix)->Arg(1000)->Arg(10000);

void BM_DeriveApplicableRules(benchmark::State& state) {
  Fixture& f = SharedFixture(1000);
  PartialMasterIndexCache cache(f.master);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DeriveApplicableRules(f.rules, f.master, &cache, f.probe, f.z0));
  }
}
BENCHMARK(BM_DeriveApplicableRules);

void BM_Suggest(benchmark::State& state) {
  Fixture& f = SharedFixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.suggester->Suggest(f.probe, f.z0));
  }
}
BENCHMARK(BM_Suggest)->Arg(1000)->Arg(10000);

void BM_DependencyGraphBuild(benchmark::State& state) {
  Fixture& f = SharedFixture(1000);
  for (auto _ : state) {
    DependencyGraph graph(f.rules);
    benchmark::DoNotOptimize(graph.num_nodes());
  }
}
BENCHMARK(BM_DependencyGraphBuild);

void BM_RegionPrecomputation(benchmark::State& state) {
  Fixture& f = SharedFixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    RegionFinder finder(*f.sat);
    CRegionOptions opts;
    opts.trials = 8;
    opts.sample_masters = 16;
    benchmark::DoNotOptimize(finder.ComputeCertainRegions(opts));
  }
}
BENCHMARK(BM_RegionPrecomputation)->Arg(1000);

// --- Storage layer: interned ids vs. rendered string keys ---

// Legacy probe path (the master index before the ValuePool refactor):
// render the projection to a "v1\x1fv2" string per probe and hash it;
// BM_FlatIndexProbe is the same probe on interned ids.
void BM_StringKeyProbe(benchmark::State& state) {
  Fixture& f = SharedFixture(static_cast<size_t>(state.range(0)));
  const std::vector<AttrId>& key = f.rules.at(0).lhsm();
  std::unordered_map<std::string, std::vector<size_t>> map;
  for (size_t i = 0; i < f.master.size(); ++i) {
    map[ProjectKey(f.master.at(i), key)].push_back(i);
  }
  const std::vector<AttrId>& probe_attrs = f.rules.at(0).lhs();
  size_t hits = 0;
  for (auto _ : state) {
    auto it = map.find(ProjectKey(f.probe, probe_attrs));
    if (it != map.end()) hits += it->second.size();
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_StringKeyProbe)->Arg(1000)->Arg(10000);

// Value interning throughput (dictionary insert-or-hit mix).
void BM_ValuePoolIntern(benchmark::State& state) {
  std::vector<Value> values;
  for (int i = 0; i < 4096; ++i) {
    values.push_back(Value::Str("value_" + std::to_string(i % 1024)));
  }
  size_t k = 0;
  ValuePool pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.Intern(values[k]));
    k = (k + 1) & 4095;
  }
}
BENCHMARK(BM_ValuePoolIntern);

void BM_IncRepPass(benchmark::State& state) {
  Fixture& f = SharedFixture(1000);
  CfdSet cfds = HospWorkload::MakeCfdsFromMaster(f.schema, f.master, 200);
  Rng rng2(7);
  Relation non_master =
      HospWorkload::MakeMaster(f.schema, 500, &rng2, 1000000);
  DirtyGenOptions gen_options;
  gen_options.seed = 3;
  DirtyGenerator gen(f.master, non_master, gen_options);
  Relation dirty(f.schema);
  for (const DirtyPair& p : gen.Generate(200)) {
    Status st = dirty.Append(p.dirty);
    (void)st;
  }
  IncRep increp(cfds);
  for (auto _ : state) {
    benchmark::DoNotOptimize(increp.Repair(dirty));
  }
}
BENCHMARK(BM_IncRepPass);

}  // namespace
}  // namespace certfix

BENCHMARK_MAIN();
