/// \file rule_discovery.cpp
/// \brief Discovering editing rules from master data (Sect. 7 future
/// work): mine dependencies from a consistent master relation, turn them
/// into editing rules, and use them to batch-repair a dirty table without
/// any hand-written rules.
///
/// Usage: ./build/examples/rule_discovery [dm_size] [dirty_rows]

#include <cstdlib>
#include <iostream>

#include "core/batch_repair.h"
#include "mining/rule_miner.h"
#include "workload/dirty_gen.h"
#include "workload/hosp.h"

using namespace certfix;

int main(int argc, char** argv) {
  size_t dm_size = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 600;
  size_t dirty_rows = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 150;

  SchemaPtr schema = HospWorkload::MakeSchema();
  Rng rng(19);
  Relation master = HospWorkload::MakeMaster(schema, dm_size, &rng);
  std::cout << "Mining editing rules from " << master.size()
            << " master rows (no hand-written rules used)...\n\n";

  RuleMinerOptions mine_options;
  mine_options.max_lhs = 2;
  mine_options.mine_conditional = false;
  RuleMiner miner(master, mine_options);

  std::vector<MinedDependency> deps = miner.MineDependencies();
  std::cout << "discovered " << deps.size() << " minimal dependencies, "
            << "e.g.:\n";
  for (size_t i = 0; i < deps.size() && i < 8; ++i) {
    std::cout << "  " << deps[i].ToString(schema) << "\n";
  }

  Result<RuleSet> mined = miner.MineRules(schema, schema);
  if (!mined.ok()) {
    std::cerr << "mining failed: " << mined.status() << "\n";
    return 1;
  }
  std::cout << "\n=> " << mined->size() << " editing rules\n\n";

  // Batch-repair a dirty table whose id/mCode keys are trusted.
  AttrSet trusted;
  trusted.Add(*schema->IndexOf("id"));
  trusted.Add(*schema->IndexOf("mCode"));
  DirtyGenOptions gen_options;
  gen_options.duplicate_rate = 1.0;  // repairing rows OF this database
  gen_options.noise_rate = 0.3;
  gen_options.protected_attrs = trusted;
  gen_options.seed = 77;
  DirtyGenerator gen(master, master, gen_options);

  Relation dirty(schema);
  std::vector<Tuple> truths;
  size_t injected = 0;
  for (const DirtyPair& pair : gen.Generate(dirty_rows)) {
    Status st = dirty.Append(pair.dirty);
    (void)st;
    truths.push_back(pair.clean);
    injected += static_cast<size_t>(pair.corrupted.Count());
  }

  MasterIndex index(*mined, master);
  Saturator sat(*mined, master, index);
  BatchRepair repair(sat);
  BatchRepairResult result = repair.Repair(dirty, trusted);

  size_t restored = 0;
  for (size_t i = 0; i < truths.size(); ++i) {
    if (result.repaired.at(i) == truths[i]) ++restored;
  }
  std::cout << "batch repair with mined rules:\n"
            << "  injected errors     : " << injected << "\n"
            << "  cells changed       : " << result.cells_changed << "\n"
            << "  rows fully restored : " << restored << "/" << dirty_rows
            << "\n"
            << "  conflicts           : " << result.conflicting
            << "\n";
  return restored == dirty_rows ? 0 : 1;
}
