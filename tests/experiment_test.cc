#include "workload/experiment.h"

#include <gtest/gtest.h>

#include "workload/dblp.h"
#include "workload/hosp.h"

namespace certfix {
namespace {

struct HospSetup {
  SchemaPtr schema;
  Relation master;
  Relation non_master;
  std::unique_ptr<CertainFixEngine> engine;
};

HospSetup MakeHospSetup(size_t master_size, bool use_cache) {
  HospSetup s;
  s.schema = HospWorkload::MakeSchema();
  Rng rng(17);
  s.master = HospWorkload::MakeMaster(s.schema, master_size, &rng);
  Rng rng2(9090);
  s.non_master =
      HospWorkload::MakeMaster(s.schema, master_size / 2, &rng2, 1000000);
  CertainFixOptions options;
  options.use_cache = use_cache;
  options.region.trials = 12;
  options.region.sample_masters = 24;
  s.engine = std::make_unique<CertainFixEngine>(
      HospWorkload::MakeRules(s.schema), s.master, options);
  return s;
}

TEST(ExperimentTest, HospSmokeRun) {
  HospSetup s = MakeHospSetup(200, /*use_cache=*/true);
  ExperimentConfig config;
  config.num_tuples = 60;
  config.report_rounds = 5;
  config.gen.duplicate_rate = 0.3;
  config.gen.noise_rate = 0.2;
  config.gen.seed = 4;
  ExperimentResult result = RunInteractiveExperiment(
      s.engine.get(), s.master, s.non_master, config);

  // Every tuple reaches a certain fix with the oracle user.
  EXPECT_EQ(result.completed_tuples, config.num_tuples);
  EXPECT_EQ(result.conflict_tuples, 0u);
  ASSERT_EQ(result.per_round.size(), 5u);
  // recall_t is monotone in rounds and reaches 1 (the user eventually
  // validates everything).
  for (size_t k = 1; k < result.per_round.size(); ++k) {
    EXPECT_GE(result.per_round[k].recall_t + 1e-12,
              result.per_round[k - 1].recall_t);
  }
  EXPECT_DOUBLE_EQ(result.per_round.back().recall_t, 1.0);
  // Precision of rule fixes is 1 against consistent master data.
  EXPECT_DOUBLE_EQ(result.per_round.back().precision_a, 1.0);
  // The paper's headline: most tuples fixed within a few rounds.
  EXPECT_LE(result.avg_rounds, 4.0);
}

TEST(ExperimentTest, RecallAtRoundOneTracksDuplicateRate) {
  // Fig. 10b/e observation: at k = 1, recall_t equals d% (only tuples
  // matching master data get fully fixed in the first round).
  HospSetup s = MakeHospSetup(300, /*use_cache=*/true);
  for (double d : {0.1, 0.5}) {
    ExperimentConfig config;
    config.num_tuples = 200;
    config.gen.duplicate_rate = d;
    config.gen.noise_rate = 0.2;
    config.gen.seed = 21;
    ExperimentResult result = RunInteractiveExperiment(
        s.engine.get(), s.master, s.non_master, config);
    EXPECT_NEAR(result.per_round[0].recall_t, d, 0.12)
        << "duplicate rate " << d;
  }
}

TEST(ExperimentTest, CacheReducesSuggestCost) {
  HospSetup cached = MakeHospSetup(200, /*use_cache=*/true);
  ExperimentConfig config;
  config.num_tuples = 80;
  config.gen.seed = 8;
  ExperimentResult with_cache = RunInteractiveExperiment(
      cached.engine.get(), cached.master, cached.non_master, config);
  // The cache must be exercised and mostly hit after warmup.
  EXPECT_GT(with_cache.cache.hits, 0u);
  EXPECT_GT(with_cache.cache.hits, with_cache.cache.misses);
}

TEST(ExperimentTest, DblpSmokeRun) {
  SchemaPtr schema = DblpWorkload::MakeSchema();
  Rng rng(31);
  Relation master = DblpWorkload::MakeMaster(schema, 200, &rng);
  Rng rng2(313);
  Relation non_master =
      DblpWorkload::MakeMaster(schema, 100, &rng2, 1000000);
  CertainFixOptions options;
  options.region.trials = 12;
  options.region.sample_masters = 24;
  CertainFixEngine engine(DblpWorkload::MakeRules(schema), master, options);

  ExperimentConfig config;
  config.num_tuples = 50;
  config.gen.seed = 5;
  ExperimentResult result =
      RunInteractiveExperiment(&engine, master, non_master, config);
  EXPECT_EQ(result.completed_tuples, config.num_tuples);
  EXPECT_DOUBLE_EQ(result.per_round.back().recall_t, 1.0);
  EXPECT_LE(result.avg_rounds, 4.0);
}

TEST(ExperimentTest, IncRepBaselineScores) {
  SchemaPtr schema = HospWorkload::MakeSchema();
  Rng rng(23);
  Relation master = HospWorkload::MakeMaster(schema, 150, &rng);
  Rng rng2(232);
  Relation non_master =
      HospWorkload::MakeMaster(schema, 80, &rng2, 1000000);
  CfdSet cfds = HospWorkload::MakeCfdsFromMaster(schema, master, 150);

  DirtyGenOptions gen_options;
  gen_options.duplicate_rate = 0.5;
  gen_options.noise_rate = 0.2;
  gen_options.seed = 99;
  DirtyGenerator gen(master, non_master, gen_options);
  std::vector<DirtyPair> pairs = gen.Generate(100);

  BaselineResult result = RunIncRepBaseline(cfds, pairs);
  EXPECT_GT(result.cells_changed, 0u);
  EXPECT_GT(result.recall_a, 0.0);
  EXPECT_GT(result.f_measure, 0.0);
  EXPECT_LE(result.f_measure, 1.0);
  // IncRep has no certainty guarantee: precision below 1 is expected once
  // noise touches lhs attributes.
  EXPECT_LE(result.precision_a, 1.0);
}

TEST(ExperimentTest, HighNoiseHurtsIncRepMoreThanCertainFix) {
  // Fig. 11c/f shape: at high n%, IncRep's F-measure degrades while
  // CertainFix stays precise.
  SchemaPtr schema = HospWorkload::MakeSchema();
  Rng rng(29);
  Relation master = HospWorkload::MakeMaster(schema, 150, &rng);
  Rng rng2(291);
  Relation non_master =
      HospWorkload::MakeMaster(schema, 80, &rng2, 1000000);
  CfdSet cfds = HospWorkload::MakeCfdsFromMaster(schema, master, 150);

  auto baseline_at = [&](double noise) {
    DirtyGenOptions gen_options;
    gen_options.duplicate_rate = 0.3;
    gen_options.noise_rate = noise;
    gen_options.seed = 7;
    DirtyGenerator gen(master, non_master, gen_options);
    return RunIncRepBaseline(cfds, gen.Generate(80));
  };
  BaselineResult low = baseline_at(0.1);
  BaselineResult high = baseline_at(0.5);
  EXPECT_LE(high.precision_a, low.precision_a + 0.15);
}

}  // namespace
}  // namespace certfix
