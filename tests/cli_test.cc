#include "tools/cli.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "relational/csv.h"
#include "test_util.h"

namespace certfix {
namespace {

// Writes CSV fixtures under the gtest temp dir and returns their paths.
class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir();
    master_path_ = dir_ + "/master.csv";
    rules_path_ = dir_ + "/rules.txt";
    input_path_ = dir_ + "/input.csv";
    output_path_ = dir_ + "/out.csv";

    std::ofstream master(master_path_);
    master << "zip,AC,city,name\n"
              "EH7,131,Edi,Ann\n"
              "EH7,131,Edi,Bob\n"
              "NW1,020,Lnd,Cid\n"
              "G11,041,Gla,Dee\n";
    master.close();

    std::ofstream rules(rules_path_);
    rules << "rule r1*: (zip | zip) -> (AC, city | AC, city)\n";
    rules.close();

    std::ofstream input(input_path_);
    input << "zip,AC,city,name\n"
             "EH7,999,WRONG,Eve\n"   // fixable from zip
             "ZZZ,000,None,Fay\n";   // matches no master
    input.close();
  }

  int Run(std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    return RunCli(args, out_, err_);
  }

  std::string dir_, master_path_, rules_path_, input_path_, output_path_;
  std::ostringstream out_, err_;
};

TEST_F(CliTest, NoCommandFails) {
  EXPECT_EQ(Run({}), 1);
  EXPECT_NE(err_.str().find("usage"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  EXPECT_EQ(Run({"frobnicate"}), 1);
}

TEST_F(CliTest, MissingFlagValueFails) {
  EXPECT_EQ(Run({"mine", "--master"}), 1);
}

TEST_F(CliTest, MineRejectsNonNumericMaxLhs) {
  for (const char* bad : {"oops", "-1", "2x", ""}) {
    EXPECT_EQ(Run({"mine", "--master", master_path_, "--max-lhs", bad}), 1)
        << "value '" << bad << "'";
    EXPECT_NE(err_.str().find("--max-lhs needs a non-negative integer"),
              std::string::npos)
        << err_.str();
  }
  EXPECT_EQ(Run({"mine", "--master", master_path_, "--max-lhs", "1"}), 0)
      << err_.str();
}

TEST_F(CliTest, MineEmitsParseableRules) {
  ASSERT_EQ(Run({"mine", "--master", master_path_, "--no-conditional"}), 0)
      << err_.str();
  std::string text = out_.str();
  EXPECT_NE(text.find("rule mined"), std::string::npos);
  // zip -> AC and zip -> city must be found.
  EXPECT_NE(text.find("(zip | zip) -> (AC | AC)"), std::string::npos);
  EXPECT_NE(text.find("(zip | zip) -> (city | city)"), std::string::npos);
}

TEST_F(CliTest, AnalyzeReportsRegions) {
  ASSERT_EQ(Run({"analyze", "--master", master_path_, "--rules",
                 rules_path_}),
            0)
      << err_.str();
  std::string text = out_.str();
  EXPECT_NE(text.find("CompCRegion Z:"), std::string::npos);
  EXPECT_NE(text.find("digraph"), std::string::npos);
  // zip and name can only be certified by the user.
  EXPECT_NE(text.find("zip"), std::string::npos);
  EXPECT_NE(text.find("name"), std::string::npos);
}

TEST_F(CliTest, CheckAcceptsGoodRegion) {
  ASSERT_EQ(Run({"check", "--master", master_path_, "--rules", rules_path_,
                 "--region", "zip,name"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("certain region: yes"), std::string::npos);
}

TEST_F(CliTest, CheckRejectsBadRegion) {
  // {zip} alone cannot cover name.
  EXPECT_EQ(Run({"check", "--master", master_path_, "--rules", rules_path_,
                 "--region", "zip"}),
            2);
}

TEST_F(CliTest, CheckUnknownAttributeFails) {
  EXPECT_EQ(Run({"check", "--master", master_path_, "--rules", rules_path_,
                 "--region", "nope"}),
            2);
}

TEST_F(CliTest, RepairFixesAndWritesOutput) {
  ASSERT_EQ(Run({"repair", "--master", master_path_, "--rules",
                 rules_path_, "--input", input_path_, "--trusted",
                 "zip,name", "--output", output_path_}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("cells changed: 2"), std::string::npos);

  Result<Relation> repaired =
      ReadCsvFileInferSchema("Out", output_path_);
  ASSERT_TRUE(repaired.ok());
  // Row 0 fixed from master; row 1 untouched.
  EXPECT_EQ(repaired->at(0).at(1).as_string(), "131");
  EXPECT_EQ(repaired->at(0).at(2).as_string(), "Edi");
  EXPECT_EQ(repaired->at(1).at(1).as_string(), "000");
}

TEST_F(CliTest, RepairThreadsFlagMatchesSequentialOutput) {
  ASSERT_EQ(Run({"repair", "--master", master_path_, "--rules",
                 rules_path_, "--input", input_path_, "--trusted",
                 "zip,name", "--output", output_path_}),
            0)
      << err_.str();
  std::string sequential = out_.str();
  Result<Relation> seq_rel = ReadCsvFileInferSchema("Out", output_path_);
  ASSERT_TRUE(seq_rel.ok());

  std::string parallel_path = dir_ + "/out_mt.csv";
  ASSERT_EQ(Run({"repair", "--master", master_path_, "--rules",
                 rules_path_, "--input", input_path_, "--trusted",
                 "zip,name", "--output", parallel_path, "--threads", "4"}),
            0)
      << err_.str();
  EXPECT_EQ(out_.str().substr(0, out_.str().find("written to")),
            sequential.substr(0, sequential.find("written to")));
  Result<Relation> par_rel = ReadCsvFileInferSchema("Out", parallel_path);
  ASSERT_TRUE(par_rel.ok());
  ASSERT_EQ(par_rel->size(), seq_rel->size());
  for (size_t i = 0; i < seq_rel->size(); ++i) {
    EXPECT_EQ(par_rel->at(i), seq_rel->at(i)) << "row " << i;
  }
}

TEST_F(CliTest, RepairStreamMatchesBatchRepairByteForByte) {
  ASSERT_EQ(Run({"repair", "--master", master_path_, "--rules",
                 rules_path_, "--input", input_path_, "--trusted",
                 "zip,name", "--output", output_path_}),
            0)
      << err_.str();
  std::ifstream batch_file(output_path_);
  std::stringstream batch_bytes;
  batch_bytes << batch_file.rdbuf();

  for (const char* threads : {"1", "4"}) {
    std::string stream_path = dir_ + "/out_stream_" + threads + ".csv";
    ASSERT_EQ(Run({"repair-stream", "--master", master_path_, "--rules",
                   rules_path_, "--input", input_path_, "--trusted",
                   "zip,name", "--output", stream_path, "--threads",
                   threads}),
              0)
        << err_.str();
    EXPECT_NE(out_.str().find("cells changed: 2"), std::string::npos);
    EXPECT_NE(out_.str().find("shards:"), std::string::npos);
    std::ifstream stream_file(stream_path);
    std::stringstream stream_bytes;
    stream_bytes << stream_file.rdbuf();
    EXPECT_EQ(stream_bytes.str(), batch_bytes.str())
        << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Golden corpus: checked-in fixtures under tests/golden/ with expected
// repaired outputs. Any engine divergence — batch, stream, or delta —
// fails loudly against bytes under version control, not just against a
// sibling engine.

class GoldenTest : public CliTest {
 protected:
  static std::string Golden(const std::string& name) {
    return std::string(CERTFIX_GOLDEN_DIR) + "/" + name;
  }
  static std::string Slurp(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
  }
};

TEST_F(GoldenTest, RepairMatchesGoldenOutput) {
  ASSERT_EQ(Run({"repair", "--master", Golden("master.csv"), "--rules",
                 Golden("rules.rules"), "--input", Golden("input.csv"),
                 "--trusted", "zip,name", "--output", output_path_}),
            0)
      << err_.str();
  EXPECT_EQ(Slurp(output_path_), Slurp(Golden("expected_repair.csv")));
}

TEST_F(GoldenTest, RepairStreamMatchesGoldenOutput) {
  for (const char* threads : {"1", "4"}) {
    ASSERT_EQ(Run({"repair-stream", "--master", Golden("master.csv"),
                   "--rules", Golden("rules.rules"), "--input",
                   Golden("input.csv"), "--trusted", "zip,name", "--output",
                   output_path_, "--threads", threads}),
              0)
        << err_.str();
    EXPECT_EQ(Slurp(output_path_), Slurp(Golden("expected_repair.csv")))
        << "threads=" << threads;
  }
}

TEST_F(GoldenTest, RepairDeltasMatchesGoldenOutput) {
  for (const char* threads : {"1", "4"}) {
    ASSERT_EQ(Run({"repair-deltas", "--master", Golden("master.csv"),
                   "--rules", Golden("rules.rules"), "--input",
                   Golden("input.csv"), "--deltas", Golden("deltas.log"),
                   "--trusted", "zip,name", "--output", output_path_,
                   "--threads", threads}),
              0)
        << err_.str();
    EXPECT_NE(out_.str().find("invalidated: 2"), std::string::npos)
        << out_.str();
    EXPECT_NE(out_.str().find("rebuilds: 1"), std::string::npos)
        << out_.str();
    EXPECT_EQ(Slurp(output_path_), Slurp(Golden("expected_deltas.csv")))
        << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Workload generator: `workload gen` output is byte-pinned for two seeds
// under tests/golden/workload/. The specs differ only in seed, so these
// also pin that the seed — and only the seed — moves the bytes.

TEST_F(GoldenTest, WorkloadGenMatchesGoldenFixtures) {
  for (const char* name : {"gen-seed1", "gen-seed2"}) {
    ASSERT_EQ(Run({"workload", "gen", "--spec",
                   Golden(std::string("workload/") + name + ".toml"),
                   "--out-dir", dir_, "--prefix", name}),
              0)
        << err_.str();
    EXPECT_NE(out_.str().find("deltas: 30"), std::string::npos)
        << out_.str();
    for (const char* suffix :
         {"_master.csv", "_initial.csv", ".deltas", ".rules"}) {
      std::string file = std::string(name) + suffix;
      EXPECT_EQ(Slurp(dir_ + "/" + file), Slurp(Golden("workload/" + file)))
          << file;
    }
  }
}

TEST_F(GoldenTest, WorkloadGenIsDeterministicAcrossRuns) {
  std::string spec = Golden("workload/gen-seed1.toml");
  ASSERT_EQ(Run({"workload", "gen", "--spec", spec, "--out-dir", dir_,
                 "--prefix", "run_a"}),
            0)
      << err_.str();
  ASSERT_EQ(Run({"workload", "gen", "--spec", spec, "--out-dir", dir_,
                 "--prefix", "run_b"}),
            0)
      << err_.str();
  for (const char* suffix : {"_master.csv", "_initial.csv", ".deltas"}) {
    EXPECT_EQ(Slurp(dir_ + "/run_a" + suffix),
              Slurp(dir_ + "/run_b" + suffix))
        << suffix;
  }
}

TEST_F(CliTest, WorkloadGenMissingFlagsFail) {
  EXPECT_EQ(Run({"workload"}), 1);
  EXPECT_NE(err_.str().find("workload gen"), std::string::npos);
  EXPECT_EQ(Run({"workload", "frobnicate"}), 1);
  EXPECT_EQ(Run({"workload", "gen"}), 1);
  EXPECT_NE(err_.str().find("--spec"), std::string::npos);
  EXPECT_EQ(Run({"workload", "gen", "--spec", rules_path_}), 1);
  EXPECT_NE(err_.str().find("--out-dir"), std::string::npos);
}

TEST_F(CliTest, WorkloadGenRejectsBadSpec) {
  EXPECT_EQ(Run({"workload", "gen", "--spec", dir_ + "/nope.toml",
                 "--out-dir", dir_}),
            2);
  std::string bad_path = dir_ + "/bad.toml";
  std::ofstream bad(bad_path);
  bad << "workload = \"hosp\"\nnot_a_knob = 3\n";
  bad.close();
  EXPECT_EQ(Run({"workload", "gen", "--spec", bad_path, "--out-dir", dir_}),
            2);
  EXPECT_NE(err_.str().find("not_a_knob"), std::string::npos);
}

TEST_F(CliTest, RepairDeltasMissingFlagsFail) {
  // --deltas is required.
  EXPECT_EQ(Run({"repair-deltas", "--master", master_path_, "--rules",
                 rules_path_, "--input", input_path_, "--trusted",
                 "zip,name"}),
            1);
  EXPECT_NE(err_.str().find("--deltas"), std::string::npos);
}

TEST_F(CliTest, RepairDeltasRejectsMalformedLog) {
  std::string deltas_path = dir_ + "/bad.deltas";
  std::ofstream deltas(deltas_path);
  deltas << "X,0\n";  // unknown op
  deltas.close();
  EXPECT_EQ(Run({"repair-deltas", "--master", master_path_, "--rules",
                 rules_path_, "--input", input_path_, "--deltas",
                 deltas_path, "--trusted", "zip,name"}),
            2);
  EXPECT_NE(err_.str().find("unknown op"), std::string::npos);
}

TEST_F(CliTest, RepairStreamMissingFlagsFail) {
  EXPECT_EQ(Run({"repair-stream", "--master", master_path_, "--rules",
                 rules_path_}),
            1);
  EXPECT_EQ(Run({"repair-stream", "--master", master_path_, "--rules",
                 rules_path_, "--input", input_path_, "--trusted",
                 "zip,name", "--threads", "nope"}),
            1);
}

TEST_F(CliTest, RepairMissingFlagsFail) {
  EXPECT_EQ(Run({"repair", "--master", master_path_, "--rules",
                 rules_path_}),
            1);
}

TEST_F(CliTest, RepairRejectsNonNumericThreads) {
  for (const char* bad : {"four", "-1", "2x", ""}) {
    EXPECT_EQ(Run({"repair", "--master", master_path_, "--rules",
                   rules_path_, "--input", input_path_, "--trusted",
                   "zip,name", "--threads", bad}),
              1)
        << "value '" << bad << "'";
    EXPECT_NE(err_.str().find("non-negative integer"), std::string::npos);
  }
}

TEST_F(CliTest, UnknownFlagsAreRejectedPerCommand) {
  std::string deltas_path = dir_ + "/ok.deltas";
  {
    std::ofstream deltas(deltas_path);
    deltas << "D,1\n";
  }
  const std::vector<std::string> setup = {
      "--master", master_path_, "--rules",   rules_path_,
      "--input",  input_path_,  "--trusted", "zip,name"};
  struct Case {
    std::string command;
    std::vector<std::string> args;  ///< a run that succeeds on its own
  };
  std::vector<Case> cases = {{"repair", setup},
                             {"repair-stream", setup},
                             {"repair-deltas", setup},
                             {"recover", {"--dir", dir_ + "/no_session"}},
                             {"snapshot", {"--dir", dir_ + "/no_session"}}};
  cases[2].args.insert(cases[2].args.end(), {"--deltas", deltas_path});
  // Retired flags, a typo, and a flag another command takes. A flag with
  // a value must not leave that value behind as a stray argument.
  const std::vector<std::vector<std::string>> bad = {
      {"--index", "map"}, {"--no-memo"}, {"--chunk-size", "1"},
      {"--queue-capacity", "2"}, {"--no-compress"}, {"--mmap-budget", "0"},
      {"--thread", "4"}, {"--no-memo", "--threads", "1"}};
  for (const Case& c : cases) {
    for (const std::vector<std::string>& extra : bad) {
      std::vector<std::string> argv = {c.command};
      argv.insert(argv.end(), c.args.begin(), c.args.end());
      argv.insert(argv.end(), extra.begin(), extra.end());
      EXPECT_EQ(Run(argv), 1) << c.command << " " << extra[0];
      EXPECT_NE(err_.str().find("unknown flag " + extra[0] + " for " +
                                c.command),
                std::string::npos)
          << err_.str();
      EXPECT_EQ(err_.str().find("unexpected positional"), std::string::npos)
          << err_.str();
    }
  }
  // The same command without a stray flag still runs.
  std::vector<std::string> argv = {"repair-deltas"};
  argv.insert(argv.end(), cases[2].args.begin(), cases[2].args.end());
  EXPECT_EQ(Run(argv), 0) << err_.str();
  EXPECT_EQ(Run({"workload", "gen", "--bogus", "x"}), 1);
  EXPECT_NE(err_.str().find("unknown flag --bogus for workload gen"),
            std::string::npos)
      << err_.str();
}

TEST_F(CliTest, MissingFilesReported) {
  EXPECT_EQ(Run({"mine", "--master", dir_ + "/nope.csv"}), 2);
  EXPECT_EQ(Run({"analyze", "--master", master_path_, "--rules",
                 dir_ + "/nope.rules"}),
            2);
}

// ---------------------------------------------------------------------------
// Telemetry surface: --metrics-json is golden-pinned under the fake
// clock, --trace-out emits a balanced Chrome trace, and --no-telemetry
// must not move the repaired bytes or summary.

TEST_F(GoldenTest, RepairMetricsJsonMatchesGoldenFixture) {
  std::string metrics_path = dir_ + "/metrics.json";
  ASSERT_EQ(Run({"repair", "--master", Golden("master.csv"), "--rules",
                 Golden("rules.rules"), "--input", Golden("input.csv"),
                 "--trusted", "zip,name", "--metrics-deterministic",
                 "--metrics-json", metrics_path}),
            0)
      << err_.str();
  EXPECT_EQ(Slurp(metrics_path), Slurp(Golden("metrics/repair_metrics.json")));
}

TEST_F(GoldenTest, RepairDeltasMetricsJsonMatchesGoldenFixture) {
  std::string metrics_path = dir_ + "/deltas_metrics.json";
  ASSERT_EQ(Run({"repair-deltas", "--master", Golden("master.csv"),
                 "--rules", Golden("rules.rules"), "--input",
                 Golden("input.csv"), "--deltas", Golden("deltas.log"),
                 "--trusted", "zip,name", "--metrics-deterministic",
                 "--metrics-json", metrics_path}),
            0)
      << err_.str();
  EXPECT_EQ(Slurp(metrics_path),
            Slurp(Golden("metrics/repair_deltas_metrics.json")));
}

TEST_F(GoldenTest, RepairStreamTraceOutIsBalanced) {
  std::string trace_path = dir_ + "/trace.json";
  std::string metrics_path = dir_ + "/stream_metrics.json";
  ASSERT_EQ(Run({"repair-stream", "--master", Golden("master.csv"),
                 "--rules", Golden("rules.rules"), "--input",
                 Golden("input.csv"), "--trusted", "zip,name", "--threads",
                 "2", "--trace-out", trace_path, "--metrics-json",
                 metrics_path}),
            0)
      << err_.str();
  std::string trace = Slurp(trace_path);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("stream.shard_repair"), std::string::npos);
  size_t begins = 0, ends = 0, pos = 0;
  while ((pos = trace.find("\"ph\": \"", pos)) != std::string::npos) {
    (trace[pos + 7] == 'B' ? begins : ends)++;
    ++pos;
  }
  EXPECT_GT(begins, 0u);
  EXPECT_EQ(begins, ends);
  // The metrics snapshot rides along and names the hot-path histograms.
  std::string metrics = Slurp(metrics_path);
  EXPECT_NE(metrics.find("\"repair_tuple_ns\""), std::string::npos);
  EXPECT_NE(metrics.find("\"queue_push_wait_ns\""), std::string::npos);
  // The input rows count as they do for repair and repair-deltas.
  EXPECT_NE(metrics.find("\"csv.rows_read\": 3,"), std::string::npos)
      << metrics;
}

TEST_F(GoldenTest, NoTelemetryFlagKeepsOutputIdentical) {
  ASSERT_EQ(Run({"repair", "--master", Golden("master.csv"), "--rules",
                 Golden("rules.rules"), "--input", Golden("input.csv"),
                 "--trusted", "zip,name", "--output", output_path_,
                 "--no-telemetry"}),
            0)
      << err_.str();
  EXPECT_EQ(Slurp(output_path_), Slurp(Golden("expected_repair.csv")));
  EXPECT_NE(out_.str().find("cells changed:"), std::string::npos);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST_F(CliTest, RepairDeltasWalPersistsAndMatchesPlainRun) {
  std::string deltas_path = dir_ + "/wal.deltas";
  {
    std::ofstream deltas(deltas_path);
    deltas << "I,,G11,000,Wrong,New\n"  // fixable from master's G11 row
              "U,0,NW1,999,Nope,Eve\n"
              "D,1\n";
  }
  std::string wal_dir = dir_ + "/wal_session";
  std::filesystem::remove_all(wal_dir);

  // Plain run is the reference.
  std::string plain_out = dir_ + "/plain.csv";
  ASSERT_EQ(Run({"repair-deltas", "--master", master_path_, "--rules",
                 rules_path_, "--input", input_path_, "--deltas",
                 deltas_path, "--trusted", "zip,name", "--output",
                 plain_out}),
            0)
      << err_.str();

  // Durable run: same bytes, plus a committed session directory.
  std::string durable_out = dir_ + "/durable.csv";
  ASSERT_EQ(Run({"repair-deltas", "--master", master_path_, "--rules",
                 rules_path_, "--input", input_path_, "--deltas",
                 deltas_path, "--trusted", "zip,name", "--wal", wal_dir,
                 "--output", durable_out}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("wal: " + wal_dir), std::string::npos);
  EXPECT_EQ(ReadAll(durable_out), ReadAll(plain_out));
  EXPECT_TRUE(std::filesystem::exists(wal_dir + "/MANIFEST"));

  // recover needs nothing but the directory.
  std::string recovered_out = dir_ + "/recovered.csv";
  ASSERT_EQ(Run({"recover", "--dir", wal_dir, "--output", recovered_out}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("recovered " + wal_dir), std::string::npos);
  EXPECT_NE(out_.str().find("replayed: 3"), std::string::npos);
  EXPECT_EQ(ReadAll(recovered_out), ReadAll(plain_out));

  // An existing --wal dir resumes the session: master/rules/input come
  // from the directory, and more deltas append on top.
  std::string more_path = dir_ + "/more.deltas";
  {
    std::ofstream deltas(more_path);
    deltas << "I,,EH7,1,2,Zed\n";
  }
  ASSERT_EQ(Run({"repair-deltas", "--wal", wal_dir, "--deltas", more_path,
                 "--output", durable_out}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("recovered " + wal_dir), std::string::npos);
  EXPECT_NE(ReadAll(durable_out), ReadAll(plain_out));

  // snapshot rotates the generation and empties the WAL.
  ASSERT_EQ(Run({"snapshot", "--dir", wal_dir}), 0) << err_.str();
  EXPECT_NE(out_.str().find("snapshot generation"), std::string::npos);
  ASSERT_EQ(Run({"recover", "--dir", wal_dir}), 0) << err_.str();
  EXPECT_NE(out_.str().find("replayed: 0"), std::string::npos);
}

TEST_F(CliTest, RecoverSurvivesTornWalTail) {
  std::string deltas_path = dir_ + "/torn.deltas";
  {
    std::ofstream deltas(deltas_path);
    deltas << "I,,G11,000,Wrong,New\nD,0\n";
  }
  std::string wal_dir = dir_ + "/torn_session";
  std::filesystem::remove_all(wal_dir);
  ASSERT_EQ(Run({"repair-deltas", "--master", master_path_, "--rules",
                 rules_path_, "--input", input_path_, "--deltas",
                 deltas_path, "--trusted", "zip,name", "--wal", wal_dir}),
            0)
      << err_.str();

  // Chop the last 3 bytes off the WAL: a torn final record.
  std::string wal_path = wal_dir + "/wal-0.log";
  uint64_t size = std::filesystem::file_size(wal_path);
  std::filesystem::resize_file(wal_path, size - 3);
  ASSERT_EQ(Run({"recover", "--dir", wal_dir}), 0) << err_.str();
  EXPECT_NE(out_.str().find("replayed: 1"), std::string::npos);
  EXPECT_NE(out_.str().find("discarded bytes:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// --analyze on the repair commands, over a conflicting ruleset: zip and
// city each fix AC and the master rows disagree on AC, so a tuple with
// zip EH7 and city Lnd gets two fixes. The input never meets that
// conflict, so off and warn repair it as if the flag were absent.

class AnalyzeFlagTest : public CliTest {
 protected:
  void SetUp() override {
    CliTest::SetUp();
    base_ = dir_ + "/analyze_flag";
    std::filesystem::remove_all(base_);
    std::filesystem::create_directories(base_);
    master_path_ = base_ + "/master.csv";
    rules_path_ = base_ + "/rules.txt";
    input_path_ = base_ + "/input.csv";
    deltas_path_ = base_ + "/in.deltas";
    std::ofstream(master_path_) << "zip,AC,city,name\n"
                                   "EH7,131,Edi,Ann\n"
                                   "NW1,020,Lnd,Cid\n";
    std::ofstream(rules_path_) << "rule r1: (zip | zip) -> (AC | AC)\n"
                                  "rule r2: (city | city) -> (AC | AC)\n";
    std::ofstream(input_path_) << "zip,AC,city,name\n"
                                  "EH7,000,Edi,Eve\n"
                                  "NW1,999,Lnd,Fay\n";
    std::ofstream(deltas_path_) << "I,,EH7,1,Edi,Gus\n";
  }

  /// `command` over the fixture; "repair-deltas --wal" adds --wal `wal`.
  std::vector<std::string> Args(const std::string& command,
                                const std::string& wal = "") const {
    std::vector<std::string> args = {
        command.substr(0, command.find(' ')), "--master", master_path_,
        "--rules", rules_path_, "--input", input_path_, "--trusted",
        "zip,city,name"};
    if (command == "repair-deltas") {
      args.insert(args.end(), {"--deltas", deltas_path_});
    }
    if (command == "repair-deltas --wal") {
      args.insert(args.end(), {"--wal", wal});
    }
    return args;
  }

  /// Runs `args` with `extra` appended.
  int RunWith(std::vector<std::string> args,
              const std::vector<std::string>& extra) {
    args.insert(args.end(), extra.begin(), extra.end());
    return Run(args);
  }

  /// No repaired row reached `path`: the file is absent or holds at most
  /// the CSV header.
  static bool NoRows(const std::string& path) {
    if (!std::filesystem::exists(path)) return true;
    const std::string bytes = ReadAll(path);
    return bytes.find('\n') + 1 >= bytes.size();
  }

  void ExpectRefusalWithWitness() {
    const std::string err = err_.str();
    EXPECT_NE(err.find("conflicting fixes"), std::string::npos) << err;
    EXPECT_NE(err.find("'r1'"), std::string::npos) << err;
    EXPECT_NE(err.find("'r2'"), std::string::npos) << err;
    EXPECT_NE(err.find("zip="), std::string::npos) << err;
    EXPECT_NE(err.find("city="), std::string::npos) << err;
  }

  /// Every file of `dir`, name -> bytes.
  static std::map<std::string, std::string> Files(const std::string& dir) {
    std::map<std::string, std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      files[entry.path().filename().string()] =
          ReadAll(entry.path().string());
    }
    return files;
  }

  const std::vector<std::string> commands_ = {
      "repair", "repair-stream", "repair-deltas", "repair-deltas --wal"};
  std::string base_, deltas_path_;
};

TEST_F(AnalyzeFlagTest, StrictRefusesWithTheWitnessAndWritesNothing) {
  for (const std::string& command : commands_) {
    SCOPED_TRACE(command);
    const std::string wal = base_ + "/strict_wal";
    const std::string out = base_ + "/strict.csv";
    std::filesystem::remove(out);
    EXPECT_EQ(RunWith(Args(command, wal),
                      {"--analyze", "strict", "--output", out}),
              2);
    ExpectRefusalWithWitness();
    EXPECT_TRUE(NoRows(out));
    EXPECT_FALSE(std::filesystem::exists(wal + "/MANIFEST"));
  }
}

TEST_F(AnalyzeFlagTest, StrictLeavesAnExistingWalUntouched) {
  const std::string wal = base_ + "/existing_wal";
  ASSERT_EQ(Run(Args("repair-deltas --wal", wal)), 0) << err_.str();
  const std::map<std::string, std::string> before = Files(wal);
  const std::string out = base_ + "/strict_existing.csv";
  EXPECT_EQ(Run({"repair-deltas", "--wal", wal, "--deltas", deltas_path_,
                 "--analyze", "strict", "--output", out}),
            2);
  ExpectRefusalWithWitness();
  EXPECT_TRUE(NoRows(out));
  EXPECT_EQ(Files(wal), before);
}

TEST_F(AnalyzeFlagTest, WarnAndOffRepairAsWithoutTheFlag) {
  const std::string resumed = base_ + "/resumed_wal";
  ASSERT_EQ(Run(Args("repair-deltas --wal", resumed)), 0) << err_.str();
  std::vector<std::string> runs = commands_;
  runs.push_back("resume");
  for (size_t i = 0; i < runs.size(); ++i) {
    const std::string& run = runs[i];
    SCOPED_TRACE(run);
    int want_code = -1;
    std::string want_bytes;
    for (const std::string mode : {"", "warn", "off"}) {
      const std::string out =
          base_ + "/run" + std::to_string(i) + "_" + mode;
      std::vector<std::string> args =
          run == "resume"
              ? std::vector<std::string>{"repair-deltas", "--wal", resumed}
              : Args(run, out + "_wal");
      std::vector<std::string> extra = {"--output", out + ".csv"};
      if (!mode.empty()) extra.insert(extra.end(), {"--analyze", mode});
      const int code = RunWith(args, extra);
      if (mode.empty()) {
        EXPECT_EQ(code, 0) << err_.str();
        want_code = code;
        want_bytes = ReadAll(out + ".csv");
        continue;
      }
      EXPECT_EQ(code, want_code) << mode << ": " << err_.str();
      EXPECT_EQ(ReadAll(out + ".csv"), want_bytes) << mode;
    }
  }
}

// ---------------------------------------------------------------------------
// Output files are written whole or not at all: a command that fails
// leaves neither the output nor its temporary, and keeps an existing
// output as it was.

TEST_F(CliTest, RepairStreamFailingMidStreamLeavesNoOutput) {
  std::string input = dir_ + "/short_row.csv";
  std::ofstream(input) << "zip,AC,city,name\n"
                          "EH7,999,WRONG,Eve\n"
                          "NW1,000,Nope\n";
  std::string path = dir_ + "/partial.csv";
  std::filesystem::remove(path);
  EXPECT_EQ(Run({"repair-stream", "--master", master_path_, "--rules",
                 rules_path_, "--input", input, "--trusted", "zip,name",
                 "--output", path}),
            2);
  EXPECT_NE(err_.str().find("line 3"), std::string::npos) << err_.str();
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(CliTest, FailedOutputWriteKeepsTheOldFile) {
  std::string deltas = dir_ + "/one.deltas";
  std::ofstream(deltas) << "I,,EH7,1,x,Hal\n";
  const std::string path = dir_ + "/capped.out";
  const std::string old_bytes = "bytes of an earlier run\n";
  const std::vector<std::vector<std::string>> commands = {
      {"repair", "--output", path},
      {"repair-stream", "--output", path},
      {"repair-deltas", "--deltas", deltas, "--output", path},
      {"repair", "--metrics-json", path},
  };
  for (const std::vector<std::string>& command : commands) {
    const std::string label = command[0] + " " + command[command.size() - 2];
    std::vector<std::string> args = {command[0], "--master", master_path_,
                                     "--rules", rules_path_, "--input",
                                     input_path_, "--trusted", "zip,name"};
    args.insert(args.end(), command.begin() + 1, command.end());
    std::ofstream(path) << old_bytes;
    int code = 0;
    {
      // Every file write past 8 bytes fails, as on a full disk.
      testing_fixtures::FileSizeCap cap(8);
      ASSERT_TRUE(cap.ok());
      code = Run(args);
    }
    EXPECT_EQ(code, 2) << label << ": " << err_.str();
    // The error names its cause, as the storage writes always did.
    EXPECT_NE(err_.str().find(std::strerror(EFBIG)), std::string::npos)
        << label << ": " << err_.str();
    EXPECT_EQ(out_.str().find("written to"), std::string::npos) << label;
    EXPECT_EQ(ReadAll(path), old_bytes) << label;
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp")) << label;
  }
}

// A PATH that is neither missing nor a regular file is written through in
// place: a rename would replace the symlink or FIFO instead.
TEST_F(CliTest, OutputThroughSymlinkOrFifoWritesInPlace) {
  auto repair_to = [this](const std::string& path) {
    return Run({"repair", "--master", master_path_, "--rules", rules_path_,
                "--input", input_path_, "--trusted", "zip,name", "--output",
                path});
  };
  ASSERT_EQ(repair_to(output_path_), 0) << err_.str();
  const std::string expected = ReadAll(output_path_);

  const std::string target = dir_ + "/link_target.csv";
  const std::string link = dir_ + "/link.csv";
  std::ofstream(target) << "bytes of an earlier run\n";
  std::filesystem::remove(link);
  std::filesystem::create_symlink(target, link);
  EXPECT_EQ(repair_to(link), 0) << err_.str();
  EXPECT_TRUE(std::filesystem::is_symlink(link));
  EXPECT_EQ(ReadAll(target), expected);
  EXPECT_FALSE(std::filesystem::exists(link + ".tmp"));

  const std::string fifo = dir_ + "/out.fifo";
  std::filesystem::remove(fifo);
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  // The read end is open before the command runs, so its blocking open
  // for write returns at once; the few dozen bytes fit the pipe buffer.
  const int fd = ::open(fifo.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(fd, 0);
  const int code = repair_to(fifo);
  std::string piped;
  char buf[4096];
  for (ssize_t n; (n = ::read(fd, buf, sizeof(buf))) > 0;) piped.append(buf, n);
  ::close(fd);
  EXPECT_EQ(code, 0) << err_.str();
  EXPECT_EQ(piped, expected);
  EXPECT_TRUE(std::filesystem::is_fifo(fifo));
  EXPECT_FALSE(std::filesystem::exists(fifo + ".tmp"));
}

/// Runs the CLI with std::cout as its `out` while fd 1 writes to `path`.
int RunWithStdoutIn(const std::string& path,
                    const std::vector<std::string>& args, std::ostream& err) {
  std::cout.flush();
  std::fflush(stdout);
  const int saved = ::dup(STDOUT_FILENO);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
  if (saved < 0 || fd < 0 || ::dup2(fd, STDOUT_FILENO) < 0) {
    ADD_FAILURE() << "cannot redirect stdout to " << path;
    return -1;
  }
  ::close(fd);
  const int code = RunCli(args, std::cout, err);
  std::cout.flush();
  std::fflush(stdout);
  ::dup2(saved, STDOUT_FILENO);
  ::close(saved);
  return code;
}

// An output that names the command's own stdout (here /dev/stdout while
// stdout is redirected to a file) lands in that file in program order,
// beside the summary lines, instead of being overwritten by them.
TEST_F(CliTest, OutputToOwnStdoutKeepsRowsAndSummary) {
  for (const std::string command : {"repair", "repair-stream"}) {
    SCOPED_TRACE(command);
    const std::vector<std::string> args = {
        command,   "--master", master_path_, "--rules", rules_path_,
        "--input", input_path_, "--trusted", "zip,name"};
    ASSERT_EQ(Run(args), 0) << err_.str();
    const std::string summary = out_.str();
    std::vector<std::string> to_file = args;
    to_file.insert(to_file.end(), {"--output", output_path_});
    ASSERT_EQ(Run(to_file), 0) << err_.str();
    const std::string rows = ReadAll(output_path_);

    std::vector<std::string> to_stdout = args;
    to_stdout.insert(to_stdout.end(), {"--output", "/dev/stdout"});
    const std::string captured = dir_ + "/captured_stdout.txt";
    std::ostringstream err;
    ASSERT_EQ(RunWithStdoutIn(captured, to_stdout, err), 0) << err.str();
    // The batch engine prints its summary before it writes the rows; the
    // stream engine writes each row as it is repaired.
    const std::string written = "repaired relation written to /dev/stdout\n";
    EXPECT_EQ(ReadAll(captured), command == "repair"
                                     ? summary + rows + written
                                     : rows + summary + written);
  }
}

// The usage text and the parser agree: each command accepts every flag
// its usage block shows (the telemetry flags where it says so) and
// rejects every other flag the usage text shows.
TEST_F(CliTest, UsageListsExactlyTheFlagsEachCommandAccepts) {
  ASSERT_EQ(Run({}), 1);
  std::istringstream usage(err_.str());
  const std::regex flag_re("--[a-z][a-z-]*");
  std::map<std::string, std::set<std::string>> accepted;  // per command
  std::set<std::string> telemetry, every_flag;
  std::set<std::string> take_telemetry;
  std::set<std::string>* flags = nullptr;
  std::string command;
  for (std::string line; std::getline(usage, line);) {
    if (line.rfind("telemetry flags", 0) == 0) {
      flags = &telemetry;
      continue;
    }
    if (line.size() > 2 && line.compare(0, 2, "  ") == 0 &&
        std::islower(static_cast<unsigned char>(line[2]))) {
      const std::string rest = line.substr(2);
      command = rest.substr(0, std::min(rest.find("  "), rest.find(" --")));
      flags = &accepted[command];
    }
    if (flags == nullptr) continue;
    if (line.find("[telemetry flags]") != std::string::npos) {
      take_telemetry.insert(command);
    }
    for (std::sregex_iterator it(line.begin(), line.end(), flag_re), end;
         it != end; ++it) {
      flags->insert(it->str());
      every_flag.insert(it->str());
    }
  }
  ASSERT_EQ(accepted.size(), 9u) << err_.str();
  ASSERT_EQ(telemetry.size(), 4u) << err_.str();
  EXPECT_EQ(take_telemetry,
            (std::set<std::string>{"repair", "repair-stream",
                                   "repair-deltas", "recover"}));
  for (const std::string& name : take_telemetry) {
    accepted[name].insert(telemetry.begin(), telemetry.end());
  }
  for (const auto& [name, flags_of] : accepted) {
    for (const std::string& flag : every_flag) {
      std::vector<std::string> argv = {name.substr(0, name.find(' '))};
      if (name == "workload gen") argv.push_back("gen");
      argv.push_back(flag);
      Run(argv);
      const bool rejected = err_.str().find("unknown flag " + flag + " for " +
                                            name) != std::string::npos;
      EXPECT_EQ(rejected, flags_of.count(flag) == 0)
          << name << " " << flag << ": " << err_.str();
    }
  }
}

TEST_F(CliTest, SnapshotAndRecoverRequireDir) {
  EXPECT_EQ(Run({"snapshot"}), 1);
  EXPECT_NE(err_.str().find("--dir"), std::string::npos);
  EXPECT_EQ(Run({"recover"}), 1);
  EXPECT_EQ(Run({"recover", "--dir", dir_ + "/no_such_session"}), 2);
}

TEST_F(CliTest, MinedRulesRoundTripThroughParser) {
  ASSERT_EQ(Run({"mine", "--master", master_path_}), 0) << err_.str();
  // Feed the mined DSL back through the repair path via a fresh file.
  std::string mined_path = dir_ + "/mined.rules";
  std::ofstream mined(mined_path);
  mined << out_.str();
  mined.close();
  EXPECT_EQ(Run({"repair", "--master", master_path_, "--rules", mined_path,
                 "--input", input_path_, "--trusted", "zip,name"}),
            0)
      << err_.str();
}

}  // namespace
}  // namespace certfix
