/// \file crash_recovery_test.cc
/// \brief Crash-recovery differential tests for DurableSession
/// (incremental/durable_session.h): killing the process at ANY WAL byte
/// and recovering must reproduce — byte-for-byte — the engine state
/// after exactly the deltas that were durably acknowledged, and the
/// final state must match a from-scratch BatchRepair (the oracle the
/// whole incremental layer is contracted to).
///
/// The "kill" is simulated by truncating a copy of the state directory's
/// WAL at every record boundary and at mid-record offsets: equivalent to
/// a crash because Apply fsyncs the record before the engine sees it, so
/// the on-disk prefix is exactly the acknowledged history. Seeds follow
/// the CERTFIX_PROPERTY_SEED / --gtest_repeat soak idiom of
/// delta_differential_test.cc. Set CERTFIX_CRASH_ARTIFACT_DIR to keep
/// the state directory of a failing case.

#include "incremental/durable_session.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/batch_repair.h"
#include "relational/csv.h"
#include "test_util.h"
#include "util/random.h"
#include "workload/dirty_gen.h"
#include "workload/hosp.h"

namespace certfix {
namespace {

uint64_t NextSeed() { return testing_fixtures::NextPropertySeed(20260807); }

std::string ToCsv(const Relation& rel) {
  std::ostringstream out;
  EXPECT_TRUE(WriteCsv(rel, out).ok());
  return out.str();
}

/// Fields of row `row` exactly as a delta log would carry them (nulls
/// travel as empty strings; FromStrings maps them back to nulls).
std::vector<std::string> FieldsOf(const Relation& rel, size_t row) {
  std::vector<std::string> out;
  for (size_t a = 0; a < rel.schema()->num_attrs(); ++a) {
    const Value& v = rel.Cell(row, static_cast<AttrId>(a));
    out.push_back(v.is_null() ? "" : v.ToString());
  }
  return out;
}

struct World {
  SchemaPtr schema;
  RuleSet rules;
  Relation master;
  Relation input;
  AttrSet trusted;
  std::vector<Delta> deltas;  ///< valid by construction (positions in range)
};

World MakeWorld(uint64_t seed, size_t num_deltas) {
  World w;
  w.schema = HospWorkload::MakeSchema();
  w.rules = HospWorkload::MakeRules(w.schema);
  Rng rng(seed);
  w.master = HospWorkload::MakeMaster(w.schema, 40, &rng);
  Rng rng2(seed * 31 + 7);
  Relation non_master = HospWorkload::MakeMaster(w.schema, 40, &rng2, 500000);
  Rng rng3(seed * 131 + 3);
  Relation master_pool =
      HospWorkload::MakeMaster(w.schema, 48, &rng3, 900000);

  w.trusted.Add(*w.schema->IndexOf("id"));
  w.trusted.Add(*w.schema->IndexOf("mCode"));

  DirtyGenOptions gen_options;
  gen_options.duplicate_rate = 0.6;
  gen_options.noise_rate = 0.4;
  gen_options.protected_attrs = w.trusted;
  gen_options.seed = seed * 7 + 1;
  DirtyGenerator gen(w.master, non_master, gen_options);
  Relation insert_pool(w.schema);
  for (const DirtyPair& pair : gen.Generate(120)) {
    EXPECT_TRUE(insert_pool.Append(pair.dirty).ok());
  }

  w.input = Relation(w.schema);
  size_t next_insert = 0;
  for (size_t i = 0; i < 12; ++i) {
    EXPECT_TRUE(w.input.Append(insert_pool.at(next_insert++)).ok());
  }

  // A delta script that is valid by construction: track live row counts
  // so positions are always in range and the master never empties.
  size_t rows = w.input.size();
  size_t master_rows = w.master.size();
  size_t next_master = 0;
  Rng script_rng(seed ^ 0x9e3779b97f4a7c15ULL);
  while (w.deltas.size() < num_deltas) {
    double roll = script_rng.NextDouble();
    Delta d;
    if (roll < 0.30 || rows == 0) {
      d.kind = DeltaKind::kInsert;
      d.fields = FieldsOf(insert_pool, next_insert++ % insert_pool.size());
      ++rows;
    } else if (roll < 0.55) {
      d.kind = DeltaKind::kUpdate;
      d.row = script_rng.Index(rows);
      d.fields = FieldsOf(insert_pool, next_insert++ % insert_pool.size());
    } else if (roll < 0.70) {
      d.kind = DeltaKind::kDelete;
      d.row = script_rng.Index(rows);
      --rows;
    } else if (roll < 0.82) {
      d.kind = DeltaKind::kMasterInsert;
      d.fields = FieldsOf(master_pool, next_master++ % master_pool.size());
      ++master_rows;
    } else if (roll < 0.94) {
      d.kind = DeltaKind::kMasterUpdate;
      d.row = script_rng.Index(master_rows);
      d.fields = FieldsOf(master_pool, next_master++ % master_pool.size());
    } else if (master_rows > 10) {
      d.kind = DeltaKind::kMasterDelete;
      d.row = script_rng.Index(master_rows);
      --master_rows;
    } else {
      continue;
    }
    w.deltas.push_back(std::move(d));
  }
  return w;
}

/// Fresh state directory under the gtest temp dir.
std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Copies a session directory (the "disk image" a crash would leave).
void CopyDir(const std::string& from, const std::string& to) {
  std::filesystem::remove_all(to);
  std::filesystem::copy(from, to,
                        std::filesystem::copy_options::recursive);
}

/// Size of `path` in bytes; 0 when it does not exist.
uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  const uint64_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

void TruncateFile(const std::string& path, uint64_t len) {
  std::filesystem::resize_file(path, len);
}

/// On failure, keep the directory for postmortem if the artifact env
/// var is set (the CI crash-recovery leg uploads it).
void MaybeSaveArtifact(const std::string& dir, const std::string& label) {
  const char* base = std::getenv("CERTFIX_CRASH_ARTIFACT_DIR");
  if (base == nullptr) return;
  std::error_code ec;
  std::filesystem::create_directories(base, ec);
  CopyDir(dir, std::string(base) + "/" + label);
}

/// From-scratch oracle over the session's current input and master.
/// BatchRepair of `engine`'s current input against its current master, as
/// CSV bytes.
std::string ScratchCsv(DeltaRepairEngine& engine, const RuleSet& rules,
                       AttrSet trusted) {
  Relation final_input = engine.SnapshotInput();
  Relation final_master = engine.master();
  MasterIndex index(rules, final_master);
  Saturator sat(rules, final_master, index);
  return ToCsv(BatchRepair(sat).Repair(final_input, trusted).repaired);
}

void ExpectMatchesScratch(DurableSession* session, const RuleSet& rules,
                          AttrSet trusted, const std::string& label) {
  EXPECT_EQ(ToCsv(session->engine().SnapshotRepaired()),
            ScratchCsv(session->engine(), rules, trusted))
      << label;
}

/// Expected repaired bytes after exactly `prefix` of `w.deltas`: a fresh
/// in-memory engine replays them, and BatchRepair repairs its final input
/// and master from scratch.
std::string ScratchAfterPrefix(const World& w, size_t prefix) {
  DeltaRepairEngine engine(w.rules, w.master, w.trusted);
  EXPECT_TRUE(engine.Load(w.input).ok());
  for (size_t i = 0; i < prefix; ++i) {
    EXPECT_TRUE(engine.Apply(w.deltas[i]).ok()) << "delta " << i;
  }
  return ScratchCsv(engine, w.rules, w.trusted);
}

TEST(CrashRecoveryTest, KillAtEveryWalOffsetRecoversAcknowledgedPrefix) {
  uint64_t seed = NextSeed();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  World w = MakeWorld(seed, 28);

  // Reference run: one uninterrupted durable session, capturing the
  // repaired bytes after every acknowledged delta.
  std::string ref_dir = FreshDir("crash_ref");
  DurableOptions options;  // snapshot_every = 0: everything stays in WAL
  Result<std::unique_ptr<DurableSession>> created = DurableSession::Create(
      ref_dir, w.rules, w.master, w.input, w.trusted, options);
  ASSERT_TRUE(created.ok()) << created.status();
  std::unique_ptr<DurableSession> ref = std::move(created).ValueOrDie();

  std::vector<std::string> expected;
  expected.push_back(ToCsv(ref->engine().SnapshotRepaired()));
  for (size_t i = 0; i < w.deltas.size(); ++i) {
    ASSERT_TRUE(ref->Apply(w.deltas[i]).ok()) << "delta " << i;
    expected.push_back(ToCsv(ref->engine().SnapshotRepaired()));
  }
  ExpectMatchesScratch(ref.get(), w.rules, w.trusted, "reference final");
  ref.reset();  // close the WAL fd

  std::string wal_path = ref_dir + "/wal-0.log";
  Result<storage::WalScan> scan = storage::ScanWal(wal_path);
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_EQ(scan->boundaries.size(), w.deltas.size() + 1);

  // Kill at every record boundary and mid-record: recovery must land on
  // exactly the acknowledged prefix.
  std::string crash_dir = FreshDir("crash_img");
  for (size_t k = 0; k <= w.deltas.size(); ++k) {
    std::vector<uint64_t> cuts = {scan->boundaries[k]};
    if (k < w.deltas.size()) {
      // Mid-record: half a frame past boundary k tears record k.
      cuts.push_back(scan->boundaries[k] +
                     (scan->boundaries[k + 1] - scan->boundaries[k]) / 2);
    }
    for (uint64_t cut : cuts) {
      CopyDir(ref_dir, crash_dir);
      TruncateFile(crash_dir + "/wal-0.log", cut);
      Result<std::unique_ptr<DurableSession>> opened =
          DurableSession::Open(crash_dir, options);
      ASSERT_TRUE(opened.ok()) << "cut " << cut << ": " << opened.status();
      std::unique_ptr<DurableSession> session =
          std::move(opened).ValueOrDie();
      EXPECT_EQ(session->recovery().replayed_records, k) << "cut " << cut;
      std::string got = ToCsv(session->engine().SnapshotRepaired());
      if (got != expected[k]) {
        MaybeSaveArtifact(crash_dir,
                          "cut_" + std::to_string(cut) + "_seed_" +
                              std::to_string(seed));
      }
      ASSERT_EQ(got, expected[k]) << "cut " << cut << " (k=" << k << ")";
      if (cut != scan->boundaries[k]) {
        EXPECT_GT(session->recovery().discarded_bytes, 0u)
            << "cut " << cut;
      }
    }
  }
}

TEST(CrashRecoveryTest, RecoveredSessionContinuesIdentically) {
  uint64_t seed = NextSeed();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  World w = MakeWorld(seed, 24);
  size_t half = w.deltas.size() / 2;

  // Uninterrupted run over the full script.
  std::string full_dir = FreshDir("cont_full");
  DurableOptions options;
  Result<std::unique_ptr<DurableSession>> full = DurableSession::Create(
      full_dir, w.rules, w.master, w.input, w.trusted, options);
  ASSERT_TRUE(full.ok()) << full.status();
  for (const Delta& d : w.deltas) {
    ASSERT_TRUE((*full)->Apply(d).ok());
  }
  std::string want = ToCsv((*full)->engine().SnapshotRepaired());

  // Crash after `half` deltas, recover, apply the rest: same bytes.
  std::string crash_dir = FreshDir("cont_crash");
  {
    Result<std::unique_ptr<DurableSession>> first = DurableSession::Create(
        crash_dir, w.rules, w.master, w.input, w.trusted, options);
    ASSERT_TRUE(first.ok()) << first.status();
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE((*first)->Apply(w.deltas[i]).ok());
    }
    // Session dropped here without a snapshot — like a kill -9 (the WAL
    // is synced per append, so nothing else is needed).
  }
  Result<std::unique_ptr<DurableSession>> resumed =
      DurableSession::Open(crash_dir, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ((*resumed)->recovery().replayed_records, half);
  for (size_t i = half; i < w.deltas.size(); ++i) {
    ASSERT_TRUE((*resumed)->Apply(w.deltas[i]).ok()) << "delta " << i;
  }
  EXPECT_EQ(ToCsv((*resumed)->engine().SnapshotRepaired()), want);
  ExpectMatchesScratch(resumed->get(), w.rules, w.trusted,
                       "continued final");
}

TEST(CrashRecoveryTest, SnapshotRotationCommitsAndRecovers) {
  uint64_t seed = NextSeed();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  World w = MakeWorld(seed, 25);

  std::string dir = FreshDir("rotate");
  DurableOptions options;
  options.snapshot_every = 7;
  Result<std::unique_ptr<DurableSession>> created = DurableSession::Create(
      dir, w.rules, w.master, w.input, w.trusted, options);
  ASSERT_TRUE(created.ok()) << created.status();
  std::unique_ptr<DurableSession> session = std::move(created).ValueOrDie();
  for (const Delta& d : w.deltas) {
    ASSERT_TRUE(session->Apply(d).ok());
  }
  std::string want = ToCsv(session->engine().SnapshotRepaired());
  uint64_t gen = session->snapshot_id();
  EXPECT_EQ(gen, w.deltas.size() / 7);
  EXPECT_EQ(session->records_since_snapshot(), w.deltas.size() % 7);
  session.reset();

  // Old generations are gone; only the committed one remains.
  EXPECT_FALSE(std::filesystem::exists(dir + "/wal-0.log"));
  EXPECT_FALSE(
      std::filesystem::exists(dir + "/snapshot-0.master.col"));
  EXPECT_TRUE(std::filesystem::exists(
      dir + "/snapshot-" + std::to_string(gen) + ".master.col"));

  Result<std::unique_ptr<DurableSession>> reopened =
      DurableSession::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->recovery().snapshot_id, gen);
  EXPECT_EQ((*reopened)->recovery().replayed_records,
            w.deltas.size() % 7);
  EXPECT_EQ(ToCsv((*reopened)->engine().SnapshotRepaired()), want);
  ExpectMatchesScratch(reopened->get(), w.rules, w.trusted,
                       "post-rotation");
}

TEST(CrashRecoveryTest, RejectedDeltasReplayAsDeterministicNoOps) {
  uint64_t seed = NextSeed();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  World w = MakeWorld(seed, 8);

  std::string dir = FreshDir("rejected");
  DurableOptions options;
  Result<std::unique_ptr<DurableSession>> created = DurableSession::Create(
      dir, w.rules, w.master, w.input, w.trusted, options);
  ASSERT_TRUE(created.ok()) << created.status();
  std::unique_ptr<DurableSession> session = std::move(created).ValueOrDie();
  for (const Delta& d : w.deltas) {
    ASSERT_TRUE(session->Apply(d).ok());
  }
  // A delta the engine rejects (row far out of range) is logged before
  // validation: the caller sees the rejection, and replay must re-reject
  // it identically instead of failing recovery.
  Delta bad;
  bad.kind = DeltaKind::kDelete;
  bad.row = 1u << 20;
  EXPECT_FALSE(session->Apply(bad).ok());
  std::string want = ToCsv(session->engine().SnapshotRepaired());
  session.reset();

  Result<std::unique_ptr<DurableSession>> reopened =
      DurableSession::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  // The rejected record is in the WAL and was replayed (as a no-op).
  EXPECT_EQ((*reopened)->recovery().replayed_records,
            w.deltas.size() + 1);
  EXPECT_EQ(ToCsv((*reopened)->engine().SnapshotRepaired()), want);
}

TEST(CrashRecoveryTest, FailedWalAppendStopsTheSession) {
  uint64_t seed = NextSeed();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  World w = MakeWorld(seed, 4);

  std::string dir = FreshDir("wal_fail");
  DurableOptions options;
  Result<std::unique_ptr<DurableSession>> created = DurableSession::Create(
      dir, w.rules, w.master, w.input, w.trusted, options);
  ASSERT_TRUE(created.ok()) << created.status();
  std::unique_ptr<DurableSession> session = std::move(created).ValueOrDie();
  ASSERT_TRUE(session->Apply(w.deltas[0]).ok());

  // The next append runs out of room five bytes in: a torn frame that
  // recovery stops at, so nothing after it could ever be recovered.
  const std::string wal_path = dir + "/wal-0.log";
  const uint64_t wal_end = FileSize(wal_path);
  Status failed;
  {
    testing_fixtures::FileSizeCap cap(wal_end + 5);
    ASSERT_TRUE(cap.ok());
    failed = session->Apply(w.deltas[1]);
  }
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(FileSize(wal_path), wal_end + 5);

  // The disk has room again, but the session stays stopped: every call
  // returns the first error and touches neither the WAL nor the engine.
  const std::string live = ToCsv(session->engine().SnapshotRepaired());
  EXPECT_EQ(session->Apply(w.deltas[2]).ToString(), failed.ToString());
  VectorDeltaSource rest({w.deltas[2], w.deltas[3]});
  EXPECT_EQ(session->ApplyAll(&rest).ToString(), failed.ToString());
  EXPECT_EQ(session->WriteSnapshot().ToString(), failed.ToString());
  EXPECT_EQ(FileSize(wal_path), wal_end + 5);
  EXPECT_EQ(session->snapshot_id(), 0u);
  EXPECT_EQ(ToCsv(session->engine().SnapshotRepaired()), live);
  session.reset();

  // Reopening recovers exactly the acknowledged prefix: the first delta.
  Result<std::unique_ptr<DurableSession>> reopened =
      DurableSession::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->recovery().replayed_records, 1u);
  EXPECT_EQ((*reopened)->recovery().discarded_bytes, 5u);
  EXPECT_EQ(ToCsv((*reopened)->engine().SnapshotRepaired()),
            ScratchAfterPrefix(w, 1));
}

TEST(CrashRecoveryTest, FailedRotationStopsTheSession) {
  uint64_t seed = NextSeed();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  World w = MakeWorld(seed, 3);

  std::string dir = FreshDir("rotate_fail");
  DurableOptions options;
  Result<std::unique_ptr<DurableSession>> created = DurableSession::Create(
      dir, w.rules, w.master, w.input, w.trusted, options);
  ASSERT_TRUE(created.ok()) << created.status();
  std::unique_ptr<DurableSession> session = std::move(created).ValueOrDie();
  ASSERT_TRUE(session->Apply(w.deltas[0]).ok());

  // No snapshot of the next generation fits under the cap.
  Status failed;
  {
    testing_fixtures::FileSizeCap cap(64);
    ASSERT_TRUE(cap.ok());
    failed = session->WriteSnapshot();
  }
  ASSERT_FALSE(failed.ok());
  // The error keeps its cause, so a full disk reads as one.
  EXPECT_NE(failed.message().find(std::strerror(EFBIG)), std::string::npos)
      << failed;
  EXPECT_EQ(session->Apply(w.deltas[1]).ToString(), failed.ToString());
  EXPECT_EQ(session->snapshot_id(), 0u);
  session.reset();

  Result<std::unique_ptr<DurableSession>> reopened =
      DurableSession::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->recovery().snapshot_id, 0u);
  EXPECT_EQ((*reopened)->recovery().replayed_records, 1u);
  EXPECT_EQ(ToCsv((*reopened)->engine().SnapshotRepaired()),
            ScratchAfterPrefix(w, 1));
  // The reopened session runs again.
  EXPECT_TRUE((*reopened)->Apply(w.deltas[1]).ok());
}

}  // namespace
}  // namespace certfix
