/// \file durable_churn.cc
/// \brief durable-churn: a durable session under skewed churn of both
/// input and master data. The only workload that writes master data while
/// it is read, so it alone exercises invalidation fan-out, index
/// rebuilds, positional deletes and probe unregistering under skew, the
/// fsync'd WAL, snapshot rotation and recovery.
///
/// One round: parse the CSV bytes and DurableSession::Create; apply every
/// delta through DurableSession::Apply (fsync on every append, the
/// session default) with WriteSnapshot after every kSnapshotEvery-th
/// delta, counted in that delta's acknowledgement; Flush; close; Open the
/// directory and Flush again (recovery replays the WAL tail).

#include <algorithm>
#include <filesystem>
#include <memory>

#include "core/batch_repair.h"
#include "harness.h"
#include "incremental/durable_session.h"
#include "telemetry/trace.h"

namespace perfbench {

using namespace certfix;

namespace {

constexpr size_t kMasterRows = 20000;
constexpr size_t kInputRows = 20000;
constexpr size_t kDeltas = 6000;
/// Rotation interval: snapshots after deltas 2500 and 5000 leave a WAL
/// tail of 1000 records for recovery to replay.
constexpr size_t kSnapshotEvery = 2500;
/// The acknowledgement p99 is the median over windows of this many
/// consecutive deltas (six per round).
constexpr size_t kAckWindow = 1000;
/// A run makes one round per this many seconds of --seconds (a round
/// takes about 8 s with its two set-ups and recovery on the reference
/// host), each on its own scenario, so a run's figures average over
/// several draws of the master deltas whose invalidation fan-out
/// dominates.
constexpr double kRoundSeconds = 8;
/// Master deltas a round's scenario holds, give or take one: kDeltas
/// times master_ratio. The generator picks each delta's side on its own,
/// so the count varies from seed to seed by about its square root, and
/// each master delta (an index rebuild plus ~1,700 re-repairs) costs as
/// much as hundreds of input deltas. Ten seeds gave 2,300-3,400 deltas/s
/// with the count left free, each seed reading the same on a rerun.
constexpr size_t kMasterDeltas = 12;
/// Draws a round may make before it takes what it has.
constexpr uint64_t kMaxDraws = 100;

ScenarioSpec Spec(uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "durable-churn";
  spec.seed = seed;
  spec.master_rows = kMasterRows;
  spec.initial_rows = kInputRows;
  spec.num_deltas = kDeltas;
  spec.master_noise_rate = 0.1;
  spec.popularity.kind = PopularityKind::kZipf;
  spec.popularity.alpha = 1.2;
  spec.arrival.insert_weight = 0.3;
  spec.arrival.update_weight = 0.5;
  spec.arrival.delete_weight = 0.2;
  spec.arrival.master_ratio = 0.002;
  return spec;
}

/// The scenario of one round: the first of the specs seeded from
/// (seed, round, draw), draw = 0, 1, ..., whose delta log holds
/// kMasterDeltas ± 1 master deltas. Its spec seed goes to *spec_seed.
Result<Scenario> RoundScenario(uint64_t seed, size_t round,
                               uint64_t* spec_seed, Report* report) {
  for (uint64_t draw = 0;; ++draw) {
    *spec_seed = (seed * 1000003 + round) * kMaxDraws + draw;
    Result<Scenario> sc = Generate(Spec(*spec_seed), report);
    if (!sc.ok() || draw + 1 == kMaxDraws) return sc;
    const size_t masters = static_cast<size_t>(
        std::count_if(sc->deltas.begin(), sc->deltas.end(),
                      [](const Delta& d) { return IsMasterDelta(d.kind); }));
    if (masters + 1 >= kMasterDeltas && masters <= kMasterDeltas + 1) {
      return sc;
    }
  }
}

DurableOptions SessionOptions() {
  DurableOptions options;
  options.engine.num_shards = kWorkers;
  options.sync_every_append = true;
  return options;
}

uint64_t DirBytes(const std::string& dir, const char* prefix) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

/// Set-up: the master and input CSV bytes parsed, and a session created
/// over them in the empty directory `dir`.
Result<std::unique_ptr<DurableSession>> CreateSession(
    const Scenario& sc, const std::string& master_bytes,
    const std::string& input_bytes, const std::string& dir) {
  auto parse = [&](const std::string& bytes) {
    CERTFIX_SPAN("relational.read_csv");
    return ParseCsv(sc.schema, bytes);
  };
  Result<Relation> master = parse(master_bytes);
  if (!master.ok()) return master.status();
  Result<Relation> input = parse(input_bytes);
  if (!input.ok()) return input.status();
  CERTFIX_SPAN("incremental.create");
  return DurableSession::Create(dir, sc.rules, *master, *input, sc.trusted,
                                SessionOptions());
}

/// One more timed set-up on a round's scenario, whose session is closed
/// and whose directory is removed again. 0 when it failed.
uint64_t SpareSetup(const Scenario& sc, const std::string& master_bytes,
                    const std::string& input_bytes, const std::string& dir,
                    Report* report) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  const uint64_t t0 = NowNs();
  Result<std::unique_ptr<DurableSession>> created =
      CreateSession(sc, master_bytes, input_bytes, dir);
  const uint64_t ns = NowNs() - t0;
  if (!created.ok()) {
    report->Fail("Create: " + created.status().ToString());
    return 0;
  }
  std::move(created).ValueOrDie().reset();
  std::filesystem::remove_all(dir, ec);
  return ns;
}

struct Round {
  uint64_t spec_seed = 0;  ///< of the round's scenario (RoundScenario)
  uint64_t setup_ns = 0;
  uint64_t apply_ns = 0;  ///< first Apply until Flush returns
  uint64_t recover_ns = 0;
  std::vector<uint64_t> ack_ns;
  std::vector<uint64_t> input_ack_ns;
  std::vector<uint64_t> master_ack_ns;
  DeltaRepairStats before;  ///< after Create
  DeltaRepairStats after;   ///< after the last Flush
  uint64_t master_deltas = 0;
  uint64_t snapshot_bytes = 0;
  double bytes_per_user_byte = 0;
  uint64_t replayed = 0;
  std::string flushed;
  std::string recovered;
};

bool RunRound(const Scenario& sc, const std::string& master_bytes,
              const std::string& input_bytes, const std::string& dir,
              Round* round, Report* report) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  uint64_t t0 = NowNs();
  Result<std::unique_ptr<DurableSession>> created =
      CreateSession(sc, master_bytes, input_bytes, dir);
  round->setup_ns = NowNs() - t0;
  if (!created.ok()) {
    report->Fail("Create: " + created.status().ToString());
    return false;
  }
  std::unique_ptr<DurableSession> session = std::move(created).ValueOrDie();
  round->before = session->engine().stats();

  t0 = NowNs();
  for (size_t i = 0; i < sc.deltas.size(); ++i) {
    const Delta& delta = sc.deltas[i];
    const uint64_t start = NowNs();
    Status st;
    {
      CERTFIX_SPAN("incremental.apply");
      st = session->Apply(delta);
    }
    if (st.ok() && (i + 1) % kSnapshotEvery == 0 &&
        i + 1 < sc.deltas.size()) {
      CERTFIX_SPAN("storage.write_snapshot");
      st = session->WriteSnapshot();
    }
    const uint64_t ack = NowNs() - start;
    report->CountOp(st.ok());
    round->ack_ns.push_back(ack);
    if (IsMasterDelta(delta.kind)) {
      round->master_ack_ns.push_back(ack);
      ++round->master_deltas;
    } else {
      round->input_ack_ns.push_back(ack);
    }
  }
  {
    CERTFIX_SPAN("incremental.flush");
    session->engine().Flush();
  }
  round->apply_ns = NowNs() - t0;

  round->after = session->engine().stats();
  round->flushed = CsvBytes(session->engine().SnapshotRepaired());
  const double user_bytes = static_cast<double>(
      CsvBytes(session->engine().master()).size() +
      CsvBytes(session->engine().SnapshotInput()).size());
  session.reset();
  round->snapshot_bytes = DirBytes(dir, "snapshot-");
  round->bytes_per_user_byte =
      Ratio(static_cast<double>(DirBytes(dir, "")), user_bytes);

  t0 = NowNs();
  Result<std::unique_ptr<DurableSession>> opened = [&] {
    CERTFIX_SPAN("incremental.open");
    return DurableSession::Open(dir, SessionOptions());
  }();
  if (!opened.ok()) {
    report->Fail("Open: " + opened.status().ToString());
    return false;
  }
  std::unique_ptr<DurableSession> recovered = std::move(opened).ValueOrDie();
  {
    CERTFIX_SPAN("incremental.flush");
    recovered->engine().Flush();
  }
  round->recover_ns = NowNs() - t0;
  round->replayed = recovered->recovery().replayed_records;
  round->recovered = CsvBytes(recovered->engine().SnapshotRepaired());
  recovered.reset();
  std::filesystem::remove_all(dir, ec);
  return true;
}

/// From-scratch BatchRepair of the final state: the delta log applied
/// positionally to the rendered rows (ApplyDeltaLog), then repaired.
std::string OracleBytes(const Scenario& sc, const std::string& master_bytes,
                        const std::string& input_bytes, Report* report) {
  Result<Relation> master = ParseCsv(sc.schema, master_bytes);
  Result<Relation> input = ParseCsv(sc.schema, input_bytes);
  if (!master.ok() || !input.ok()) return "";
  std::vector<std::vector<std::string>> input_rows = RenderRows(*input);
  std::vector<std::vector<std::string>> master_rows = RenderRows(*master);
  if (Status st = ApplyDeltaLog(sc.deltas, &input_rows, &master_rows);
      !st.ok()) {
    report->Fail("oracle replay: " + st.ToString());
    return "";
  }
  Result<Relation> final_input = RelationFromRows(sc.schema, input_rows);
  Result<Relation> final_master = RelationFromRows(sc.schema, master_rows);
  if (!final_input.ok() || !final_master.ok()) return "";
  MasterIndex index(sc.rules, *final_master);
  Saturator sat(sc.rules, *final_master, index);
  RepairOptions options;
  options.num_threads = kWorkers;
  return CsvBytes(BatchRepair(sat, options).Repair(*final_input, sc.trusted)
                      .repaired);
}

void CheckRound(const Round& round, const std::string& oracle,
                Report* report) {
  if (oracle.empty() || round.flushed != oracle) {
    report->Fail("flushed session differs from the oracle");
  }
  if (round.recovered != oracle) {
    report->Fail("recovered session differs from the oracle");
  }
}

}  // namespace

void RunDurableChurn(const Options& options, Report* report) {
  const std::string dir = options.work_dir + "/durable-churn-session";
  if (!options.trace) {
    const size_t num_rounds = std::max<size_t>(
        1, static_cast<size_t>(options.seconds / kRoundSeconds + 0.5));
    std::vector<Round> rounds(num_rounds);
    // Two set-ups per round: a spare one, then the round's own.
    std::vector<uint64_t> setup_ns;
    for (size_t r = 0; r < num_rounds; ++r) {
      Result<Scenario> sc =
          RoundScenario(options.seed, r, &rounds[r].spec_seed, report);
      if (!sc.ok()) {
        report->Fail(sc.status().ToString());
        return;
      }
      const std::string master_bytes = CsvBytes(sc->master);
      const std::string input_bytes = CsvBytes(sc->initial);
      const uint64_t spare_ns =
          SpareSetup(*sc, master_bytes, input_bytes, dir, report);
      if (spare_ns == 0) return;
      setup_ns.push_back(spare_ns);
      if (!RunRound(*sc, master_bytes, input_bytes, dir, &rounds[r],
                    report)) {
        return;
      }
      setup_ns.push_back(rounds[r].setup_ns);
    }
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    std::vector<uint64_t> recover_ns, ack_ns;
    std::vector<double> ratios;
    uint64_t apply_ns = 0, master_deltas = 0;
    for (const Round& r : rounds) {
      master_deltas += r.master_deltas;
      recover_ns.push_back(r.recover_ns);
      ratios.push_back(r.bytes_per_user_byte);
      apply_ns += r.apply_ns;
      ack_ns.insert(ack_ns.end(), r.ack_ns.begin(), r.ack_ns.end());
    }
    report->Set("setup_s", MedianSeconds(setup_ns), "s");
    report->Set("session_deltas_per_s",
                Ratio(static_cast<double>(ack_ns.size()), Seconds(apply_ns)),
                "deltas/s");
    SetLatencyUs(ack_ns, "ack_latency", kAckWindow, report);
    report->Set("recover_s", MedianSeconds(recover_ns), "s");
    report->Set("bytes_per_user_byte", Median(ratios), "ratio");
    report->Set("durable.rounds", static_cast<double>(num_rounds), "count");
    report->Set("durable.master_deltas", static_cast<double>(master_deltas),
                "count");
    // Oracles after everything timed and after the memory high-water
    // mark was read: each round's scenario is generated again.
    for (size_t r = 0; r < num_rounds; ++r) {
      Result<Scenario> sc = GenerateScenario(Spec(rounds[r].spec_seed));
      if (!sc.ok()) {
        report->Fail(sc.status().ToString());
        return;
      }
      CheckRound(rounds[r],
                 OracleBytes(*sc, CsvBytes(sc->master), CsvBytes(sc->initial),
                             report),
                 report);
    }
    return;
  }

  uint64_t spec_seed = 0;
  Result<Scenario> generated =
      RoundScenario(options.seed, 0, &spec_seed, report);
  if (!generated.ok()) {
    report->Fail(generated.status().ToString());
    return;
  }
  const Scenario& sc = *generated;
  const std::string master_bytes = CsvBytes(sc.master);
  const std::string input_bytes = CsvBytes(sc.initial);
  double untraced_s = 0;
  {
    Round round;
    const uint64_t t0 = NowNs();
    if (!RunRound(sc, master_bytes, input_bytes, dir, &round, report)) return;
    untraced_s = Seconds(NowNs() - t0);
  }
  telemetry::ScopedRegistry registry;
  TracedPass pass;
  // Per delta on the caller: apply + wal.append + delta.ingest; per
  // repair on a shard worker: delta.shard_repair + delta.merge +
  // delta.sink. Create and Open each repair every input row, and master
  // deltas re-repair their invalidated rows (about 2,000 each on the
  // baseline seed), hence the generous factor.
  pass.Start(32 * (kInputRows + kDeltas) + 4096);
  Round round;
  bool ok = false;
  uint64_t wall_ns = 0;
  {
    CERTFIX_SPAN("bench.phase");
    const uint64_t t0 = NowNs();
    ok = RunRound(sc, master_bytes, input_bytes, dir, &round, report);
    wall_ns = NowNs() - t0;
  }
  pass.Finish(report);
  if (!ok) return;

  telemetry::Registry& reg = registry.registry();
  const double parse_s = pass.TotalSeconds("relational.read_csv");
  report->Set("relational.csv_parse_s", parse_s, "s");
  report->Set("relational.parse_mb_per_s",
              Ratio(static_cast<double>(master_bytes.size() +
                                        input_bytes.size()) / 1e6,
                    parse_s),
              "MB/s");
  SetCoreAndOverhead(reg, Count(reg, "delta.memo_hits"),
                     Count(reg, "delta.memo_misses"), round.after.conflicting,
                     Seconds(wall_ns), untraced_s, report);

  const double deltas = static_cast<double>(round.ack_ns.size());
  const DeltaRepairStats& a = round.after;
  const DeltaRepairStats& b = round.before;
  report->Set("incremental.create_s",
              pass.TotalSeconds("incremental.create"), "s");
  SetLayerLatencyUs(round.input_ack_ns, "incremental.apply_input", report);
  SetLayerLatencyUs(round.master_ack_ns, "incremental.apply_master",
                    report);
  report->Set("incremental.flush_s", pass.TotalSeconds("incremental.flush"),
              "s");
  report->Set("incremental.repairs_per_delta",
              Ratio(static_cast<double>(a.tuples_repaired - b.tuples_repaired),
                    deltas),
              "ratio");
  report->Set("incremental.invalidated_per_master_delta",
              Ratio(static_cast<double>(a.tuples_invalidated -
                                        b.tuples_invalidated),
                    static_cast<double>(round.master_deltas)),
              "ratio");
  report->Set("incremental.master_rebuilds",
              static_cast<double>(a.master_rebuilds - b.master_rebuilds),
              "count");
  report->Set("incremental.rebuild_s", pass.TotalSeconds("delta.rebuild"),
              "s");
  const double dh = static_cast<double>(a.memo_hits - b.memo_hits);
  const double dm = static_cast<double>(a.memo_misses - b.memo_misses);
  report->Set("incremental.memo_hit_ratio", Ratio(dh, dh + dm), "ratio");

  telemetry::HistogramSnapshot wal = Histo(reg, "wal.append_ns");
  report->Set("storage.wal_append_p50_us", static_cast<double>(wal.p50) / 1e3,
              "us");
  report->Set("storage.wal_append_p99_us", static_cast<double>(wal.p99) / 1e3,
              "us");
  report->Set("storage.fsyncs_per_delta",
              Ratio(static_cast<double>(Count(reg, "wal.fsyncs")), deltas),
              "ratio");
  report->Set("storage.snapshot_write_s",
              pass.TotalSeconds("storage.write_snapshot"), "s");
  report->Set("storage.wal_bytes_per_delta",
              Ratio(static_cast<double>(Count(reg, "wal.append_bytes")),
                    static_cast<double>(Count(reg, "wal.appends"))),
              "bytes");
  report->Set("storage.snapshot_bytes",
              static_cast<double>(round.snapshot_bytes), "bytes");
  report->Set("storage.recover_replayed_records",
              static_cast<double>(round.replayed), "count");
  report->Set("storage.recover_s", Seconds(round.recover_ns), "s");
  report->Set("storage.bytes_per_user_byte", round.bytes_per_user_byte,
              "ratio");
  CheckRound(round, OracleBytes(sc, master_bytes, input_bytes, report),
             report);
}

}  // namespace perfbench
