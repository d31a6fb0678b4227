#include "tools/cli.h"

#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>

#include "analysis/analyzer.h"
#include "core/batch_repair.h"
#include "core/dependency_graph.h"
#include "core/zproblems.h"
#include "core/cregion.h"
#include "incremental/delta_repair.h"
#include "incremental/durable_session.h"
#include "storage/wal.h"
#include "mining/rule_miner.h"
#include "relational/csv.h"
#include "relational/csv_stream.h"
#include "rules/rule_parser.h"
#include "stream/delta_source.h"
#include "stream/stream_repair.h"
#include "telemetry/clock.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/output_file.h"
#include "util/string_util.h"
#include "workload/scenario.h"

namespace certfix {

namespace {

struct ParsedArgs {
  std::map<std::string, std::string> flags;
  std::vector<std::string> errors;
};

/// One subcommand: its name, every flag it reads, and its entry point.
struct Command {
  std::string name;
  std::set<std::string> flags;
  int (*run)(const ParsedArgs&, std::ostream&, std::ostream&);
};

/// Flags that take no value; every other flag takes exactly one.
bool IsBoolFlag(const std::string& key) {
  static const char* const kBoolFlags[] = {
      "no-conditional",        "json",         "strict",
      "metrics-deterministic", "no-telemetry", "no-sync"};
  for (const char* flag : kBoolFlags) {
    if (key == flag) return true;
  }
  return false;
}

/// Parses `args` as `--flag [value]` pairs for `command`. A flag the
/// command does not read is an error, so a misspelt or retired flag
/// cannot be ignored without a word.
ParsedArgs ParseArgs(const Command& command,
                     const std::vector<std::string>& args) {
  ParsedArgs out;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (!StartsWith(a, "--")) {
      out.errors.push_back("unexpected positional argument: " + a);
      continue;
    }
    std::string key = a.substr(2);
    if (command.flags.count(key) == 0) {
      out.errors.push_back("unknown flag --" + key + " for " + command.name);
      // Skip what looks like its value, so one typo is one error.
      if (i + 1 < args.size() && !StartsWith(args[i + 1], "--")) ++i;
      continue;
    }
    if (IsBoolFlag(key)) {
      out.flags[key] = "true";
      continue;
    }
    if (i + 1 >= args.size()) {
      out.errors.push_back("flag --" + key + " needs a value");
      continue;
    }
    out.flags[key] = args[++i];
  }
  return out;
}

void Usage(std::ostream& err) {
  err << "usage: certfix "
         "<mine|analyze|check|repair|repair-stream|repair-deltas|"
         "snapshot|recover|workload gen> [flags]\n"
      << "  mine    --master M.csv [--max-lhs N] [--no-conditional]\n"
      << "  analyze --master M.csv --rules R.rules [--trusted a,b]\n"
      << "          [--json] [--strict] [--max-probes N]\n"
      << "  check   --master M.csv --rules R.rules --region a,b,c\n"
      << "  repair  --master M.csv --rules R.rules --input D.csv\n"
      << "          --trusted a,b [--output OUT.csv] [--threads N]\n"
      << "          [--analyze off|warn|strict] [telemetry flags]\n"
      << "  repair-stream\n"
      << "          --master M.csv --rules R.rules --input D.csv\n"
      << "          --trusted a,b [--output OUT.csv] [--threads N]\n"
      << "          [--analyze off|warn|strict] [telemetry flags]\n"
      << "  repair-deltas\n"
      << "          --master M.csv --rules R.rules --input D.csv\n"
      << "          --deltas D.deltas --trusted a,b [--output OUT.csv]\n"
      << "          [--threads N] [--analyze off|warn|strict]\n"
      << "          [telemetry flags]\n"
      << "          [--wal DIR] [--snapshot-every N] [--no-sync]\n"
      << "          (--wal persists state durably; with an existing DIR\n"
      << "           the session is recovered and --master/--rules/\n"
      << "           --input/--trusted are read from it; --deltas is\n"
      << "           then optional. --deltas accepts the CSV delta-log\n"
      << "           or binary WAL format.)\n"
      << "  snapshot --dir DIR [--threads N]\n"
      << "          (rotates a durable session to a fresh snapshot\n"
      << "           generation, emptying its WAL)\n"
      << "  recover --dir DIR [--output OUT.csv] [--threads N]\n"
      << "          [telemetry flags]\n"
      << "          (snapshot load + WAL replay; prints what recovery\n"
      << "           found and optionally writes the repaired relation)\n"
      << "  workload gen\n"
      << "          --spec S.toml --out-dir DIR [--prefix NAME]\n"
      << "          (writes NAME_master.csv, NAME_initial.csv,\n"
      << "           NAME.deltas, NAME.rules)\n"
      << "telemetry flags (repair commands):\n"
      << "  --metrics-json PATH       write a metrics-registry snapshot\n"
      << "  --trace-out PATH          write a Chrome/Perfetto trace\n"
      << "  --metrics-deterministic   zero all timings (golden-pinnable)\n"
      << "  --no-telemetry            skip clock reads on hot paths\n";
}

Result<Relation> LoadMaster(const ParsedArgs& args) {
  auto it = args.flags.find("master");
  if (it == args.flags.end()) {
    return Status::InvalidArgument("--master is required");
  }
  return ReadCsvFileInferSchema("Master", it->second);
}

Result<RuleSet> LoadRules(const ParsedArgs& args, const SchemaPtr& schema) {
  auto it = args.flags.find("rules");
  if (it == args.flags.end()) {
    return Status::InvalidArgument("--rules is required");
  }
  std::ifstream in(it->second);
  if (!in) return Status::NotFound("cannot open rules file: " + it->second);
  std::stringstream buf;
  buf << in.rdbuf();
  return ParseRules(buf.str(), schema, schema);
}

Result<std::vector<AttrId>> ResolveList(const SchemaPtr& schema,
                                        const std::string& csv) {
  std::vector<std::string> names;
  for (const std::string& part : Split(csv, ',')) {
    std::string t(Trim(part));
    if (!t.empty()) names.push_back(t);
  }
  if (names.empty()) {
    return Status::InvalidArgument("empty attribute list");
  }
  return schema->Resolve(names);
}

/// Parses an optional non-negative integer flag. 0 is a meaningful value
/// for size knobs (--threads 0 = all hardware threads), so a typo must
/// not silently parse to it.
bool ParseSizeFlag(const ParsedArgs& args, const char* flag, size_t* out,
                   std::ostream& err) {
  auto it = args.flags.find(flag);
  if (it == args.flags.end()) return true;
  const std::string& s = it->second;
  if (!ParseSizeStrict(s, out)) {
    err << "--" << flag << " needs a non-negative integer, got '" << s
        << "'\n";
    return false;
  }
  return true;
}

/// Parses the optional --analyze off|warn|strict flag shared by the
/// repair commands.
bool ParseAnalyzeFlag(const ParsedArgs& args, AnalyzeMode* mode,
                      std::ostream& err) {
  auto it = args.flags.find("analyze");
  if (it == args.flags.end() || it->second == "off") return true;
  if (it->second == "warn") {
    *mode = AnalyzeMode::kWarn;
  } else if (it->second == "strict") {
    *mode = AnalyzeMode::kStrict;
  } else {
    err << Status::InvalidArgument("unknown analyze mode '" + it->second +
                                   "' (expected off|warn|strict)")
        << "\n";
    return false;
  }
  return true;
}

int CmdMine(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  Result<Relation> master = LoadMaster(args);
  if (!master.ok()) {
    err << master.status() << "\n";
    return 2;
  }
  RuleMinerOptions options;
  if (!ParseSizeFlag(args, "max-lhs", &options.max_lhs, err)) return 1;
  if (args.flags.count("no-conditional") > 0) {
    options.mine_conditional = false;
  }
  RuleMiner miner(*master, options);
  Result<RuleSet> rules =
      miner.MineRules(master->schema(), master->schema());
  if (!rules.ok()) {
    err << rules.status() << "\n";
    return 2;
  }
  out << "# " << rules->size() << " rules mined from "
      << master->size() << " master rows\n";
  for (const EditingRule& rule : *rules) out << RuleToDsl(rule) << "\n";
  return 0;
}

int CmdAnalyze(const ParsedArgs& args, std::ostream& out,
               std::ostream& err) {
  const bool json = args.flags.count("json") > 0;
  const bool strict = args.flags.count("strict") > 0;
  Result<Relation> master = LoadMaster(args);
  if (!master.ok()) {
    err << master.status() << "\n";
    return 2;
  }
  Result<RuleSet> rules = LoadRules(args, master->schema());
  if (!rules.ok()) {
    // An unreadable file stays a plain error; a ruleset that *parsed
    // wrong* becomes a diagnostic so --json consumers see one format.
    if (rules.status().code() == StatusCode::kNotFound &&
        rules.status().message().rfind("cannot open", 0) == 0) {
      err << rules.status() << "\n";
      return 2;
    }
    RulesetReport report;
    Diagnostic d;
    // ParseRules rewraps every failure as kParseError with a "line N:"
    // prefix, so the unknown-attribute case is recognized by the
    // Schema::Resolve message it carries.
    d.kind = rules.status().code() == StatusCode::kNotFound ||
                     rules.status().message().find("has no attribute") !=
                         std::string::npos
                 ? DiagnosticKind::kUnknownAttribute
                 : DiagnosticKind::kParseError;
    d.severity = DiagnosticSeverity::kError;
    d.message = rules.status().message();
    report.diagnostics.push_back(std::move(d));
    if (json) {
      out << report.ToJson();
    } else {
      out << report.ToText();
    }
    return 2;
  }

  AttrSet trusted = RulesetAnalyzer::DefaultTrusted(*rules);
  if (auto it = args.flags.find("trusted"); it != args.flags.end()) {
    Result<std::vector<AttrId>> z = ResolveList(master->schema(), it->second);
    if (!z.ok()) {
      err << z.status() << "\n";
      return 2;
    }
    trusted = AttrSet::FromVector(*z);
  }
  AnalyzeOptions options;
  if (!ParseSizeFlag(args, "max-probes", &options.max_probes, err)) {
    return 1;
  }

  RulesetAnalyzer analyzer(*rules, master->schema());
  RulesetReport report = analyzer.Analyze(&*master, trusted, options);
  if (json) {
    out << report.ToJson();
    return strict && !report.ok() ? 2 : 0;
  }

  MasterIndex index(*rules, *master);
  Saturator sat(*rules, *master, index);
  RegionFinder finder(sat);
  DependencyGraph graph(*rules);

  out << "rules: " << rules->size() << ", master rows: " << master->size()
      << "\n";
  out << "dependency graph " << (graph.HasCycle() ? "(cyclic)" : "(acyclic)")
      << ":\n"
      << graph.ToDot();
  ZProblems z(sat);
  out << "attributes only the user can certify:";
  for (AttrId a : z.ForcedAttrs().ToVector()) {
    out << " " << master->schema()->attr_name(a);
  }
  out << "\nCompCRegion Z:";
  for (AttrId a : finder.CompCRegionZ()) {
    out << " " << master->schema()->attr_name(a);
  }
  out << "\nGRegion Z    :";
  for (AttrId a : finder.GRegionZ()) {
    out << " " << master->schema()->attr_name(a);
  }
  out << "\n\n" << report.ToText();
  return strict && !report.ok() ? 2 : 0;
}

int CmdCheck(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  Result<Relation> master = LoadMaster(args);
  if (!master.ok()) {
    err << master.status() << "\n";
    return 2;
  }
  Result<RuleSet> rules = LoadRules(args, master->schema());
  if (!rules.ok()) {
    err << rules.status() << "\n";
    return 2;
  }
  auto it = args.flags.find("region");
  if (it == args.flags.end()) {
    err << "--region is required\n";
    return 1;
  }
  Result<std::vector<AttrId>> z = ResolveList(master->schema(), it->second);
  if (!z.ok()) {
    err << z.status() << "\n";
    return 2;
  }
  MasterIndex index(*rules, *master);
  Saturator sat(*rules, *master, index);
  RegionFinder finder(sat);
  double coverage = 0.0;
  CRegionOptions options;
  Region region = finder.BuildRegion(*z, options, &coverage);
  out << "region Z = {" << it->second << "}: " << region.tableau().size()
      << " validated pattern rows; " << static_cast<int>(coverage * 100)
      << "% of sampled master tuples admit a certain fix\n";
  if (region.tableau().empty()) {
    out << "NOT a usable certain region (no pattern row validates)\n";
    return 2;
  }
  out << "certain region: yes (for the validated rows)\n";
  return 0;
}

/// Per-command telemetry scope shared by the repair commands. Gives the
/// command a fresh registry (RunCli is called many times in-process by
/// tests; counters must not bleed across commands), applies
/// --metrics-deterministic / --no-telemetry, and turns the tracer on
/// when --trace-out asks for a trace. Member order matters: the
/// registry is declared first so it is destroyed last, after every
/// engine that recorded into it.
struct TelemetryScope {
  explicit TelemetryScope(const ParsedArgs& args)
      : fake_clock(args.flags.count("metrics-deterministic") > 0),
        enabled(args.flags.count("no-telemetry") == 0) {
    if (args.flags.count("trace-out") > 0) {
      telemetry::Tracer::Global().Enable();
    }
  }
  ~TelemetryScope() { telemetry::Tracer::Global().Disable(); }
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

  telemetry::ScopedRegistry registry;
  telemetry::ScopedFakeClock fake_clock;
  telemetry::ScopedEnabled enabled;
};

/// True when `path` names the file this process's stdout writes to:
/// /dev/stdout, or the file stdout is redirected to.
bool IsStdout(const std::string& path) {
  struct stat file, stdout_file;
  return ::stat(path.c_str(), &file) == 0 &&
         ::fstat(STDOUT_FILENO, &stdout_file) == 0 &&
         file.st_dev == stdout_file.st_dev &&
         file.st_ino == stdout_file.st_ino;
}

/// \brief An output file a command was asked for (--output,
/// --metrics-json, --trace-out). A path naming the command's own stdout
/// is written through `out`, in order with the lines the command prints
/// there. Opened again, it would be written from offset 0 through a file
/// description of its own, and the lines flushed through stdout later
/// would overwrite it. Any other path is an OutputFile.
class CommandOutput {
 public:
  CommandOutput(const std::string& path, std::ostream& out)
      : path_(path), out_(IsStdout(path) ? &out : nullptr) {
    if (out_ == nullptr) file_.emplace(path);
  }

  std::ostream& stream() { return out_ != nullptr ? *out_ : file_->stream(); }
  /// Writes `bytes` (for a file, checked at once: OutputFile::Write).
  Status Write(const std::string& bytes) {
    if (file_.has_value()) return file_->Write(bytes);
    *out_ << bytes;
    return Status::OK();
  }
  /// OutputFile::Commit for a file; for stdout, a checked flush of `out`.
  Status Commit() {
    if (file_.has_value()) return file_->Commit();
    if (!out_->flush()) return Status::Internal("cannot write " + path_);
    return Status::OK();
  }

 private:
  std::string path_;
  std::ostream* out_;  ///< the command's stdout, or null for a file
  std::optional<OutputFile> file_;
};

/// Writes `bytes` to `path` through a CommandOutput.
Status WriteOutput(const std::string& path, const std::string& bytes,
                   std::ostream& out) {
  CommandOutput file(path, out);
  CERTFIX_RETURN_IF_ERROR(file.Write(bytes));
  return file.Commit();
}

/// Writes `rel` as CSV to `path` through a CommandOutput.
Status WriteCsvOutput(const Relation& rel, const std::string& path,
                      std::ostream& out) {
  CommandOutput file(path, out);
  (void)WriteCsv(rel, file.stream());  // a failed write fails the commit
  return file.Commit();
}

/// Writes --metrics-json and --trace-out files if requested. Called on
/// every command exit path that ran the engine (a conflict exit still
/// has metrics worth keeping). Returns 0, or 2 on a write failure.
int DumpTelemetry(const ParsedArgs& args, std::ostream& out,
                  std::ostream& err) {
  Status st;
  if (auto it = args.flags.find("metrics-json"); it != args.flags.end()) {
    st = WriteOutput(it->second, telemetry::Registry::Global()->ToJson(), out);
  }
  if (auto it = args.flags.find("trace-out");
      st.ok() && it != args.flags.end()) {
    st = WriteOutput(it->second, telemetry::Tracer::Global().ExportJson(),
                     out);
  }
  if (st.ok()) return 0;
  err << st << "\n";
  return 2;
}

/// Prints the line every repair command opens its summary with.
void PrintTally(std::ostream& out, uint64_t rows, const RepairTally& t) {
  out << "rows: " << rows << "  fully covered: " << t.fully_covered
      << "  partial: " << t.partial << "  untouched: " << t.untouched
      << "  conflicts: " << t.conflicting
      << "  cells changed: " << t.cells_changed << "\n";
}

/// Setup both repair commands share: master data, rules, the input
/// path, and the resolved trusted attribute set.
struct RepairSetup {
  Relation master;
  RuleSet rules;
  std::string input_path;
  AttrSet trusted;
};

/// Runs the --analyze gate on (rules, master, trusted) before any engine
/// is built. Returns 0 to proceed, else 2 (after printing the refusal).
int GateRepair(const RuleSet& rules, const Relation& master, AttrSet trusted,
               AnalyzeMode mode, std::ostream& err) {
  Status gate = GateRuleset(rules, master, trusted, mode);
  if (gate.ok()) return 0;
  err << gate << "\n";
  return 2;
}

/// Loads the common repair inputs (--master, --rules, --input,
/// --trusted) and passes them through the --analyze gate. Returns 0 on
/// success, else the command's exit code (after printing to `err`).
int LoadRepairSetup(const ParsedArgs& args, AnalyzeMode mode,
                    std::ostream& err, RepairSetup* setup) {
  Result<Relation> master = LoadMaster(args);
  if (!master.ok()) {
    err << master.status() << "\n";
    return 2;
  }
  Result<RuleSet> rules = LoadRules(args, master->schema());
  if (!rules.ok()) {
    err << rules.status() << "\n";
    return 2;
  }
  auto input_it = args.flags.find("input");
  auto trusted_it = args.flags.find("trusted");
  if (input_it == args.flags.end() || trusted_it == args.flags.end()) {
    err << "--input and --trusted are required\n";
    return 1;
  }
  Result<std::vector<AttrId>> trusted =
      ResolveList(master->schema(), trusted_it->second);
  if (!trusted.ok()) {
    err << trusted.status() << "\n";
    return 2;
  }
  setup->master = std::move(master).ValueOrDie();
  setup->rules = std::move(rules).ValueOrDie();
  setup->input_path = input_it->second;
  setup->trusted = AttrSet::FromVector(*trusted);
  return GateRepair(setup->rules, setup->master, setup->trusted, mode, err);
}

int CmdRepair(const ParsedArgs& args, std::ostream& out,
              std::ostream& err) {
  TelemetryScope telemetry_scope(args);
  RepairOptions options;
  AnalyzeMode mode = AnalyzeMode::kOff;
  if (!ParseSizeFlag(args, "threads", &options.num_threads, err) ||
      !ParseAnalyzeFlag(args, &mode, err)) {
    return 1;
  }
  RepairSetup setup;
  if (int code = LoadRepairSetup(args, mode, err, &setup); code != 0) {
    return code;
  }
  Result<Relation> input = [&] {
    CERTFIX_SPAN("batch.ingest");
    return ReadCsvFile(setup.master.schema(), setup.input_path);
  }();
  if (!input.ok()) {
    err << input.status() << "\n";
    return 2;
  }
  MasterIndex index(setup.rules, setup.master);
  Saturator sat(setup.rules, setup.master, index);
  BatchRepairResult result =
      BatchRepair(sat, options).Repair(*input, setup.trusted);
  PrintTally(out, input->size(), result);
  out << "memo hits: " << result.memo_hits
      << "  memo misses: " << result.memo_misses << "\n";
  auto output_it = args.flags.find("output");
  if (output_it != args.flags.end()) {
    CERTFIX_SPAN("batch.sink");
    Status st = WriteCsvOutput(result.repaired, output_it->second, out);
    if (!st.ok()) {
      err << st << "\n";
      return 2;
    }
    out << "repaired relation written to " << output_it->second << "\n";
  }
  if (int code = DumpTelemetry(args, out, err); code != 0) return code;
  return result.conflicting == 0 ? 0 : 2;
}

int CmdRepairStream(const ParsedArgs& args, std::ostream& out,
                    std::ostream& err) {
  TelemetryScope telemetry_scope(args);
  StreamOptions options;
  AnalyzeMode mode = AnalyzeMode::kOff;
  if (!ParseSizeFlag(args, "threads", &options.num_shards, err) ||
      !ParseAnalyzeFlag(args, &mode, err)) {
    return 1;
  }
  RepairSetup setup;
  if (int code = LoadRepairSetup(args, mode, err, &setup); code != 0) {
    return code;
  }
  std::ifstream in(setup.input_path);
  if (!in) {
    err << Status::NotFound("cannot open file: " + setup.input_path) << "\n";
    return 2;
  }

  MasterIndex index(setup.rules, setup.master);
  Saturator sat(setup.rules, setup.master, index);
  CsvTupleSource source(setup.master.schema(), in);

  // Rows stream into the output as they are repaired; a file output
  // replaces its path only once the whole stream made it out.
  std::unique_ptr<CommandOutput> file;
  std::unique_ptr<StreamSink> sink;
  auto output_it = args.flags.find("output");
  if (output_it != args.flags.end()) {
    file = std::make_unique<CommandOutput>(output_it->second, out);
    if (!file->stream()) {
      err << file->Commit() << "\n";  // the open error
      return 2;
    }
    sink = std::make_unique<CsvStreamSink>(setup.master.schema(),
                                           file->stream());
  } else {
    sink = std::make_unique<NullSink>();
  }

  StreamRepairEngine engine(sat, setup.trusted, sink.get(), options);
  std::vector<std::string> fields;
  for (;;) {
    Result<bool> got = source.Next(&fields);
    if (!got.ok()) {
      err << got.status() << "\n";
      return 2;
    }
    if (!*got) break;
    Status st = engine.PushStrings(fields);
    if (!st.ok()) {
      err << st << "\n";
      // A refused push usually means a shard worker died; Finish()
      // rethrows its exception — surface the root cause, not just the
      // generic push error.
      try {
        engine.Finish();
      } catch (const std::exception& e) {
        err << "stream worker failed: " << e.what() << "\n";
      }
      return 2;
    }
  }
  StreamSnapshot s;
  try {
    s = engine.Finish();
  } catch (const std::exception& e) {
    err << "stream worker failed: " << e.what() << "\n";
    return 2;
  }
  if (file != nullptr) {
    if (Status st = file->Commit(); !st.ok()) {
      err << st << "\n";
      return 2;
    }
  }
  PrintTally(out, s.tuples_out, s);
  out << "shards: " << engine.num_shards()
      << "  backpressure waits: " << s.backpressure_waits
      << "  memo hits: " << s.memo_hits
      << "  memo misses: " << s.memo_misses << "\n";
  if (output_it != args.flags.end()) {
    out << "repaired relation written to " << output_it->second << "\n";
  }
  if (int code = DumpTelemetry(args, out, err); code != 0) return code;
  return s.conflicting == 0 ? 0 : 2;
}

int CmdRepairDeltas(const ParsedArgs& args, std::ostream& out,
                    std::ostream& err) {
  TelemetryScope telemetry_scope(args);
  DeltaRepairOptions options;
  AnalyzeMode mode = AnalyzeMode::kOff;
  if (!ParseSizeFlag(args, "threads", &options.num_shards, err) ||
      !ParseAnalyzeFlag(args, &mode, err)) {
    return 1;
  }

  auto wal_it = args.flags.find("wal");
  auto deltas_it = args.flags.find("deltas");
  if (deltas_it == args.flags.end() && wal_it == args.flags.end()) {
    err << "--deltas is required (unless recovering via --wal)\n";
    return 1;
  }
  DurableOptions durable;
  durable.engine = options;
  if (!ParseSizeFlag(args, "snapshot-every", &durable.snapshot_every, err)) {
    return 1;
  }
  durable.sync_every_append = args.flags.count("no-sync") == 0;

  // Lifetime note: a plain (non-durable) engine borrows setup.rules, so
  // setup must outlive it.
  RepairSetup setup;
  std::unique_ptr<DurableSession> session;
  std::unique_ptr<DeltaRepairEngine> owned_engine;
  DeltaRepairStats stats;
  try {
    if (wal_it != args.flags.end() &&
        DurableSession::Exists(wal_it->second)) {
      Result<std::unique_ptr<DurableSession>> opened =
          DurableSession::Open(wal_it->second, durable);
      if (!opened.ok()) {
        err << opened.status() << "\n";
        return 2;
      }
      session = std::move(opened).ValueOrDie();
      if (int code = GateRepair(session->rules(), session->engine().master(),
                                session->trusted(), mode, err);
          code != 0) {
        return code;
      }
      const RecoveryInfo& rec = session->recovery();
      out << "recovered " << wal_it->second << ": snapshot "
          << rec.snapshot_id << "  replayed: " << rec.replayed_records
          << "  discarded bytes: " << rec.discarded_bytes << "\n";
    } else {
      if (int code = LoadRepairSetup(args, mode, err, &setup); code != 0) {
        return code;
      }
      Result<Relation> input =
          ReadCsvFile(setup.master.schema(), setup.input_path);
      if (!input.ok()) {
        err << input.status() << "\n";
        return 2;
      }
      if (wal_it != args.flags.end()) {
        Result<std::unique_ptr<DurableSession>> created =
            DurableSession::Create(wal_it->second, setup.rules, setup.master,
                                   *input, setup.trusted, durable);
        if (!created.ok()) {
          err << created.status() << "\n";
          return 2;
        }
        session = std::move(created).ValueOrDie();
      } else {
        owned_engine = std::make_unique<DeltaRepairEngine>(
            setup.rules, setup.master, setup.trusted, options);
        if (Status st = owned_engine->Load(*input); !st.ok()) {
          err << st << "\n";
          return 2;
        }
      }
    }
    DeltaRepairEngine& engine =
        session != nullptr ? session->engine() : *owned_engine;
    if (deltas_it != args.flags.end()) {
      const RuleSet& rules = session != nullptr ? session->rules()
                                                : setup.rules;
      Result<std::unique_ptr<DeltaSource>> source = storage::OpenDeltaLog(
          rules.r_schema(), rules.rm_schema(), deltas_it->second);
      if (!source.ok()) {
        err << source.status() << "\n";
        return 2;
      }
      Status st = session != nullptr ? session->ApplyAll(source->get())
                                     : engine.ApplyAll(source->get());
      if (!st.ok()) {
        err << st << "\n";
        return 2;
      }
    }
    stats = engine.stats();
  } catch (const std::exception& e) {
    err << "delta engine worker failed: " << e.what() << "\n";
    return 2;
  }
  DeltaRepairEngine& engine =
      session != nullptr ? session->engine() : *owned_engine;
  if (session != nullptr) {
    out << "wal: " << session->dir() << "  snapshot: "
        << session->snapshot_id() << "  pending deltas: "
        << session->records_since_snapshot() << "\n";
  }
  PrintTally(out, stats.rows, stats);
  out << "deltas: " << stats.deltas_applied
      << "  repairs: " << stats.tuples_repaired
      << "  invalidated: " << stats.tuples_invalidated
      << "  rebuilds: " << stats.master_rebuilds
      << "  no-op updates: " << stats.noop_updates
      << "  shards: " << engine.num_shards()
      << "  memo hits: " << stats.memo_hits
      << "  memo misses: " << stats.memo_misses << "\n";
  auto output_it = args.flags.find("output");
  if (output_it != args.flags.end()) {
    Status st =
        WriteCsvOutput(engine.SnapshotRepaired(), output_it->second, out);
    if (!st.ok()) {
      err << st << "\n";
      return 2;
    }
    out << "repaired relation written to " << output_it->second << "\n";
  }
  if (int code = DumpTelemetry(args, out, err); code != 0) return code;
  return stats.conflicting == 0 ? 0 : 2;
}

int CmdSnapshot(const ParsedArgs& args, std::ostream& out,
                std::ostream& err) {
  auto dir_it = args.flags.find("dir");
  if (dir_it == args.flags.end()) {
    err << "--dir is required\n";
    return 1;
  }
  DurableOptions durable;
  if (!ParseSizeFlag(args, "threads", &durable.engine.num_shards, err)) {
    return 1;
  }
  try {
    Result<std::unique_ptr<DurableSession>> opened =
        DurableSession::Open(dir_it->second, durable);
    if (!opened.ok()) {
      err << opened.status() << "\n";
      return 2;
    }
    std::unique_ptr<DurableSession> session = std::move(opened).ValueOrDie();
    if (Status st = session->WriteSnapshot(); !st.ok()) {
      err << st << "\n";
      return 2;
    }
    out << "snapshot generation " << session->snapshot_id()
        << " committed in " << dir_it->second << "\n";
  } catch (const std::exception& e) {
    err << "delta engine worker failed: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

int CmdRecover(const ParsedArgs& args, std::ostream& out,
               std::ostream& err) {
  TelemetryScope telemetry_scope(args);
  auto dir_it = args.flags.find("dir");
  if (dir_it == args.flags.end()) {
    err << "--dir is required\n";
    return 1;
  }
  DurableOptions durable;
  if (!ParseSizeFlag(args, "threads", &durable.engine.num_shards, err)) {
    return 1;
  }
  DeltaRepairStats stats;
  std::unique_ptr<DurableSession> session;
  try {
    Result<std::unique_ptr<DurableSession>> opened =
        DurableSession::Open(dir_it->second, durable);
    if (!opened.ok()) {
      err << opened.status() << "\n";
      return 2;
    }
    session = std::move(opened).ValueOrDie();
    stats = session->engine().stats();
  } catch (const std::exception& e) {
    err << "delta engine worker failed: " << e.what() << "\n";
    return 2;
  }
  const RecoveryInfo& rec = session->recovery();
  out << "recovered " << dir_it->second << ": snapshot " << rec.snapshot_id
      << "  replayed: " << rec.replayed_records
      << "  discarded bytes: " << rec.discarded_bytes << "\n";
  PrintTally(out, stats.rows, stats);
  if (auto output_it = args.flags.find("output");
      output_it != args.flags.end()) {
    Status st = WriteCsvOutput(session->engine().SnapshotRepaired(),
                               output_it->second, out);
    if (!st.ok()) {
      err << st << "\n";
      return 2;
    }
    out << "repaired relation written to " << output_it->second << "\n";
  }
  if (int code = DumpTelemetry(args, out, err); code != 0) return code;
  return stats.conflicting == 0 ? 0 : 2;
}

int CmdWorkloadGen(const ParsedArgs& args, std::ostream& out,
                   std::ostream& err) {
  auto spec_it = args.flags.find("spec");
  auto dir_it = args.flags.find("out-dir");
  if (spec_it == args.flags.end() || dir_it == args.flags.end()) {
    err << "--spec and --out-dir are required\n";
    return 1;
  }
  Result<ScenarioSpec> spec = LoadScenarioSpecFile(spec_it->second);
  if (!spec.ok()) {
    err << spec.status() << "\n";
    return 2;
  }
  Result<Scenario> scenario = GenerateScenario(*spec);
  if (!scenario.ok()) {
    err << scenario.status() << "\n";
    return 2;
  }
  std::string prefix = scenario->spec.name;
  if (auto it = args.flags.find("prefix"); it != args.flags.end()) {
    prefix = it->second;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir_it->second, ec);
  if (ec) {
    err << "cannot create " << dir_it->second << ": " << ec.message() << "\n";
    return 2;
  }
  std::string base = dir_it->second + "/" + prefix;
  if (Status st = WriteCsvFile(scenario->master, base + "_master.csv");
      !st.ok()) {
    err << st << "\n";
    return 2;
  }
  if (Status st = WriteCsvFile(scenario->initial, base + "_initial.csv");
      !st.ok()) {
    err << st << "\n";
    return 2;
  }
  // The ruleset the scenario was generated against, in the DSL
  // rule_parser.h reads back — so a generated scenario is runnable with
  // the CLI repair commands without hand-writing rules.
  std::string rules_text;
  for (const EditingRule& rule : scenario->rules) {
    rules_text += RuleToDsl(rule) + "\n";
  }
  if (Status st = WriteFile(base + ".deltas", DeltaLogToString(*scenario));
      !st.ok()) {
    err << st << "\n";
    return 2;
  }
  if (Status st = WriteFile(base + ".rules", rules_text); !st.ok()) {
    err << st << "\n";
    return 2;
  }
  std::string trusted_csv;
  for (const std::string& name : scenario->trusted_names) {
    if (!trusted_csv.empty()) trusted_csv += ",";
    trusted_csv += name;
  }
  out << "scenario: " << scenario->spec.name << "  workload: "
      << scenario->spec.workload << "  seed: " << scenario->spec.seed << "\n";
  out << "master rows: " << scenario->master.size()
      << "  initial rows: " << scenario->initial.size()
      << "  deltas: " << scenario->deltas.size() << "\n";
  out << "trusted: " << trusted_csv << "\n";
  out << "wrote " << base << "_master.csv, " << base << "_initial.csv, "
      << base << ".deltas, " << base << ".rules\n";
  return 0;
}

const std::vector<Command>& Commands() {
  static const std::vector<Command>* const kCommands = [] {
    // The engine-running commands also take the telemetry flags
    // (TelemetryScope, DumpTelemetry).
    auto with_telemetry = [](std::set<std::string> flags) {
      flags.insert({"metrics-json", "trace-out", "metrics-deterministic",
                    "no-telemetry"});
      return flags;
    };
    return new std::vector<Command>{
        {"mine", {"master", "max-lhs", "no-conditional"}, CmdMine},
        {"analyze",
         {"master", "rules", "trusted", "json", "strict", "max-probes"},
         CmdAnalyze},
        {"check", {"master", "rules", "region"}, CmdCheck},
        {"repair",
         with_telemetry({"master", "rules", "input", "trusted", "output",
                         "threads", "analyze"}),
         CmdRepair},
        {"repair-stream",
         with_telemetry({"master", "rules", "input", "trusted", "output",
                         "threads", "analyze"}),
         CmdRepairStream},
        {"repair-deltas",
         with_telemetry({"master", "rules", "input", "trusted", "output",
                         "deltas", "threads", "analyze", "wal",
                         "snapshot-every", "no-sync"}),
         CmdRepairDeltas},
        {"snapshot", {"dir", "threads"}, CmdSnapshot},
        {"recover", with_telemetry({"dir", "output", "threads"}),
         CmdRecover},
        {"workload gen", {"spec", "out-dir", "prefix"}, CmdWorkloadGen},
    };
  }();
  return *kCommands;
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  if (args.empty()) {
    err << "error: missing subcommand\n";
    Usage(err);
    return 1;
  }
  // `workload` takes a positional subcommand before the flags.
  std::string name = args[0];
  size_t first_flag = 1;
  if (name == "workload") {
    if (args.size() < 2 || args[1] != "gen") {
      err << "usage: certfix workload gen --spec S.toml --out-dir DIR"
             " [--prefix NAME]\n";
      return 1;
    }
    name = "workload gen";
    first_flag = 2;
  }
  const Command* command = nullptr;
  for (const Command& c : Commands()) {
    if (c.name == name) command = &c;
  }
  if (command == nullptr) {
    err << "unknown subcommand: " << name << "\n";
    Usage(err);
    return 1;
  }
  ParsedArgs parsed = ParseArgs(
      *command,
      std::vector<std::string>(args.begin() + first_flag, args.end()));
  if (!parsed.errors.empty()) {
    for (const std::string& e : parsed.errors) err << "error: " << e << "\n";
    Usage(err);
    return 1;
  }
  return command->run(parsed, out, err);
}

}  // namespace certfix
