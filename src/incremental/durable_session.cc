#include "incremental/durable_session.h"

#include <filesystem>
#include <string_view>
#include <utility>
#include <vector>

#include "rules/rule_parser.h"
#include "storage/io_util.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace certfix {

namespace {

constexpr char kManifestLine[] = "certfix-durable v1";

std::string ManifestText(uint64_t id) {
  return std::string(kManifestLine) + "\nsnapshot " + std::to_string(id) +
         "\n";
}

Result<uint64_t> ParseManifest(const std::string& text,
                               const std::string& dir) {
  std::vector<std::string> lines = Split(text, '\n');
  if (lines.size() < 2 || Trim(lines[0]) != kManifestLine) {
    return Status::ParseError("unrecognized MANIFEST in " + dir);
  }
  std::string_view snap = Trim(lines[1]);
  if (!StartsWith(snap, "snapshot ")) {
    return Status::ParseError("MANIFEST missing 'snapshot <N>' in " + dir);
  }
  size_t id = 0;
  if (!ParseSizeStrict(Trim(snap.substr(9)), &id)) {
    return Status::ParseError("bad snapshot id in MANIFEST: " +
                              std::string(snap));
  }
  return static_cast<uint64_t>(id);
}

}  // namespace

Result<std::unique_ptr<DurableSession>> DurableSession::Create(
    const std::string& dir, const RuleSet& rules, const Relation& master,
    const Relation& input, AttrSet trusted, DurableOptions options) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create session dir " + dir + ": " +
                            ec.message());
  }
  if (Exists(dir)) {
    return Status::AlreadyExists("durable session already present in " + dir);
  }

  std::unique_ptr<DurableSession> session(new DurableSession());
  session->dir_ = dir;
  session->options_ = options;
  session->rules_ = std::make_unique<RuleSet>(rules);
  session->trusted_ = trusted;
  session->engine_ = std::make_unique<DeltaRepairEngine>(
      *session->rules_, master, trusted, options.engine);
  CERTFIX_RETURN_IF_ERROR(session->engine_->Load(input));

  // Rules and the trusted set are immutable for the session's lifetime;
  // persist them once so Open() needs nothing but the directory.
  CERTFIX_RETURN_IF_ERROR(storage::WriteFileAtomic(
      dir + "/rules.rules", RulesToDsl(*session->rules_)));
  std::string trusted_text;
  for (AttrId id : trusted.ToVector()) {
    if (!trusted_text.empty()) trusted_text += ",";
    trusted_text += session->rules_->r_schema()->attr_name(id);
  }
  trusted_text += "\n";
  CERTFIX_RETURN_IF_ERROR(
      storage::WriteFileAtomic(dir + "/trusted", trusted_text));

  CERTFIX_RETURN_IF_ERROR(session->CommitGeneration(0));
  return session;
}

Result<std::unique_ptr<DurableSession>> DurableSession::Open(
    const std::string& dir, DurableOptions options) {
  CERTFIX_ASSIGN_OR_RETURN(std::string manifest,
                           storage::ReadFileBytes(dir + "/MANIFEST"));
  CERTFIX_ASSIGN_OR_RETURN(uint64_t id, ParseManifest(manifest, dir));

  std::unique_ptr<DurableSession> session(new DurableSession());
  session->dir_ = dir;
  session->options_ = options;
  session->snapshot_id_ = id;

  CERTFIX_ASSIGN_OR_RETURN(
      Relation master,
      storage::ReadColumnar(session->SnapshotPath(id, "master")));
  CERTFIX_ASSIGN_OR_RETURN(
      Relation input,
      storage::ReadColumnar(session->SnapshotPath(id, "input")));

  CERTFIX_ASSIGN_OR_RETURN(std::string rules_text,
                           storage::ReadFileBytes(dir + "/rules.rules"));
  CERTFIX_ASSIGN_OR_RETURN(
      RuleSet rules, ParseRules(rules_text, input.schema(), master.schema()));
  session->rules_ = std::make_unique<RuleSet>(std::move(rules));

  CERTFIX_ASSIGN_OR_RETURN(std::string trusted_text,
                           storage::ReadFileBytes(dir + "/trusted"));
  for (const std::string& name : Split(std::string(Trim(trusted_text)), ',')) {
    std::string_view trimmed = Trim(name);
    if (trimmed.empty()) continue;
    CERTFIX_ASSIGN_OR_RETURN(AttrId attr,
                             input.schema()->IndexOf(std::string(trimmed)));
    session->trusted_.Add(attr);
  }

  // Adopt the master by move: the engine takes its columns and pool
  // instead of copying it row by row.
  session->engine_ = std::make_unique<DeltaRepairEngine>(
      *session->rules_, std::move(master), session->trusted_, options.engine);
  CERTFIX_RETURN_IF_ERROR(session->engine_->Load(input));

  CERTFIX_ASSIGN_OR_RETURN(std::unique_ptr<storage::WalReader> reader,
                           storage::WalReader::Open(session->WalPath(id)));
  Delta delta;
  for (;;) {
    CERTFIX_ASSIGN_OR_RETURN(bool got, reader->Next(&delta));
    if (!got) break;
    // A delta the engine rejected at runtime was a deterministic no-op and
    // re-rejects identically here (see the file comment in the header).
    (void)session->engine_->Apply(delta);
  }
  session->recovery_.snapshot_id = id;
  session->recovery_.replayed_records = reader->records_read();
  session->recovery_.discarded_bytes = reader->discarded_bytes();

  // Reopen for append: truncates the torn tail (if any) so the next
  // accepted delta lands on a clean record boundary.
  uint64_t valid_records = 0;
  storage::WalWriterOptions wal_opts;
  wal_opts.sync_every_append = options.sync_every_append;
  CERTFIX_ASSIGN_OR_RETURN(
      session->wal_, storage::WalWriter::OpenForAppend(
                         session->WalPath(id), wal_opts, &valid_records));
  session->records_since_snapshot_ = valid_records;
  return session;
}

bool DurableSession::Exists(const std::string& dir) {
  std::error_code ec;
  return std::filesystem::exists(dir + "/MANIFEST", ec);
}

DurableSession::~DurableSession() {
  if (wal_ == nullptr) return;
  Status synced = wal_->Sync();
  if (!synced.ok()) {
    CERTFIX_LOG(kError) << "durable session " << dir_
                        << ": final WAL sync failed: " << synced.ToString();
  }
}

Status DurableSession::Apply(const Delta& delta) {
  CERTFIX_RETURN_IF_ERROR(failed_);
  // Append + fsync BEFORE touching the engine: a delta acknowledged to
  // the caller is always recoverable.
  Status appended = wal_->Append(delta);
  if (!appended.ok()) return FailStop(appended);
  ++records_since_snapshot_;
  Status verdict = engine_->Apply(delta);
  if (options_.snapshot_every > 0 &&
      records_since_snapshot_ >= options_.snapshot_every) {
    CERTFIX_RETURN_IF_ERROR(WriteSnapshot());
  }
  return verdict;
}

Status DurableSession::ApplyAll(DeltaSource* source) {
  CERTFIX_RETURN_IF_ERROR(failed_);
  Delta delta;
  for (;;) {
    CERTFIX_ASSIGN_OR_RETURN(bool got, source->Next(&delta));
    if (!got) return Status::OK();
    CERTFIX_RETURN_IF_ERROR(Apply(delta));
  }
}

Status DurableSession::WriteSnapshot() {
  CERTFIX_RETURN_IF_ERROR(failed_);
  uint64_t old = snapshot_id_;
  Status committed = CommitGeneration(old + 1);
  if (!committed.ok()) return FailStop(committed);
  // Past the manifest commit point: the old generation is dead weight.
  std::error_code ec;
  std::filesystem::remove(SnapshotPath(old, "master"), ec);
  std::filesystem::remove(SnapshotPath(old, "input"), ec);
  std::filesystem::remove(WalPath(old), ec);
  return Status::OK();
}

Status DurableSession::FailStop(const Status& error) {
  failed_ = error;
  return error;
}

Status DurableSession::CommitGeneration(uint64_t id) {
  engine_->Flush();
  CERTFIX_RETURN_IF_ERROR(
      storage::WriteColumnar(engine_->master(), SnapshotPath(id, "master")));
  CERTFIX_RETURN_IF_ERROR(storage::WriteColumnar(engine_->SnapshotInput(),
                                                 SnapshotPath(id, "input")));
  // Fresh empty WAL before the manifest flips: a reader at generation
  // `id` must never find the snapshot without its WAL. Replacing wal_
  // also closes the previous generation's descriptor.
  storage::WalWriterOptions wal_opts;
  wal_opts.sync_every_append = options_.sync_every_append;
  CERTFIX_ASSIGN_OR_RETURN(wal_,
                           storage::WalWriter::Create(WalPath(id), wal_opts));
  // Commit point: atomic rename inside WriteFileAtomic.
  CERTFIX_RETURN_IF_ERROR(
      storage::WriteFileAtomic(dir_ + "/MANIFEST", ManifestText(id)));
  snapshot_id_ = id;
  records_since_snapshot_ = 0;
  return Status::OK();
}

std::string DurableSession::SnapshotPath(uint64_t id,
                                         const char* which) const {
  return dir_ + "/snapshot-" + std::to_string(id) + "." + which + ".col";
}

std::string DurableSession::WalPath(uint64_t id) const {
  return dir_ + "/wal-" + std::to_string(id) + ".log";
}

}  // namespace certfix
