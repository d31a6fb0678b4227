#include "core/repair_memo.h"

#include <algorithm>

namespace certfix {

RepairMemo::RepairMemo(const RuleSet& rules, AttrSet trusted)
    : trusted_(trusted) {
  AttrSet relevant;
  for (const EditingRule& rule : rules) {
    relevant = relevant.Union(rule.premise_set());
    relevant.Add(rule.rhs());
  }
  relevant_ = relevant.ToVector();
  table_.Reset(relevant_.size());
}

void RepairMemo::ProjectKey(const Tuple& row, IdKey* out) const {
  out->clear();
  for (AttrId a : relevant_) out->push_back(row.id_at(a));
}

const RepairMemo::Entry* RepairMemo::Find(const Tuple& row) {
  thread_local IdKey key;
  ProjectKey(row, &key);
  const uint32_t slot = table_.Find(key.data());
  return slot == FlatIdTable::kNotFound ? nullptr : &entries_[slot];
}

void RepairMemo::Prefetch(const Tuple& row) const {
  thread_local IdKey key;
  ProjectKey(row, &key);
  table_.Prefetch(table_.Hash(key.data()));
}

void RepairMemo::Insert(const Tuple& row, const TupleRepair& repair,
                        const ProbeLog& probes) {
  if (live_entries_ >= kMaxEntries) Clear();
  thread_local IdKey key;
  ProjectKey(row, &key);

  Entry entry;
  entry.report = repair.report;
  entry.key = key;
  if (!repair.report.conflicting()) {
    for (AttrId a : row.DiffAttrs(repair.fixed)) {
      entry.changed.emplace_back(a, repair.fixed.at(a));
    }
  }
  entry.probes = probes.hashes;
  std::sort(entry.probes.begin(), entry.probes.end());
  entry.probes.erase(std::unique(entry.probes.begin(), entry.probes.end()),
                     entry.probes.end());

  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
  } else {
    slot = static_cast<uint32_t>(entries_.size());
  }
  const uint32_t got = table_.InsertOrGet(key.data(), slot);
  if (got != slot) return;  // already memoized (Find raced a re-insert)
  if (!free_slots_.empty()) {
    free_slots_.pop_back();
  } else {
    entries_.emplace_back();
  }
  for (uint64_t h : entry.probes) probe_to_entries_[h].push_back(slot);
  entries_[slot] = std::move(entry);
  ++live_entries_;
}

TupleRepair RepairMemo::Replay(const Entry& entry, const Tuple& row) const {
  TupleRepair out;
  out.report = entry.report;
  out.memo_hit = true;
  if (entry.report.conflicting()) return out;  // fixed stays empty
  Tuple fixed = row;
  for (const std::pair<AttrId, Value>& cell : entry.changed) {
    fixed.Set(cell.first, cell.second);
  }
  out.fixed = std::move(fixed);
  return out;
}

void RepairMemo::EraseEntry(uint32_t slot) {
  Entry& entry = entries_[slot];
  table_.Erase(entry.key.data());
  for (uint64_t h : entry.probes) {
    auto it = probe_to_entries_.find(h);
    if (it == probe_to_entries_.end()) continue;
    std::vector<uint32_t>& slots = it->second;
    slots.erase(std::remove(slots.begin(), slots.end(), slot), slots.end());
    if (slots.empty()) probe_to_entries_.erase(it);
  }
  entry = Entry();
  free_slots_.push_back(slot);
  --live_entries_;
}

void RepairMemo::FlushProbes(const std::vector<uint64_t>& hashes) {
  for (uint64_t h : hashes) {
    auto it = probe_to_entries_.find(h);
    if (it == probe_to_entries_.end()) continue;
    // EraseEntry edits the reverse lists (including this one): work off
    // a copy.
    std::vector<uint32_t> slots = it->second;
    for (uint32_t slot : slots) EraseEntry(slot);
  }
}

void RepairMemo::Clear() {
  table_.Reset(relevant_.size());
  entries_.clear();
  free_slots_.clear();
  probe_to_entries_.clear();
  live_entries_ = 0;
}

}  // namespace certfix
