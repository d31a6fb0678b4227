#include "core/repair_memo.h"

#include <algorithm>

namespace certfix {

RepairMemo::RepairMemo(const RuleSet& rules, AttrSet trusted)
    : relevant_(rules.MentionedAttrs().ToVector()), trusted_(trusted) {
  table_.Reset(relevant_.size());
}

bool RepairMemo::FindKey(const IdRow& row, IdKey* key) const {
  key->resize(relevant_.size());
  for (size_t k = 0; k < relevant_.size(); ++k) {
    ValueId id = row.id_at(relevant_[k]);
    if (id == kInvalidValueId) {
      auto it = local_ids_.find(row.at(relevant_[k]));
      if (it == local_ids_.end()) return false;
      id = it->second;
    }
    (*key)[k] = id;
  }
  return true;
}

const RepairMemo::Entry* RepairMemo::Find(const IdRow& row) const {
  thread_local IdKey key;
  if (!FindKey(row, &key)) return nullptr;
  const uint32_t slot = table_.Find(key.data());
  return slot == FlatIdTable::kNotFound ? nullptr : &entries_[slot];
}

void RepairMemo::Prefetch(const IdRow& row) const {
  thread_local IdKey key;
  if (FindKey(row, &key)) table_.Prefetch(table_.Hash(key.data()));
}

void RepairMemo::Insert(const IdRow& row, const TupleRepair& repair,
                        const ProbeLog& probes) {
  // Room for the entry and for each value this row may add to the
  // dictionary.
  size_t fresh = 0;
  for (AttrId a : relevant_) fresh += row.id_at(a) == kInvalidValueId;
  if (live_entries_ + local_ids_.size() + fresh + 1 > kMaxEntries) Clear();
  IdKey key(relevant_.size());
  for (size_t k = 0; k < relevant_.size(); ++k) {
    key[k] = row.id_at(relevant_[k]);
    if (key[k] == kInvalidValueId) {
      const ValueId local =
          kInvalidValueId - 1 - static_cast<ValueId>(local_ids_.size());
      key[k] = local_ids_.emplace(row.at(relevant_[k]), local).first->second;
    }
  }

  Entry entry;
  entry.report = repair.report;
  entry.key = key;
  entry.changed = repair.changed;
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
  local_ids_.clear();
}

}  // namespace certfix
