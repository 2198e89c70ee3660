#include "storage/relation.h"

#include <algorithm>

namespace exdl {

namespace {

// Open-addressing tables rehash at 7/8 load and start small; relations
// routinely hold a handful of tuples (boolean predicates, magic seeds).
constexpr size_t kMinSlots = 16;

size_t NextPow2(size_t n) {
  size_t p = kMinSlots;
  while (p < n) p <<= 1;
  return p;
}

bool NeedsGrow(size_t entries, size_t slot_count) {
  return (entries + 1) * 8 >= slot_count * 7;
}

}  // namespace

uint32_t Relation::Index::FindOrAddGroup(const Value* key) {
  if (slots_.empty()) slots_.assign(kMinSlots, 0);
  const size_t mask = slots_.size() - 1;
  size_t slot = HashValueSpan(key, width_) & mask;
  while (true) {
    const uint32_t g = slots_[slot];
    if (g == 0) break;
    if (KeyEquals(g - 1, std::span<const Value>(key, width_))) return g - 1;
    slot = (slot + 1) & mask;
  }
  keys_.insert(keys_.end(), key, key + width_);
  const uint32_t offset = static_cast<uint32_t>(pool_.size());
  groups_.push_back(Group{offset, 0, 0});
  slots_[slot] = static_cast<uint32_t>(groups_.size());
  if (NeedsGrow(groups_.size(), slots_.size())) Rehash(slots_.size() * 2);
  return static_cast<uint32_t>(groups_.size() - 1);
}

void Relation::Index::Build(const Value* data, uint32_t arity,
                            size_t num_rows) {
  std::vector<uint32_t> group_of(num_rows);
  std::vector<Value> key(width_);
  for (size_t r = 0; r < num_rows; ++r) {
    const Value* row = data + r * arity;
    for (size_t i = 0; i < width_; ++i) key[i] = row[columns_[i]];
    const uint32_t g = FindOrAddGroup(key.data());
    group_of[r] = g;
    ++groups_[g].capacity;
  }
  uint32_t offset = 0;
  for (Group& group : groups_) {
    group.offset = offset;
    offset += group.capacity;
  }
  pool_.resize(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    Group& group = groups_[group_of[r]];
    pool_[group.offset + group.size++] = static_cast<uint32_t>(r);
  }
  rows_ = num_rows;
}

void Relation::Index::Add(const Value* key, uint32_t row_id) {
  const uint32_t g = FindOrAddGroup(key);
  Group& group = groups_[g];
  ++rows_;
  if (group.size < group.capacity) {
    pool_[group.offset + group.size++] = row_id;
    return;
  }
  if (group.offset + group.capacity == pool_.size()) {
    // The group's run ends the pool (new groups always do): extend it.
    pool_.push_back(row_id);
    ++group.size;
    ++group.capacity;
    return;
  }
  // Full and boxed in: move the run to the pool tail at double capacity.
  // The old run becomes a hole until the next compaction.
  const uint32_t offset = static_cast<uint32_t>(pool_.size());
  pool_.resize(pool_.size() + 2 * static_cast<size_t>(group.capacity));
  std::copy_n(pool_.begin() + group.offset, group.size,
              pool_.begin() + offset);
  group.offset = offset;
  group.capacity *= 2;
  pool_[group.offset + group.size++] = row_id;
  if (pool_.size() > 2 * rows_ + 64) Compact();
}

void Relation::Index::Compact() {
  // Spare capacity of half the size keeps a hot group from relocating on
  // its next insert, which would refill the pool at once; with it, every
  // compaction is paid for by a constant fraction of rows_ further adds.
  size_t total = 0;
  for (const Group& group : groups_) total += group.size + group.size / 2;
  std::vector<uint32_t> pool(total);
  uint32_t offset = 0;
  for (Group& group : groups_) {
    std::copy_n(pool_.begin() + group.offset, group.size,
                pool.begin() + offset);
    group.offset = offset;
    group.capacity = group.size + group.size / 2;
    offset += group.capacity;
  }
  pool_.swap(pool);
}

size_t Relation::Index::bytes() const {
  return slots_.size() * sizeof(uint32_t) + keys_.size() * sizeof(Value) +
         groups_.size() * sizeof(Group) + pool_.size() * sizeof(uint32_t);
}

void Relation::Index::Rehash(size_t new_slot_count) {
  ++rehashes_;
  slots_.assign(new_slot_count, 0);
  const size_t mask = new_slot_count - 1;
  for (size_t g = 0; g < groups_.size(); ++g) {
    size_t slot = HashValueSpan(keys_.data() + g * width_, width_) & mask;
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<uint32_t>(g + 1);
  }
}

Relation::InsertResult Relation::InsertRow(std::span<const Value> row) {
  assert(row.size() == payload_->arity);
  // `row` may alias a payload we are about to abandon; the old payload
  // stays alive through the sharer that made it shared, so the view stays
  // readable across the detach.
  Detach();
  Payload& p = *payload_;
  ++p.insert_attempts;

  // Monadic fast path: arity-1 relations answer the duplicate test from
  // the membership bitset (one word probe) and skip the open-addressing
  // table entirely — FindRow/ContainsKey for arity 1 read the bitset too,
  // so the slots table is never consulted for these relations. The arena
  // append keeps row ids and insertion order exactly as before.
  if (p.arity == 1) {
    const Value v = row[0];
    if (!p.bits.Set(v)) return {v, false};
    const uint32_t row_id = static_cast<uint32_t>(p.num_rows);
    p.data.push_back(v);
    ++p.num_rows;
    UpdateIndexes(row_id);
    return {v, true};
  }

  const size_t hash = HashValueSpan(row.data(), row.size());
  const size_t existing = FindRow(hash, row);
  if (existing != kNoRow) return {static_cast<uint32_t>(existing), false};

  // `row` may alias our own arena (e.g. copying a relation into itself);
  // appending can reallocate the arena, so detach the view first if so.
  if (!p.data.empty() && row.data() >= p.data.data() &&
      row.data() < p.data.data() + p.data.size() &&
      p.data.size() + p.arity > p.data.capacity()) {
    proj_scratch_.assign(row.begin(), row.end());
    row = std::span<const Value>(proj_scratch_);
  }

  const uint32_t row_id = static_cast<uint32_t>(p.num_rows);
  p.data.insert(p.data.end(), row.begin(), row.end());
  ++p.num_rows;

  if (p.slots.empty()) p.slots.assign(kMinSlots, 0);
  const size_t mask = p.slots.size() - 1;
  size_t slot = hash & mask;
  while (p.slots[slot] != 0) slot = (slot + 1) & mask;
  p.slots[slot] = row_id + 1;
  if (NeedsGrow(p.num_rows, p.slots.size())) RehashSlots(p.slots.size() * 2);

  UpdateIndexes(row_id);
  return {row_id, true};
}

bool Relation::LoadRows(std::span<const Value> data, size_t rows) {
  if (payload_->num_rows != 0) return false;
  if (data.size() != rows * payload_->arity) return false;
  Reserve(rows);
  Payload& p = *payload_;
  const uint32_t arity = p.arity;
  p.data.assign(data.begin(), data.end());
  p.num_rows = rows;
  p.insert_attempts += rows;
  // One pass over the copied arena builds the same dedup state row-by-row
  // Insert would (bitset for arity 1, slots in row order otherwise; Reserve
  // sized the slots so they never grow) and stops at the first repeat.
  const size_t mask = p.slots.size() - 1;
  for (size_t r = 0; r < rows; ++r) {
    const std::span<const Value> row(p.data.data() + r * arity, arity);
    if (arity == 1) {
      if (!p.bits.Set(row[0])) {
        Clear();
        return false;
      }
      continue;
    }
    size_t slot = HashValueSpan(row.data(), arity) & mask;
    for (; p.slots[slot] != 0; slot = (slot + 1) & mask) {
      if (RowEquals(p.slots[slot] - 1, row)) {
        Clear();
        return false;
      }
    }
    p.slots[slot] = static_cast<uint32_t>(r + 1);
  }
  for (size_t r = 0; r < rows; ++r) UpdateIndexes(static_cast<uint32_t>(r));
  return true;
}

void Relation::Reserve(size_t rows) {
  Detach();
  Payload& p = *payload_;
  p.data.reserve(rows * p.arity);
  // Arity-1 relations dedup through the bitset; no slots to pre-size.
  if (p.arity == 1) return;
  const size_t want = NextPow2(rows + rows / 4);
  if (want > p.slots.size()) RehashSlots(want);
}

uint64_t Relation::rehash_count() const {
  const Payload& p = *payload_;
  // Lazy index builds may run concurrently on a shared payload; take the
  // same lock they do before walking the map.
  std::lock_guard<std::mutex> lock(p.index_mu);
  uint64_t total = p.rehashes;
  for (const auto& [cols, index] : p.indexes) total += index.rehashes_;
  return total;
}

size_t Relation::storage_bytes() const {
  const Payload& p = *payload_;
  std::lock_guard<std::mutex> lock(p.index_mu);
  size_t total = p.data.size() * sizeof(Value) +
                 p.slots.size() * sizeof(uint32_t) +
                 p.bits.num_words() * sizeof(uint64_t);
  for (const auto& [cols, index] : p.indexes) total += index.bytes();
  return total;
}

void Relation::RehashSlots(size_t new_slot_count) {
  Payload& p = *payload_;
  ++p.rehashes;
  p.slots.assign(new_slot_count, 0);
  const size_t mask = new_slot_count - 1;
  for (size_t r = 0; r < p.num_rows; ++r) {
    size_t slot = HashValueSpan(p.data.data() + r * p.arity, p.arity) & mask;
    while (p.slots[slot] != 0) slot = (slot + 1) & mask;
    p.slots[slot] = static_cast<uint32_t>(r + 1);
  }
}

void Relation::UpdateIndexes(uint32_t row_id) {
  Payload& p = *payload_;
  if (p.indexes.empty()) return;
  const Value* row = p.data.data() + static_cast<size_t>(row_id) * p.arity;
  for (auto& [cols, index] : p.indexes) {
    proj_scratch_.clear();
    for (uint32_t c : index.columns_) proj_scratch_.push_back(row[c]);
    index.Add(proj_scratch_.data(), row_id);
  }
}

const Relation::Index& Relation::GetIndex(
    const std::vector<uint32_t>& columns) const {
  Payload& p = *payload_;
  // Shared payloads have immutable tuple data but may serve several
  // sessions probing concurrently; the first to need an index builds it
  // under the lock, the rest reuse it. std::map node stability keeps the
  // returned reference valid after the lock is released.
  std::lock_guard<std::mutex> lock(p.index_mu);
  auto it = p.indexes.find(columns);
  if (it != p.indexes.end()) return it->second;
  Index& index = p.indexes[columns];
  index.columns_ = columns;
  index.width_ = columns.size();
  index.Build(p.data.data(), p.arity, p.num_rows);
  return index;
}

void Relation::Clear() {
  if (payload_.use_count() > 1) {
    // Other sharers keep the tuples; this object starts empty.
    payload_ = std::make_shared<Payload>(payload_->arity);
    return;
  }
  Payload& p = *payload_;
  p.data.clear();
  p.num_rows = 0;
  p.slots.clear();
  p.bits.Clear();
  p.indexes.clear();
}

}  // namespace exdl
