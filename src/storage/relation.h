// Relation: a deduplicated set of fixed-arity tuples of interned values,
// with insertion-ordered row ids and lazily built, incrementally maintained
// hash indexes on column subsets.
//
// Storage layout (see DESIGN.md §5a): tuples live in one contiguous,
// arity-strided arena; row id r occupies data[r*arity, (r+1)*arity).
// Deduplication is an open-addressing table of row ids that hashes the
// arena rows directly — no per-tuple heap node, no pointer chase in Row().
// An index is four flat arrays: its open-addressing slots, its group keys
// (width-strided like the arena), one {offset, size, capacity} record per
// group, and one pool of row ids in which every group owns a contiguous
// ascending run. No per-group heap allocation.
//
// Copy-on-write (DESIGN.md §12): the arena, dedup table, and indexes live
// in a shared payload behind a shared_ptr. Copying a Relation (and hence
// Database::Clone) shares the payload — O(1), no tuple copy. The first
// mutation (Insert/Reserve/Clear/LoadRows) on a shared payload detaches a
// private deep copy, so writers never disturb concurrent readers of the
// original. This is what lets a QueryService hand the same EDB snapshot to
// many sessions: body-literal probes read shared payloads, head relations
// detach on first flush. GetIndex is const and thread-safe (mutex-guarded
// lazy build) so concurrent sessions share lazily built EDB indexes.
//
// Insertion order is stable, which lets the semi-naive evaluator treat a
// suffix of row ids [watermark, size) as the delta without copying tuples.
// Spans returned by Row() are views into the arena and are invalidated by
// the next Insert/Reserve/Clear *on this Relation object* (the evaluator
// never grows a relation while iterating it: derivations are buffered and
// flushed between rounds). Spans returned by Index::Lookup follow the same
// rule: the next insert may move the pool. Index references obtained via
// GetIndex stay valid and up to date until this Relation object mutates
// while shared (a detach re-homes future updates into the private payload).

#ifndef EXDL_STORAGE_RELATION_H_
#define EXDL_STORAGE_RELATION_H_

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "ast/context.h"
#include "storage/unary_bitset.h"

namespace exdl {

/// A tuple component: an interned constant symbol.
using Value = SymbolId;

/// FNV-1a over 32-bit lanes with a splitmix64-style finalizer (open
/// addressing takes the low bits, so they must be well mixed).
inline size_t HashValueSpan(const Value* data, size_t n) {
  size_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 31;
  return h;
}

/// Hashes any key view — anything with `size()` and `operator[](size_t)`
/// returning Value — identically to HashValueSpan over the same values.
/// Lets callers hash virtual keys (e.g. registers projected through a
/// plan's argument specs) without materializing them.
template <typename KeyView>
size_t HashKeyView(const KeyView& key) {
  size_t h = 1469598103934665603ULL;
  const size_t n = key.size();
  for (size_t i = 0; i < n; ++i) {
    h ^= key[i];
    h *= 1099511628211ULL;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 31;
  return h;
}

class Relation {
 public:
  /// Hash index on a fixed column subset. Groups rows by their projection
  /// onto `columns`; group keys live in a flat width-strided array and are
  /// found by open addressing, so probes allocate nothing. Every group's
  /// row ids are one ascending run in a single shared pool (DESIGN.md §5a).
  class Index {
   public:
    /// Rows whose projection equals `key` (any key view), ascending; empty
    /// when the key is absent. The span is invalidated by the next insert
    /// into the relation that owns this index.
    template <typename KeyView>
    std::span<const uint32_t> LookupKey(const KeyView& key) const {
      assert(key.size() == width_);
      if (slots_.empty()) return {};
      const size_t mask = slots_.size() - 1;
      size_t slot = HashKeyView(key) & mask;
      while (true) {
        const uint32_t g = slots_[slot];
        if (g == 0) return {};
        if (KeyEquals(g - 1, key)) {
          const Group& group = groups_[g - 1];
          return {pool_.data() + group.offset, group.size};
        }
        slot = (slot + 1) & mask;
      }
    }

    std::span<const uint32_t> Lookup(const std::vector<Value>& key) const {
      return LookupKey(std::span<const Value>(key));
    }
    std::span<const uint32_t> Lookup(std::span<const Value> key) const {
      return LookupKey(key);
    }

    const std::vector<uint32_t>& columns() const { return columns_; }
    size_t num_groups() const { return groups_.size(); }
    /// Row ids indexed (the sum of every group's size).
    size_t num_rows() const { return rows_; }
    /// Pool slots in use, holes and spare group capacity included. Stays
    /// within 2 * num_rows() + 64 (see Add).
    size_t pool_size() const { return pool_.size(); }
    /// Bytes of the four arrays (what a copy-on-write detach copies).
    size_t bytes() const;

   private:
    friend class Relation;

    /// One key's run of row ids: pool_[offset, offset + size), with room
    /// to grow in place up to `capacity`.
    struct Group {
      uint32_t offset;
      uint32_t size;
      uint32_t capacity;
    };

    template <typename KeyView>
    bool KeyEquals(size_t group, const KeyView& key) const {
      const Value* stored = keys_.data() + group * width_;
      for (size_t i = 0; i < width_; ++i) {
        if (stored[i] != key[i]) return false;
      }
      return true;
    }

    /// Builds the index over `num_rows` arena rows as exact CSR: one pass
    /// assigns groups and counts, a prefix sum places the runs, a second
    /// pass fills them in row order. The index must be empty.
    void Build(const Value* data, uint32_t arity, size_t num_rows);
    /// Adds `row_id` (greater than every id already indexed) under the
    /// projection stored at `key` (width_ values).
    void Add(const Value* key, uint32_t row_id);
    /// The id of the group keyed `key`, appending an empty group at the
    /// pool tail when the key is new.
    uint32_t FindOrAddGroup(const Value* key);
    /// Rewrites the pool without holes, group by group, leaving each group
    /// half its size again as spare capacity.
    void Compact();
    void Rehash(size_t new_slot_count);

    std::vector<uint32_t> columns_;
    size_t width_ = 0;             ///< columns_.size()
    std::vector<uint32_t> slots_;  ///< group id + 1; 0 = empty; pow2 size
    std::vector<Value> keys_;      ///< group keys, width_-strided
    std::vector<Group> groups_;    ///< per key, first-seen order
    std::vector<uint32_t> pool_;   ///< every group's row-id run
    size_t rows_ = 0;              ///< row ids indexed
    uint64_t rehashes_ = 0;        ///< Rehash() calls (telemetry).
  };

  explicit Relation(uint32_t arity)
      : payload_(std::make_shared<Payload>(arity)) {}

  /// Copies share the payload (O(1)); the first mutation through either
  /// copy detaches a private deep copy (copy-on-write).
  ///
  /// Thread contract: copying a Relation object must not race a mutation
  /// of that same object. Copying may freely race mutations of *other*
  /// Relation objects sharing the payload (they detach first), and
  /// concurrent reads/GetIndex on shared payloads are always safe. See
  /// Detach() for why a racing copy would break the use_count test.
  Relation(const Relation&) = default;
  Relation& operator=(const Relation&) = default;
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  uint32_t arity() const { return payload_->arity; }
  size_t size() const { return payload_->num_rows; }
  bool empty() const { return payload_->num_rows == 0; }

  /// What InsertRow reports. `key` identifies the tuple densely within
  /// this relation: its row id (for a duplicate, the row id it already
  /// had; 0-ary relations hold one tuple, key 0), except on arity-1
  /// relations, which dedup through the membership bitset and so have no
  /// row-id lookup — there the key is the tuple's symbol id.
  struct InsertResult {
    uint32_t key;
    bool inserted;  ///< True if the tuple was new.
  };

  /// Inserts `row` (must have length == arity) and reports its key from
  /// the same dedup probe, new or duplicate. Duplicate inserts are counted
  /// in `insert_attempts`. `row` may alias this relation's own arena
  /// (self-copy is handled). Detaches a shared payload first.
  InsertResult InsertRow(std::span<const Value> row);

  /// InsertRow without the key: true if the tuple was new.
  bool Insert(std::span<const Value> row) { return InsertRow(row).inserted; }

  /// Arity-1 inserts without the span plumbing, over a whole run in
  /// order: one detach, then per value one bitset probe for the duplicate
  /// test and, when it is new, one arena append. Returns how many values
  /// were new. Observationally identical to Insert({v}) per value —
  /// insert_attempts, row ids, indexes all behave the same. Must only be
  /// called on arity-1 relations. Inline because it sits on the flush hot
  /// path of unary (monadic) fixpoints.
  size_t InsertUnaryRun(std::span<const Value> values) {
    Detach();
    Payload& p = *payload_;
    assert(p.arity == 1);
    p.insert_attempts += values.size();
    const size_t before = p.num_rows;
    for (const Value v : values) {
      if (!p.bits.Set(v)) continue;
      p.data.push_back(v);
      ++p.num_rows;
      if (!p.indexes.empty()) {
        UpdateIndexes(static_cast<uint32_t>(p.num_rows - 1));
      }
    }
    return p.num_rows - before;
  }

  /// InsertUnaryRun of one value: true if it was new.
  bool InsertUnary(Value v) { return InsertUnaryRun({&v, 1}) == 1; }

  /// Pre-sizes the arena and dedup table for `rows` tuples. Detaches a
  /// shared payload first.
  void Reserve(size_t rows);

  /// The representation seam (DESIGN.md §14): everything outside
  /// src/storage reads tuples through this narrow view instead of
  /// touching the arena directly — Scan (one row, insertion order), Raw
  /// (the whole arena, checkpoint serialization), Contains (exact-tuple
  /// membership), Probe (hash index on a column subset), and bits (the
  /// word-packed unary bitset, arity-1 relations only). Views are cheap
  /// (one pointer); spans obey the same invalidation rules as the arena
  /// they point into (next Insert/Reserve/Clear on this Relation object).
  class View {
   public:
    uint32_t arity() const { return rel_->arity(); }
    size_t size() const { return rel_->size(); }
    bool empty() const { return rel_->empty(); }

    /// The `row_id`-th tuple in insertion order.
    std::span<const Value> Scan(size_t row_id) const {
      const Payload& p = *rel_->payload_;
      return std::span<const Value>(p.data.data() + row_id * p.arity,
                                    p.arity);
    }

    /// The whole arena in row order: size() * arity() values, row r at
    /// [r * arity, (r + 1) * arity).
    std::span<const Value> Raw() const {
      const Payload& p = *rel_->payload_;
      return std::span<const Value>(p.data.data(), p.num_rows * p.arity);
    }

    /// Exact-tuple membership; `key` is any key view of arity values.
    template <typename KeyView>
    bool Contains(const KeyView& key) const {
      return rel_->ContainsKey(key);
    }

    /// Index probe handle on `columns` (built lazily, thread-safe).
    const Index& Probe(const std::vector<uint32_t>& columns) const {
      return rel_->GetIndex(columns);
    }

    /// Word-packed membership bitset, or nullptr for arity != 1. Bit v is
    /// set iff tuple (v) is present; maintained incrementally by Insert.
    const UnaryBitset* bits() const {
      const Payload& p = *rel_->payload_;
      return p.arity == 1 ? &p.bits : nullptr;
    }

   private:
    friend class Relation;
    explicit View(const Relation* rel) : rel_(rel) {}
    const Relation* rel_;
  };

  View view() const { return View(this); }

  /// Bulk-loads `rows` tuples (an arity-strided value array laid out like
  /// RawData) into this relation, which must be empty. Returns false —
  /// leaving the relation empty — when the shape is wrong or a tuple
  /// repeats; checkpoint restore uses that as a corruption signal, since a
  /// valid snapshot never contains duplicates.
  bool LoadRows(std::span<const Value> data, size_t rows);

  /// True if the exact tuple is present — `key` is any key view of arity
  /// values (see HashKeyView). Allocation-free. Arity-1 relations answer
  /// from the membership bitset (one word probe, no hashing).
  template <typename KeyView>
  bool ContainsKey(const KeyView& key) const {
    const Payload& p = *payload_;
    assert(key.size() == p.arity);
    if (p.arity == 1) return p.bits.Test(key[0]);
    return FindRow(HashKeyView(key), key) != kNoRow;
  }

  bool Contains(std::span<const Value> row) const {
    return ContainsKey(row);
  }

  /// The key InsertRow reported for `row`, or nullopt if it is absent.
  std::optional<uint32_t> KeyOf(std::span<const Value> row) const {
    assert(row.size() == arity());
    if (arity() == 1) {
      if (!payload_->bits.Test(row[0])) return std::nullopt;
      return row[0];
    }
    const size_t r = FindRow(HashValueSpan(row.data(), row.size()), row);
    if (r == kNoRow) return std::nullopt;
    return static_cast<uint32_t>(r);
  }

  /// Returns the index on `columns` (sorted, distinct, each < arity),
  /// building it on first use. Thread-safe: concurrent callers on a
  /// shared payload serialize the build and then share it. The reference
  /// stays valid and up to date across subsequent Inserts on this object
  /// (after a copy-on-write detach, updates go to the detached payload's
  /// copy of the index — re-resolve after mutating a shared relation).
  const Index& GetIndex(const std::vector<uint32_t>& columns) const;

  /// Total Insert calls, including duplicates — the paper's "duplicate
  /// elimination cost" is insert_attempts() - size().
  uint64_t insert_attempts() const { return payload_->insert_attempts; }

  /// Bytes of tuple payload in the arena (size * arity * sizeof(Value)).
  /// This is the deterministic quantity EvalBudget::max_arena_bytes
  /// governs; dedup-slot and index overhead are excluded so the limit does
  /// not depend on growth policy or which indexes were lazily built.
  size_t arena_bytes() const {
    return payload_->data.size() * sizeof(Value);
  }

  /// Bytes a copy-on-write detach of this relation copies: the arena, the
  /// dedup slots, the unary bitset and every index's four arrays (sizes,
  /// not capacities). Telemetry for service.load.cow_bytes_copied.
  size_t storage_bytes() const;

  /// Open-addressing table rebuilds since construction: dedup-slot grows
  /// (including Reserve pre-sizing) plus every index's grows. A telemetry
  /// quantity (storage.rehashes gauge); high counts under steady insert
  /// load suggest Reserve is missing on a hot relation.
  uint64_t rehash_count() const;

  /// Drops all tuples and indexes. On a shared payload this detaches to a
  /// fresh empty payload (other sharers keep their tuples).
  void Clear();

  /// True if `other` currently shares this relation's tuple storage —
  /// i.e. the copy-on-write payload has not been detached by a mutation
  /// on either side. Test/diagnostic hook for snapshot sharing.
  bool SharesStorageWith(const Relation& other) const {
    return payload_ == other.payload_;
  }

 private:
  static constexpr size_t kNoRow = static_cast<size_t>(-1);

  /// Everything that makes up the tuple set. Shared (read-only) between
  /// Relation copies until one of them mutates.
  struct Payload {
    explicit Payload(uint32_t arity_in) : arity(arity_in) {}
    /// Deep copy for detach; the index mutex is fresh, not copied.
    /// Tuple data is immutable while shared, but `indexes` is not: const
    /// GetIndex lazily builds into it under index_mu, and another sharer
    /// may be doing exactly that while this detach copies. Take the same
    /// lock so the map (and every Index in it) is copied only at a
    /// quiescent point of lazy builds.
    Payload(const Payload& other)
        : arity(other.arity),
          data(other.data),
          num_rows(other.num_rows),
          slots(other.slots),
          bits(other.bits),
          insert_attempts(other.insert_attempts),
          rehashes(other.rehashes) {
      std::lock_guard<std::mutex> lock(other.index_mu);
      indexes = other.indexes;
    }

    uint32_t arity;
    std::vector<Value> data;  ///< Arity-strided tuple arena.
    size_t num_rows = 0;
    std::vector<uint32_t> slots;  ///< Dedup: row id + 1; 0 = empty; pow2.
    /// Arity-1 only: word-packed membership bitset over symbol ids, kept
    /// in lockstep with the arena by Insert (empty for other arities).
    /// Derived data — the arena stays the insertion-order source of truth.
    UnaryBitset bits;
    // Keyed by column list so GetIndex can find existing indexes.
    // std::map: few indexes per relation, node stability keeps GetIndex
    // references valid across later GetIndex calls.
    std::map<std::vector<uint32_t>, Index> indexes;
    uint64_t insert_attempts = 0;
    uint64_t rehashes = 0;  ///< RehashSlots() calls (telemetry).
    /// Guards `indexes` map shape and lazy builds on *shared* payloads
    /// (tuple data is immutable while shared, but two sessions may race
    /// to build the same index). Uncontended on private payloads.
    mutable std::mutex index_mu;
  };

  /// Ensures the payload is privately owned before a mutation; deep-copies
  /// it if shared. Callers of mutators must be the only thread touching
  /// *this Relation object* (the usual single-writer contract); other
  /// Relation objects sharing the old payload are unaffected.
  ///
  /// The use_count() > 1 test is sound only under a second, easily missed
  /// half of that contract: no other thread may be *copying this exact
  /// Relation object* (directly or via Database::Clone of the containing
  /// database) concurrently with the mutation — a copy taken between the
  /// use_count read and the in-place write would share a payload being
  /// written. Current callers satisfy this: snapshot publication is
  /// mutex-guarded in QueryService, and each session's EDB clone is
  /// private to its worker. See the Relation copy-constructor comment.
  void Detach() {
    if (payload_.use_count() > 1) {
      payload_ = std::make_shared<Payload>(*payload_);
    }
  }

  /// Probes the dedup table for a row equal to `key`; returns its row id
  /// or kNoRow. `hash` must be HashKeyView(key).
  template <typename KeyView>
  size_t FindRow(size_t hash, const KeyView& key) const {
    const Payload& p = *payload_;
    if (p.slots.empty()) return kNoRow;
    const size_t mask = p.slots.size() - 1;
    size_t slot = hash & mask;
    while (true) {
      const uint32_t r = p.slots[slot];
      if (r == 0) return kNoRow;
      if (RowEquals(r - 1, key)) return r - 1;
      slot = (slot + 1) & mask;
    }
  }

  template <typename KeyView>
  bool RowEquals(size_t row_id, const KeyView& key) const {
    const Payload& p = *payload_;
    const Value* stored = p.data.data() + row_id * p.arity;
    for (size_t i = 0; i < p.arity; ++i) {
      if (stored[i] != key[i]) return false;
    }
    return true;
  }

  /// Grows the dedup table to `new_slot_count` (pow2) and reinserts every
  /// row id by rehashing the arena. Payload must be private.
  void RehashSlots(size_t new_slot_count);

  /// Appends row `row_id` (already in the arena) to every index. Payload
  /// must be private.
  void UpdateIndexes(uint32_t row_id);

  std::shared_ptr<Payload> payload_;
  std::vector<Value> proj_scratch_;  ///< Reused for index maintenance.
};

}  // namespace exdl

#endif  // EXDL_STORAGE_RELATION_H_
