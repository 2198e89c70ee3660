// Database: predicate id -> Relation. Holds the EDB; during evaluation it
// also holds the growing derived relations. For *uniform* equivalence tests
// (Section 4) the input database may contain facts for IDB predicates too —
// nothing here distinguishes the two.
//
// Copies are copy-on-write: Relation payloads are shared until written
// (see relation.h), so Clone() is O(#relations) pointer copies, not a
// tuple copy. DatabaseSnapshot wraps an immutable generation of the
// database for concurrent readers (DESIGN.md §12); Watermarks marks a
// generation boundary inside a growing one (DESIGN.md §5a).

#ifndef EXDL_STORAGE_DATABASE_H_
#define EXDL_STORAGE_DATABASE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ast/atom.h"
#include "storage/relation.h"
#include "util/status.h"

namespace exdl {

class Database {
 public:
  Database() = default;

  /// The relation for `pred`, creating an empty one of the predicate's
  /// arity on first use.
  Relation& GetOrCreate(PredId pred, uint32_t arity);

  /// The relation for `pred`, or nullptr if no tuple was ever stored.
  const Relation* Find(PredId pred) const;
  Relation* FindMutable(PredId pred);

  /// Drops the relation for `pred`, if any.
  void Erase(PredId pred) { relations_.erase(pred); }

  /// Inserts a ground atom as a fact. Fails on non-ground atoms.
  Status AddFact(const Atom& atom);

  /// Inserts a tuple for `pred`.
  bool AddTuple(PredId pred, std::span<const Value> row);

  /// Sum of all relation sizes.
  size_t TotalTuples() const;

  /// Sum of all relation arena payload bytes (Relation::arena_bytes) —
  /// the quantity EvalBudget::max_arena_bytes is measured against.
  size_t TotalArenaBytes() const;

  /// Sum of all relations' open-addressing rebuilds
  /// (Relation::rehash_count) — a storage telemetry quantity.
  uint64_t TotalRehashes() const;

  /// Number of tuples for `pred` (0 if absent).
  size_t Count(PredId pred) const;

  /// All tuples of `pred` as ground atoms (testing/debug convenience).
  std::vector<Atom> FactsOf(PredId pred) const;

  /// Logical deep copy, physically copy-on-write: the clone shares every
  /// relation's tuple storage until one side mutates it. Semantically
  /// identical to the old deep copy, O(#relations) instead of O(#tuples).
  ///
  /// Thread contract (inherited from Relation's copy-on-write): Clone()
  /// must not race a mutation of *this* database's relations — a copy
  /// taken mid-mutation could share a payload being written (see
  /// Relation::Detach). Cloning an immutable database (e.g. through a
  /// DatabaseSnapshot) from many threads concurrently is safe.
  Database Clone() const;

  const std::unordered_map<PredId, Relation>& relations() const {
    return relations_;
  }

 private:
  std::unordered_map<PredId, Relation> relations_;
};

/// An immutable, shareable view of one generation of a database. Handing
/// out a snapshot is O(1); every holder reads the same consistent EDB with
/// zero tuple copying (relations stay payload-shared until a *writer* —
/// never the snapshot — detaches its own copy). Fact loads build the next
/// generation from a CoW clone and publish a new snapshot; in-flight
/// readers of older generations are unaffected.
class DatabaseSnapshot {
 public:
  DatabaseSnapshot() = default;
  DatabaseSnapshot(std::shared_ptr<const Database> db, uint64_t generation)
      : db_(std::move(db)), generation_(generation) {}

  /// Captures `db` (CoW clone) as generation `generation`.
  static DatabaseSnapshot Capture(const Database& db, uint64_t generation) {
    return DatabaseSnapshot(std::make_shared<const Database>(db.Clone()),
                            generation);
  }

  bool valid() const { return db_ != nullptr; }
  const Database& db() const { return *db_; }
  /// Keeps the underlying generation alive across detached reads.
  const std::shared_ptr<const Database>& shared() const { return db_; }
  uint64_t generation() const { return generation_; }

 private:
  std::shared_ptr<const Database> db_;
  uint64_t generation_ = 0;
};

/// The generation watermark: per-predicate row counts at a boundary,
/// sorted by PredId. Relation insertion order is stable, so the rows of
/// `pred` past Of(pred) are exactly those appended since the boundary —
/// the semi-naive delta of a fixpoint round, the facts of an IVM
/// generation and a standing query's new answers are all such suffixes.
/// A predicate the marks do not list reads as 0: a relation created after
/// the boundary is entirely new.
class Watermarks {
 public:
  using Entry = std::pair<PredId, uint32_t>;

  Watermarks() = default;

  /// Every relation's current size.
  static Watermarks Capture(const Database& db);

  /// The mark of `pred` (0 when unlisted).
  uint32_t Of(PredId pred) const {
    auto it = LowerBound(pred);
    return it != entries_.end() && it->first == pred ? it->second : 0;
  }

  /// Sets the mark of `pred`, listing it if it was not.
  void Set(PredId pred, uint32_t rows) {
    const size_t i = LowerBound(pred) - entries_.begin();
    if (i < entries_.size() && entries_[i].first == pred) {
      entries_[i].second = rows;
    } else {
      entries_.insert(entries_.begin() + i, Entry{pred, rows});
    }
  }

  /// Rows of `db` past the marks, summed over every relation.
  uint64_t RowsSince(const Database& db) const;

  /// The listed (pred, mark) pairs, ascending by PredId.
  const std::vector<Entry>& entries() const { return entries_; }

  bool operator==(const Watermarks&) const = default;

 private:
  std::vector<Entry>::const_iterator LowerBound(PredId pred) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), pred,
        [](const Entry& entry, PredId p) { return entry.first < p; });
  }

  std::vector<Entry> entries_;
};

}  // namespace exdl

#endif  // EXDL_STORAGE_DATABASE_H_
