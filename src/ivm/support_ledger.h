// SupportLedger — the counting substrate of incremental view maintenance
// (DESIGN.md §16): per derived tuple, the number of derivations the
// fixpoint produced, so a future retraction pass can decrement supports
// along a delete-delta instead of recomputing (insert-only today: counts
// are populated, never decremented). It plugs into the evaluator as a
// SupportSink; Flush reports every head tuple, new and duplicate alike, in
// an order identical across thread counts and representations.
//
// Layout: one dense uint32 count column per predicate, indexed by the
// tuple's Relation::InsertResult key — its row id (relations are
// append-only, so row ids are stable), or its symbol id on arity-1
// relations. 4 B per tuple (6 B with growth slack); no hashing and no
// allocation per derivation. Keys mean something only against the
// database the counted evaluations ran on. Counts saturate at UINT32_MAX,
// which never reaches zero: the safe direction for a retraction pass.
//
// Known limitation, recorded here so the retraction PR does not trip over
// it: the semi-naive variants fire one delta literal per variant with the
// other literals reading the full (delta-inclusive) relation, so a
// derivation whose body uses two delta tuples is reported once per such
// variant. Counts therefore over-approximate true derivation multiplicity
// for multi-delta-literal joins; a DRed-style pass must treat them as an
// upper bound (over-counts delay deletion, they never delete too much —
// but exact counting needs prefix-reads on the non-delta literals first).

#ifndef EXDL_IVM_SUPPORT_LEDGER_H_
#define EXDL_IVM_SUPPORT_LEDGER_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "eval/evaluator.h"
#include "storage/database.h"

namespace exdl::ivm {

class SupportLedger : public SupportSink {
 public:
  void Derived(PredId pred, uint32_t key, bool /*inserted*/) override {
    if (pred >= columns_.size()) columns_.resize(pred + 1);
    std::vector<uint32_t>& column = columns_[pred];
    if (key >= column.size()) {
      // Grow by half, not the default doubling.
      if (key >= column.capacity()) {
        column.reserve(std::max<size_t>(key + 1, column.size() * 3 / 2));
      }
      column.resize(key + 1);
    }
    uint32_t& count = column[key];
    if (count == 0) ++tracked_;
    if (count != std::numeric_limits<uint32_t>::max()) ++count;
    ++derivations_;
  }

  /// Derivation count recorded for one tuple of `db` (0 if never derived —
  /// EDB facts are extrinsic and carry no support).
  uint64_t SupportOf(const Database& db, PredId pred,
                     std::span<const Value> row) const {
    const Relation* rel = db.Find(pred);
    if (rel == nullptr || pred >= columns_.size()) return 0;
    const std::optional<uint32_t> key = rel->KeyOf(row);
    const std::vector<uint32_t>& column = columns_[pred];
    return key && *key < column.size() ? column[*key] : 0;
  }

  /// The count columns, indexed by predicate id, then tuple key.
  const std::vector<std::vector<uint32_t>>& columns() const {
    return columns_;
  }

  /// Total derivations tallied (the sum of all counts, short of
  /// saturation).
  uint64_t total_derivations() const { return derivations_; }

  /// Distinct derived tuples tracked (nonzero counts).
  uint64_t tracked_tuples() const { return tracked_; }

  /// Heap bytes the count columns hold (capacity, not size).
  uint64_t bytes() const {
    uint64_t total = columns_.capacity() * sizeof(columns_[0]);
    for (const auto& column : columns_) {
      total += column.capacity() * sizeof(uint32_t);
    }
    return total;
  }

 private:
  std::vector<std::vector<uint32_t>> columns_;
  uint64_t tracked_ = 0;
  uint64_t derivations_ = 0;
};

}  // namespace exdl::ivm

#endif  // EXDL_IVM_SUPPORT_LEDGER_H_
