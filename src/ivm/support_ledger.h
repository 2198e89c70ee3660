// SupportLedger — the counting substrate of incremental view maintenance
// (DESIGN.md §16): per derived tuple, the number of derivations the
// fixpoint produced, so a future retraction pass can decrement supports
// along a delete-delta instead of recomputing (insert-only today: counts
// are populated, never decremented). It plugs into the evaluator as a
// SupportSink; Flush reports every head tuple, new and duplicate alike, in
// an order identical across executors.
//
// Layout: one dense uint32 count column per counted predicate, indexed by
// the tuple's row id (relations are append-only, so row ids are stable).
// 4 B per tuple (6 B with growth slack); no hashing and no per-tuple
// structure besides the column. Arity-1 relations dedup through a bitset,
// which knows no row ids, so their re-derivations arrive as symbols: they
// are queued (4 B per re-derivation) and, when the evaluation finishes,
// sorted and matched against one scan of the relation — O(rows +
// d log d) per evaluation with d re-derivations — then the queue is
// freed. Keying arity-1 tuples by symbol id instead would size their
// columns by the largest symbol id, which a factored view's unary
// predicates make the common case; a column-0 index would cost ~25 B per
// tuple. Keys mean something only against the database the counted
// evaluations ran on. Counts saturate at UINT32_MAX, which never reaches
// zero: the safe direction for a retraction pass.
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
  void Derived(PredId pred, uint32_t row) override {
    Count(columns_[ColumnOf(pred)], row, 1);
  }

  void Rederived(PredId pred, Value value) override {
    pending_[ColumnOf(pred)].push_back(value);
  }

  void Finished(const Database& db) override {
    for (size_t i = 0; i < preds_.size(); ++i) {
      std::vector<Value>& pending = pending_[i];
      const Relation* rel = db.Find(preds_[i]);
      if (pending.empty() || rel == nullptr) continue;
      std::sort(pending.begin(), pending.end());
      const std::span<const Value> rows = rel->view().Raw();
      for (size_t row = 0; row < rows.size(); ++row) {
        const auto [lo, hi] =
            std::equal_range(pending.begin(), pending.end(), rows[row]);
        if (lo == hi) continue;
        Count(columns_[i], static_cast<uint32_t>(row),
              static_cast<uint64_t>(hi - lo));
      }
      std::vector<Value>().swap(pending);
    }
  }

  /// Derivation count recorded for one tuple of `db` (0 if never derived —
  /// EDB facts are extrinsic and carry no support).
  uint64_t SupportOf(const Database& db, PredId pred,
                     std::span<const Value> row) const {
    const Relation* rel = db.Find(pred);
    const auto it = std::find(preds_.begin(), preds_.end(), pred);
    if (rel == nullptr || it == preds_.end()) return 0;
    std::optional<uint32_t> key = rel->KeyOf(row);
    if (key && rel->arity() == 1) {  // KeyOf gave the symbol; find the row.
      const std::span<const Value> rows = rel->view().Raw();
      key = static_cast<uint32_t>(std::find(rows.begin(), rows.end(), *key) -
                                  rows.begin());
    }
    const std::vector<uint32_t>& column = columns_[it - preds_.begin()];
    return key && *key < column.size() ? column[*key] : 0;
  }

  /// The count columns, one per counted predicate in first-derivation
  /// order (predicates() names them), then indexed by tuple key.
  const std::vector<std::vector<uint32_t>>& columns() const {
    return columns_;
  }
  const std::vector<PredId>& predicates() const { return preds_; }

  /// Total derivations tallied (the sum of all counts, short of
  /// saturation).
  uint64_t total_derivations() const { return derivations_; }

  /// Distinct derived tuples tracked (nonzero counts).
  uint64_t tracked_tuples() const { return tracked_; }

  /// Heap bytes the ledger holds (capacity, not size): the count
  /// columns, plus any re-derivation queue (empty between evaluations).
  uint64_t bytes() const {
    uint64_t total = columns_.capacity() * sizeof(columns_[0]) +
                     pending_.capacity() * sizeof(pending_[0]) +
                     preds_.capacity() * sizeof(PredId);
    for (const auto& column : columns_) {
      total += column.capacity() * sizeof(uint32_t);
    }
    for (const auto& pending : pending_) {
      total += pending.capacity() * sizeof(Value);
    }
    return total;
  }

 private:
  /// The column counting `pred`, appended on its first derivation. A
  /// ledger counts a handful of predicates, while predicate ids grow with
  /// every program a shared context compiles, so columns are not indexed
  /// by id.
  size_t ColumnOf(PredId pred) {
    for (size_t i = 0; i < preds_.size(); ++i) {
      if (preds_[i] == pred) return i;
    }
    preds_.push_back(pred);
    columns_.emplace_back();
    pending_.emplace_back();
    return preds_.size() - 1;
  }

  /// Adds `n` derivations to the tuple at `row`.
  void Count(std::vector<uint32_t>& column, uint32_t row, uint64_t n) {
    if (row >= column.size()) {
      // Grow by half, not the default doubling.
      if (row >= column.capacity()) {
        column.reserve(std::max<size_t>(row + 1, column.size() * 3 / 2));
      }
      column.resize(row + 1);
    }
    uint32_t& count = column[row];
    if (count == 0) ++tracked_;
    count = static_cast<uint32_t>(std::min<uint64_t>(
        count + n, std::numeric_limits<uint32_t>::max()));
    derivations_ += n;
  }

  std::vector<PredId> preds_;
  std::vector<std::vector<uint32_t>> columns_;
  /// Per column: symbols of arity-1 re-derivations not yet resolved to
  /// rows (Finished empties them).
  std::vector<std::vector<Value>> pending_;
  uint64_t tracked_ = 0;
  uint64_t derivations_ = 0;
};

}  // namespace exdl::ivm

#endif  // EXDL_IVM_SUPPORT_LEDGER_H_
