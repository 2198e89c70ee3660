// AnswerRows: a query's answer set as one flat value table.
//
// The arity, the row count and one contiguous row-major std::vector<Value>
// (row r at [r * arity, (r + 1) * arity)) — one allocation per answer set,
// however many rows. Rows are always sorted lexicographically over Value
// ids and distinct, so equal sets compare equal and render (RenderAnswerRows)
// to equal bytes. A 0-ary set is empty (false) or one empty row (true).

#ifndef EXDL_EVAL_ANSWER_ROWS_H_
#define EXDL_EVAL_ANSWER_ROWS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "storage/relation.h"

namespace exdl {

class AnswerRows {
 public:
  /// No rows, arity 0.
  AnswerRows() = default;
  /// Takes `rows` distinct rows of `arity` values laid out row-major in
  /// `values`, in any order, and sorts them.
  AnswerRows(uint32_t arity, size_t rows, std::vector<Value> values);
  /// Takes rows that are already sorted and distinct (strictly
  /// increasing, asserted in debug builds) without sorting them again.
  static AnswerRows Presorted(uint32_t arity, size_t rows,
                              std::vector<Value> values);
  /// A moved-from set is empty, never a row count without its values.
  AnswerRows(AnswerRows&& other) noexcept
      : arity_(other.arity_),
        rows_(std::exchange(other.rows_, 0)),
        values_(std::move(other.values_)) {}
  AnswerRows& operator=(AnswerRows&& other) noexcept {
    arity_ = other.arity_;
    rows_ = std::exchange(other.rows_, 0);
    values_ = std::move(other.values_);
    return *this;
  }
  AnswerRows(const AnswerRows&) = default;
  AnswerRows& operator=(const AnswerRows&) = default;

  /// Union of two sets of one arity (an empty side may have any arity).
  static AnswerRows Union(AnswerRows a, const AnswerRows& b);

  uint32_t arity() const { return arity_; }
  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }
  std::span<const Value> operator[](size_t r) const {
    return {values_.data() + r * arity_, arity_};
  }
  /// Every row back to back, size() * arity() values.
  const std::vector<Value>& values() const { return values_; }

  /// Range-for over rows as spans.
  struct RowIterator {
    const AnswerRows* rows;
    size_t r;
    std::span<const Value> operator*() const { return (*rows)[r]; }
    RowIterator& operator++() {
      ++r;
      return *this;
    }
    bool operator==(const RowIterator&) const = default;
  };
  RowIterator begin() const { return {this, 0}; }
  RowIterator end() const { return {this, rows_}; }

  bool operator==(const AnswerRows&) const = default;

 private:
  uint32_t arity_ = 0;
  size_t rows_ = 0;
  std::vector<Value> values_;
};

}  // namespace exdl

#endif  // EXDL_EVAL_ANSWER_ROWS_H_
