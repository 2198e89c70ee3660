#include "eval/answer_rows.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace exdl {
namespace {

bool RowLess(std::span<const Value> a, std::span<const Value> b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace

AnswerRows::AnswerRows(uint32_t arity, size_t rows, std::vector<Value> values)
    : arity_(arity), rows_(rows), values_(std::move(values)) {
  assert(values_.size() == rows_ * arity_);
  if (arity_ == 1) {
    std::sort(values_.begin(), values_.end());
  } else if (arity_ > 1) {
    // Wider rows: sort row ids, then gather the rows in that order.
    assert(rows_ <= UINT32_MAX);
    std::vector<uint32_t> order(rows_);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
      return RowLess((*this)[a], (*this)[b]);
    });
    std::vector<Value> sorted;
    sorted.reserve(values_.size());
    for (uint32_t r : order) {
      sorted.insert(sorted.end(), (*this)[r].begin(), (*this)[r].end());
    }
    values_ = std::move(sorted);
  }
}

AnswerRows AnswerRows::Presorted(uint32_t arity, size_t rows,
                                 std::vector<Value> values) {
  AnswerRows out;
  out.arity_ = arity;
  out.rows_ = rows;
  out.values_ = std::move(values);
  assert(out.values_.size() == rows * arity);
  for (size_t r = 1; r < rows && arity > 0; ++r) {
    assert(RowLess(out[r - 1], out[r]));
  }
  return out;
}

AnswerRows AnswerRows::Union(AnswerRows a, const AnswerRows& b) {
  if (b.empty()) return a;
  if (a.empty()) return b;
  assert(a.arity_ == b.arity_);
  if (a.arity_ == 0) return a;
  AnswerRows out;
  out.arity_ = a.arity_;
  out.values_.reserve(a.values_.size() + b.values_.size());
  size_t i = 0;
  size_t j = 0;
  while (i < a.rows_ || j < b.rows_) {
    std::span<const Value> next;
    if (j == b.rows_ || (i < a.rows_ && !RowLess(b[j], a[i]))) {
      next = a[i++];
      // Each side is distinct, so an equal row in `b` is its next one.
      if (j < b.rows_ && std::ranges::equal(next, b[j])) ++j;
    } else {
      next = b[j++];
    }
    out.values_.insert(out.values_.end(), next.begin(), next.end());
  }
  out.rows_ = out.values_.size() / out.arity_;
  return out;
}

}  // namespace exdl
