// UnaryBitset: a word-packed membership bitset over interned symbol ids,
// the dense representation behind the monadic fast path (DESIGN.md §14).
//
// Arity-1 relations keep one of these alongside the tuple arena: bit v is
// set iff the single-column tuple (v) is present. Symbol ids are interning
// order, so real programs produce small dense universes and the bitset is
// a few cache lines. The arena stays authoritative for row ids and
// insertion order (it doubles as the enumeration side log); the bitset is
// derived data that accelerates duplicate rejection and lets the evaluator
// run unary joins as word-wise AND/ANDNOT kernels instead of per-tuple
// index probes.

#ifndef EXDL_STORAGE_UNARY_BITSET_H_
#define EXDL_STORAGE_UNARY_BITSET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace exdl {

class UnaryBitset {
 public:
  static constexpr size_t kWordBits = 64;

  /// True if bit `v` is set. Out-of-range ids are absent, not an error.
  bool Test(uint32_t v) const {
    const size_t w = v / kWordBits;
    if (w >= words_.size()) return false;
    return (words_[w] >> (v % kWordBits)) & 1u;
  }

  /// Sets bit `v`, growing the word array as needed. Returns true if the
  /// bit was newly set (i.e. the value is new to the set).
  bool Set(uint32_t v) {
    const size_t w = v / kWordBits;
    if (w >= words_.size()) words_.resize(w + 1, 0);
    const uint64_t mask = uint64_t{1} << (v % kWordBits);
    if (words_[w] & mask) return false;
    words_[w] |= mask;
    return true;
  }

  size_t num_words() const { return words_.size(); }
  const uint64_t* words() const { return words_.data(); }
  bool empty() const { return words_.empty(); }

  void Clear() { words_.clear(); }

  /// Calls `fn(v)` for every set bit v in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      for (uint64_t word = words_[w]; word != 0; word &= word - 1) {
        fn(static_cast<uint32_t>(w * kWordBits + std::countr_zero(word)));
      }
    }
  }

  /// Population count across all words.
  uint64_t Count() const {
    uint64_t n = 0;
    for (uint64_t w : words_) n += std::popcount(w);
    return n;
  }

 private:
  std::vector<uint64_t> words_;
};

}  // namespace exdl

#endif  // EXDL_STORAGE_UNARY_BITSET_H_
