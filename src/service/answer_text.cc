#include "service/answer_text.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace exdl {

std::string RenderAnswerRows(const Context& ctx, const AnswerRows& answers) {
  // Resolve every value and sum the name sizes in one pass under one
  // shared lock. Interned names never change and never move (Context's
  // tables are deque-backed), so the copying runs after the lock is
  // released: interning waits only for lookups.
  const std::vector<Value>& values = answers.values();
  std::vector<const std::string*> names(values.size());
  // Every row ends in '\n' and separates its values with '\t'.
  size_t bytes = answers.size() * std::max<size_t>(answers.arity(), 1);
  ctx.ReadTables([&](const auto& symbols, const auto&) {
    for (size_t i = 0; i < values.size(); ++i) {
      names[i] = &symbols[values[i]];
      bytes += names[i]->size();
    }
  });
  std::string out(bytes, '\0');
  char* dst = out.data();
  const std::string* const* next = names.data();
  for (size_t r = 0; r < answers.size(); ++r) {
    for (uint32_t i = 0; i < answers.arity(); ++i, ++next) {
      if (i > 0) *dst++ = '\t';
      std::memcpy(dst, (*next)->data(), (*next)->size());
      dst += (*next)->size();
    }
    *dst++ = '\n';
  }
  return out;
}

}  // namespace exdl
