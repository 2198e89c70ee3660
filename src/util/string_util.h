// Small string helpers shared across modules.

#ifndef EXDL_UTIL_STRING_UTIL_H_
#define EXDL_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace exdl {

/// Concatenates `pieces` (anything convertible to std::string_view) into
/// one string allocated once at its exact size. Prefer it to chains of
/// `"literal" + std::string&&`: those regrow the buffer per piece, and GCC
/// 12 reports a false -Wrestrict inside basic_string::insert for them.
template <typename... Pieces>
std::string StrCat(const Pieces&... pieces) {
  const std::string_view views[] = {std::string_view(pieces)...};
  size_t size = 0;
  for (std::string_view v : views) size += v.size();
  std::string out;
  out.reserve(size);
  for (std::string_view v : views) out.append(v);
  return out;
}

/// Joins `parts` with `sep` ("a", "b" -> "a,b").
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `s` on `sep`, trimming ASCII whitespace from each piece; empty
/// pieces are kept.
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

}  // namespace exdl

#endif  // EXDL_UTIL_STRING_UTIL_H_
