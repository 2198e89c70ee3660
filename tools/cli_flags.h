// Command-line flag helpers shared by exdlc and exdld.
//
// Each binary declares its flags once in a FlagSpec table and validates
// the argument vector against it (ConsumeValue checks each value token);
// the accessors below then read flag values. A missing or out-of-range
// value prints one line to stderr and exits 2 (usage).

#ifndef EXDL_TOOLS_CLI_FLAGS_H_
#define EXDL_TOOLS_CLI_FLAGS_H_

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace exdl::cli {

struct FlagSpec {
  const char* name;
  bool takes_value;
  /// Bitmask of the subcommands that accept the flag (exdlc); a binary
  /// without subcommands leaves it at "all".
  uint32_t commands = ~0u;
};

inline const FlagSpec* FindFlag(std::span<const FlagSpec> table,
                                const std::string& arg) {
  for (const FlagSpec& spec : table) {
    if (arg == spec.name) return &spec;
  }
  return nullptr;
}

/// Validation step for the value-taking flag at args[i]: returns the index
/// of its value token. Exits 2 with "<flag> requires a value" when the flag
/// is the last token or the next token is itself a flag of `table` — the
/// accessors below find a flag by its first occurrence, so a value that
/// names a flag would be read as that flag.
inline size_t ConsumeValue(std::span<const FlagSpec> table,
                           const std::vector<std::string>& args, size_t i) {
  if (i + 1 >= args.size() || FindFlag(table, args[i + 1]) != nullptr) {
    std::cerr << args[i] << " requires a value\n";
    std::exit(2);
  }
  return i + 1;
}

inline bool HasFlag(const std::vector<std::string>& args,
                    const std::string& flag) {
  for (const std::string& a : args) {
    if (a == flag) return true;
  }
  return false;
}

/// The index of the value token following `flag`, or args.size() when the
/// flag is absent. Exits 2 when the flag is the last token.
inline size_t FlagValueIndex(const std::vector<std::string>& args,
                             const std::string& flag) {
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] != flag) continue;
    if (i + 1 >= args.size()) {
      std::cerr << flag << " requires a value\n";
      std::exit(2);
    }
    return i + 1;
  }
  return args.size();
}

/// String-valued flag (e.g. "--metrics-json out.json"), `fallback` when
/// absent.
inline std::string FlagString(const std::vector<std::string>& args,
                              const std::string& flag, std::string fallback) {
  const size_t at = FlagValueIndex(args, flag);
  return at < args.size() ? args[at] : fallback;
}

/// The integer following `flag`, which must lie in [min_value, max_value];
/// `fallback` when the flag is absent.
inline uint64_t FlagValue64(
    const std::vector<std::string>& args, const std::string& flag,
    uint64_t fallback, uint64_t min_value = 1,
    uint64_t max_value = std::numeric_limits<uint64_t>::max()) {
  const size_t at = FlagValueIndex(args, flag);
  if (at == args.size()) return fallback;
  try {
    const unsigned long long v = std::stoull(args[at]);
    if (v < min_value || v > max_value) throw std::out_of_range("range");
    return static_cast<uint64_t>(v);
  } catch (...) {
    std::cerr << flag << " requires a positive integer, got '" << args[at]
              << "'\n";
    std::exit(2);
  }
}

/// 32-bit FlagValue64 for counts and durations; the caller passes its own
/// range.
inline uint32_t FlagValue(const std::vector<std::string>& args,
                          const std::string& flag, uint32_t fallback,
                          uint32_t min_value, uint32_t max_value) {
  return static_cast<uint32_t>(
      FlagValue64(args, flag, fallback, min_value, max_value));
}

}  // namespace exdl::cli

#endif  // EXDL_TOOLS_CLI_FLAGS_H_
