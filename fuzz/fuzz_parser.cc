// libFuzzer harness for the lexer + parser.
//
// Feeds arbitrary bytes through ParseProgram and, when parsing succeeds,
// round-trips the printed program through the parser again. The parser must
// never crash, hang, or allocate unboundedly: the governance limits
// (kMaxSourceBytes, kMaxIdentifierLength, kMaxAtomArgs, kMaxBodyLiterals,
// kMaxClauses) turn adversarial input into kInvalidArgument instead.
//
// The default build links fuzz/replay_main.cc and replays the seed corpus
// as a ctest; -DEXDL_FUZZ=ON under Clang links libFuzzer instead.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "ast/printer.h"
#include "parser/parser.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view source(reinterpret_cast<const char*>(data), size);
  exdl::ContextPtr ctx = std::make_shared<exdl::Context>();
  exdl::Result<exdl::ParsedUnit> parsed = exdl::ParseProgram(source, ctx);
  if (!parsed.ok()) return 0;

  // Round-trip: printing a successfully parsed program must re-parse.
  std::string printed = exdl::ToString(parsed->program);
  for (const exdl::Atom& fact : parsed->facts) {
    printed += exdl::ToString(*ctx, fact) + ".\n";
  }
  exdl::ContextPtr ctx2 = std::make_shared<exdl::Context>();
  exdl::Result<exdl::ParsedUnit> reparsed = exdl::ParseProgram(printed, ctx2);
  if (!reparsed.ok()) __builtin_trap();
  return 0;
}
