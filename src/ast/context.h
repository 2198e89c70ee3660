// Context: interning tables shared by a Program and everything derived
// from it.
//
// Two tables live here:
//   * symbols — names of constants and variables, interned to SymbolId;
//   * predicates — (base name, stored arity, adornment) triples interned to
//     PredId. The adorned version `a^nd` of `a` is a distinct predicate, as
//     in the paper; after projection pushing, `a^nd` with arity 1 is again
//     distinct from the unprojected `a^nd` with arity 2.
//
// A Context is shared via shared_ptr: transformations produce new Programs
// that reference the same Context, so PredIds and SymbolIds remain
// comparable across the original and every rewritten program.
//
// Concurrency: the tables are append-only and guarded by a shared_mutex —
// reads (SymbolName, predicate, lookups) take a shared lock, interning
// takes an exclusive lock. Symbol and predicate storage is deque-backed so
// the `const&` returned by SymbolName/predicate stays valid across later
// interning; one QueryService can therefore render answers for a finished
// session while another session's compile is still interning. Interning is
// still *serialized* by callers that need deterministic ids (QueryService's
// intern mutex): the lock makes concurrent access safe, not ordered.
// A reader that walks whole tables (the snapshot encoder) goes through
// ReadTables, which holds one lock for the whole walk.

#ifndef EXDL_AST_CONTEXT_H_
#define EXDL_AST_CONTEXT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "ast/adornment.h"
#include "util/string_util.h"

namespace exdl {

using SymbolId = uint32_t;
using PredId = uint32_t;
inline constexpr uint32_t kInvalidId = 0xFFFFFFFFu;

/// Metadata for one interned predicate version.
struct PredicateInfo {
  SymbolId name = kInvalidId;  ///< Base name symbol ("a" for a^nd).
  uint32_t arity = 0;          ///< Number of *stored* argument positions.
  Adornment adornment;         ///< Empty for unadorned predicates.

  /// True if some positions were projected out (adornment longer than the
  /// stored arity, per Lemma 3.2).
  bool IsProjected() const {
    return !adornment.empty() && adornment.size() != arity;
  }
};

/// Interning tables for symbols and predicate versions.
class Context {
 public:
  Context() = default;
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // -- Symbols ---------------------------------------------------------

  /// Interns `name`, returning the existing id if already present.
  SymbolId InternSymbol(std::string_view name);
  /// Looks up `name` without interning.
  std::optional<SymbolId> FindSymbol(std::string_view name) const;
  /// The reference stays valid for the Context's lifetime (deque-backed).
  const std::string& SymbolName(SymbolId id) const;
  size_t NumSymbols() const;

  /// Interns `<hint>_<n>` for n = *next, *next + 1, ... (advancing *next)
  /// and returns the first such symbol `taken` does not reject. This is
  /// the one source of generated names (inlined variables, boolean
  /// components, folding auxiliaries, frozen constants, monadic states):
  /// callers start *next at 0 on every compile, so repeated compiles reuse
  /// the same few interned symbols instead of growing a long-lived
  /// context. '_' keeps the names lexable, so printed programs re-parse.
  template <typename Taken>
  SymbolId InternUnused(std::string_view hint, size_t* next, Taken&& taken) {
    SymbolId name;
    do {
      name = InternSymbol(StrCat(hint, "_", std::to_string((*next)++)));
    } while (taken(name));
    return name;
  }

  // -- Predicates ------------------------------------------------------

  /// Interns the predicate version (name, arity, adornment).
  PredId InternPredicate(SymbolId name, uint32_t arity,
                         const Adornment& adornment = Adornment());
  /// Convenience overload interning the name string too.
  PredId InternPredicate(std::string_view name, uint32_t arity,
                         const Adornment& adornment = Adornment());
  /// Looks up without interning.
  std::optional<PredId> FindPredicate(SymbolId name, uint32_t arity,
                                      const Adornment& adornment) const;

  /// The reference stays valid for the Context's lifetime (deque-backed).
  const PredicateInfo& predicate(PredId id) const;
  size_t NumPredicates() const;

  /// Runs `fn(symbols, predicates)` — both tables, indexed by id — under
  /// one shared lock, so the sizes `fn` sees stay fixed for the whole call
  /// and every predicate's name id is below symbols.size(). This is the
  /// consistent read a snapshot needs while other threads keep interning
  /// (re-reading NumSymbols() per element is not). `fn` must not call back
  /// into this Context: the lock is not re-entrant.
  template <typename Fn>
  void ReadTables(Fn&& fn) const {
    std::shared_lock lock(mu_);
    fn(std::as_const(symbols_), std::as_const(preds_));
  }

  /// False for the predicates no fact can populate: adorned versions
  /// (source facts for one make the optimizer skip, LOAD_FACTS refuses
  /// them) and `$` predicates (the lexer rejects `$`). The rewrites rely
  /// on those starting empty.
  bool MayHoldBaseFacts(PredId id) const;

  /// Human-readable name: "a", "a@nd", or "a@nd/1" when projected.
  std::string PredicateDisplayName(PredId id) const;

 private:
  struct PredKey {
    SymbolId name;
    uint32_t arity;
    std::string adornment;
    bool operator==(const PredKey&) const = default;
  };
  struct PredKeyHash {
    size_t operator()(const PredKey& k) const {
      size_t h = std::hash<uint64_t>()((uint64_t{k.name} << 32) | k.arity);
      return h ^ (std::hash<std::string>()(k.adornment) * 1099511628211ULL);
    }
  };

  // Unlocked internals; callers hold mu_ (InternPredicate needs the symbol
  // intern under the same exclusive section, and shared_mutex must not be
  // re-entered from the same thread).
  SymbolId InternSymbolLocked(std::string_view name);
  PredId InternPredicateLocked(SymbolId name, uint32_t arity,
                               const Adornment& adornment);

  mutable std::shared_mutex mu_;
  std::deque<std::string> symbols_;  ///< Deque: stable refs across interns.
  std::unordered_map<std::string_view, SymbolId> symbol_ids_;
  std::deque<PredicateInfo> preds_;  ///< Deque: stable refs across interns.
  std::unordered_map<PredKey, PredId, PredKeyHash> pred_ids_;
};

using ContextPtr = std::shared_ptr<Context>;

}  // namespace exdl

#endif  // EXDL_AST_CONTEXT_H_
