// Frozen (ground) instances of rules, the raw material of every uniform
// equivalence test (Section 4, Example 4): each variable of the rule is
// replaced by a constant the programs under test do not use; the
// instantiated body becomes an input database (which may contain facts
// for derived predicates — that is the point of *uniform* notions) and the
// instantiated head is the fact whose (query-relevant) derivability is
// checked.

#ifndef EXDL_EQUIV_FREEZE_H_
#define EXDL_EQUIV_FREEZE_H_

#include <unordered_map>
#include <unordered_set>

#include "ast/program.h"
#include "ast/rule.h"
#include "storage/database.h"
#include "util/status.h"

namespace exdl {

struct FrozenRule {
  Database body_facts;
  Atom head;
  std::unordered_map<SymbolId, SymbolId> var_to_const;
  /// The constants the frozen names avoid: every constant of the rule and
  /// of the program it is tested against. A test that needs one more
  /// unused constant draws it from Context::InternUnused with its own
  /// hint and this set.
  std::unordered_set<SymbolId> avoided;
};

/// Freezes `rule` for a test against `program`: its variables become
/// frz_0, frz_1, ... in first-occurrence order, skipping every constant of
/// `rule` and `program`. The names depend only on those two, so repeated
/// compiles over a shared Context reuse the same interned constants
/// instead of growing it by one per variable per test.
FrozenRule FreezeRule(const Rule& rule, const Program& program);

}  // namespace exdl

#endif  // EXDL_EQUIV_FREEZE_H_
