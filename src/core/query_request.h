// QueryRequest — the one request object every submission surface speaks
// (DESIGN.md §12, API v2).
//
// A request is "evaluate this source, under this name, within this
// budget". The service, the daemon's SUBMIT and REGISTER_QUERY frames, and
// the CLI all build one; it is plain data, aggregate-initializable at call
// sites that only need `{source, name}`. Everything else about an
// evaluation has exactly one home elsewhere: semantics and telemetry in
// the service's EvalOptions, the compile pipeline in its
// CompileOptions, and standing registration in
// QueryService::RegisterStandingQuery. None of these fields feeds the
// program-cache key.
//
// Field order is append-only: existing aggregate initializers like
// `QueryRequest{source, name}` must keep meaning what they meant.

#ifndef EXDL_CORE_QUERY_REQUEST_H_
#define EXDL_CORE_QUERY_REQUEST_H_

#include <optional>
#include <string>

#include "eval/evaluator.h"

namespace exdl {

// Members without another default carry `{}` so a designated initializer
// that skips them (`QueryRequest{.source = s, .name = n}`) stays clean
// under -Wmissing-field-initializers, which CI turns into an error.
struct QueryRequest {
  /// Full query source: rules, query, and (optional) ground facts, which
  /// are evaluated on top of the service's current EDB snapshot.
  std::string source;
  /// Provenance label (file name) echoed into the response and telemetry.
  std::string name{};
  /// Per-request budget override. When set it replaces the service-template
  /// budget for this query, cancellation token included (the daemon's
  /// admission control resolves the client ask against the tenant policy
  /// and passes the clamped result, plus the token it cancels on client
  /// disconnect, here). EXDL_BUDGET_* environment variables still fill
  /// limits the override leaves at zero.
  std::optional<EvalBudget> budget{};
};

}  // namespace exdl

#endif  // EXDL_CORE_QUERY_REQUEST_H_
