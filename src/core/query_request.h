// QueryRequest — the one request object every submission surface speaks
// (DESIGN.md §12, API v2).
//
// The service, the daemon's SUBMIT frame, and the CLI all grew their own
// parameter lists for the same logical ask: "evaluate this source with
// these knobs". This struct collapses them. A request is plain data —
// buildable field-by-field, aggregate-initializable at call sites that
// only need `{source, name}` — and flows unchanged from the wire (or the
// CLI flag parser) down to QueryService::Submit, so a knob added here
// is one field instead of a new parameter threaded through four layers.
// None of its fields feeds the program-cache key: they change how an
// evaluation runs, never what the compile produces.
//
// Field order is append-only: existing aggregate initializers like
// `QueryRequest{source, name}` must keep meaning what they meant.

#ifndef EXDL_CORE_QUERY_REQUEST_H_
#define EXDL_CORE_QUERY_REQUEST_H_

#include <cstdint>
#include <optional>
#include <string>

#include "eval/evaluator.h"
#include "util/cancellation.h"

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
  /// budget for this query (the daemon's admission control resolves the
  /// client ask against the tenant policy and passes the clamped result
  /// here). EXDL_BUDGET_* environment variables still fill limits the
  /// override leaves at zero.
  std::optional<EvalBudget> budget{};
  /// Optional per-request cancellation, merged into the session budget.
  /// Borrowed: must stay alive until the ticket's response is produced
  /// (the daemon cancels abandoned queries through this on client
  /// disconnect). Overrides any token in `budget`.
  CancellationToken* cancellation = nullptr;
  /// Admission-control identity the request was admitted under; "" means
  /// the default quota. The daemon stamps this from the connection's
  /// HELLO — the service records it for observability only and applies no
  /// policy of its own.
  std::string tenant{};
  /// Round-boundary checkpointing for this evaluation (DESIGN.md §11):
  /// when non-empty, the session checkpoints into this directory every
  /// `checkpoint_every_rounds` rounds. Flat fields rather than a
  /// CheckpointOptions so the wire and CLI layers need no session.h.
  std::string checkpoint_directory{};
  uint32_t checkpoint_every_rounds = 1;
  /// Register the query as a standing query (DESIGN.md §16): after this
  /// evaluation completes it is installed as a materialized view that
  /// LoadFacts maintains incrementally across generations. Submitted
  /// through QueryService::RegisterStandingQuery, which returns the
  /// standing id for PollStandingQuery.
  bool standing = false;
};

}  // namespace exdl

#endif  // EXDL_CORE_QUERY_REQUEST_H_
