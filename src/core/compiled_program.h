// CompiledProgram — the immutable, thread-shareable compile artifact of
// the parse -> optimize pipeline (DESIGN.md §12, "API v2").
//
// The paper's whole optimization pipeline (adornment -> boolean subqueries
// -> projection pushing -> rule deletion, §2–§3.3) is a compile-time
// transformation: the rewritten program depends only on the source text
// and the compile options, never on the data. A CompiledProgram captures
// that artifact once — parsed program, parsed facts, optimization report
// and magic seed — and is then shared
// by value (shared_ptr<const CompiledProgram>) across any number of
// concurrent sessions. After construction nothing in it mutates, so no
// locking is needed to evaluate the same compiled program from many
// threads (the interning Context it references is internally
// synchronized; see context.h).
//
// ProgramCache (src/service/) caches these by CacheKey so a warm service
// skips re-parse and re-optimize entirely.

#ifndef EXDL_CORE_COMPILED_PROGRAM_H_
#define EXDL_CORE_COMPILED_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/optimizer.h"
#include "eval/evaluator.h"
#include "storage/database.h"
#include "util/status.h"

namespace exdl {

namespace obs {
class Telemetry;
}  // namespace obs

/// Everything that determines the compile artifact (and therefore the
/// cache key): the optimizer pipeline toggles and whether it runs at all.
/// Evaluation semantics (naive or semi-naive, boolean cut) are not here:
/// the rewrites do not depend on them, so they live only in EvalOptions.
struct CompileOptions {
  /// Optimizer pipeline configuration; used only when `optimize` is set.
  OptimizerOptions optimizer;
  /// Run the optimizer pipeline as part of compilation. When false the
  /// artifact is the parsed program as written.
  bool optimize = false;
};

/// How sessions and standing views source one predicate's relation
/// (DESIGN.md §16, "Who owns a relation"). One classification per
/// artifact; SessionEdb and MaterializedView::Apply both read it.
enum class EdbRole {
  /// Only ever read: sessions and views hold the published snapshot's
  /// relation itself (a copy-on-write copy, O(1)).
  kPublished,
  /// Written by evaluation (a rule head), by facts() or by the seed: a
  /// view keeps its own copy and appends loaded facts to it.
  kPrivate,
  /// A predicate the compile introduced: it starts empty, whatever a load
  /// put under its name, and loaded facts for it are ignored.
  kDropped,
};

class CompiledProgram {
 public:
  using Ptr = std::shared_ptr<const CompiledProgram>;

  /// Parses `source` (rules, query, ground facts) and — when
  /// options.optimize — runs the optimizer pipeline, producing the
  /// immutable artifact. Interns into `ctx` when given (the service's
  /// shared context) or a fresh context otherwise. `telemetry` is
  /// borrowed and only read during this call (optimizer phase spans).
  static Result<Ptr> Compile(std::string_view source,
                             const CompileOptions& options,
                             obs::Telemetry* telemetry = nullptr,
                             ContextPtr ctx = nullptr);

  /// Wraps an already-built program (shares its Context). `facts` are the
  /// program's ground facts, if the caller separated any.
  static Result<Ptr> FromProgram(Program program, Database facts,
                                 const CompileOptions& options = {},
                                 obs::Telemetry* telemetry = nullptr);

  /// Re-optimizes `base` under `options`, producing a new artifact that
  /// shares base's Context. base's facts carry over; a seed the rewrite
  /// produced is kept in magic_seed(), not in facts().
  static Result<Ptr> Optimize(const CompiledProgram& base,
                              const OptimizerOptions& options,
                              obs::Telemetry* telemetry = nullptr);

  /// FNV-1a over the printed program, the seed fact (when the optimizer
  /// produced one) and the semantics-affecting eval options: the printer
  /// is deterministic, and a resuming process re-derives this from its own
  /// freshly loaded session, so equal fingerprints mean "the same fixpoint
  /// computation". Session stamps it into checkpoints and checks it on
  /// resume.
  static uint64_t Fingerprint(const Program& program, const EvalOptions& eval,
                              const std::optional<Atom>& seed);

  /// The full ProgramCache key: the raw source text followed by one byte
  /// per CompileOptions toggle (framed by marker bytes so fields cannot
  /// elide into each other). Computable without parsing — that is the
  /// point: a cache hit skips the parser and the optimizer entirely. The
  /// artifact is the same under every evaluation semantics, so naive and
  /// semi-naive evaluations of one source share an entry. ProgramCache
  /// keys on this full byte string, not on a hash of it, so two distinct
  /// programs can never alias an entry (FNV-1a is not collision-resistant,
  /// and a collision would silently serve the wrong artifact).
  static std::string CacheKeyMaterial(std::string_view source,
                                      const CompileOptions& options);

  /// FNV-1a over CacheKeyMaterial — a compact fingerprint of the cache
  /// key for logs and tests. Not used as a cache index (see above).
  static uint64_t CacheKey(std::string_view source,
                           const CompileOptions& options);

  const ContextPtr& context() const { return ctx_; }
  const Program& program() const { return program_; }
  /// Ground facts parsed from the source. Copy-on-write: cloning into a
  /// session EDB is O(#relations).
  const Database& facts() const { return facts_; }
  /// The EDB a session evaluates this program over: a copy-on-write clone
  /// of `snapshot` without the relations of predicates the optimizer
  /// introduced, plus facts(). Session::Run adds the seed fact.
  Database SessionEdb(const Database& snapshot) const;
  /// `pred`'s role in this artifact's sessions and views.
  EdbRole RoleOf(PredId pred) const;
  /// True when this artifact is optimized and `snapshot` holds rows for a
  /// predicate the source rules derive. The rewrites read only what the
  /// rules derive (Example 1's tc is gone), so those rows could be lost:
  /// such a snapshot needs the unoptimized artifact.
  bool HidesLoadedFacts(const Database& snapshot) const;
  const OptimizationReport& report() const { return report_; }
  /// OK, or kCancelled when the optimizer stopped at a phase boundary.
  const Status& optimize_termination() const { return optimize_termination_; }
  /// The seed fact of a magic or factoring rewrite, which Session::Run
  /// inserts into every EDB it evaluates over. Kept as one atom rather
  /// than a one-row relation in facts(): the program cache holds one
  /// artifact per distinct bound query.
  const std::optional<Atom>& magic_seed() const { return magic_seed_; }
  bool optimized() const { return optimized_; }

 private:
  CompiledProgram(ContextPtr ctx, Program program);

  /// Fills private_ from program_, facts_ and magic_seed_ (introduced_
  /// must already be set).
  void ClassifyPrivate();
  /// Runs the optimizer over `source` with facts_ (already set) and makes
  /// the result this artifact's program, report and seed. Shared body of
  /// FromProgram and Optimize.
  Status OptimizeFrom(const Program& source, OptimizerOptions options,
                      obs::Telemetry* telemetry);

  ContextPtr ctx_;
  Program program_;
  Database facts_;
  OptimizationReport report_;
  Status optimize_termination_;
  std::optional<Atom> magic_seed_;
  bool optimized_ = false;
  /// Predicates of program_ that the source program and its facts do not
  /// name and that may hold base facts, sorted: the kDropped role.
  /// SessionEdb drops their snapshot relations.
  std::vector<PredId> introduced_;
  /// The kPrivate role, sorted: rule heads, facts() predicates and the
  /// seed's predicate, minus introduced_.
  std::vector<PredId> private_;
  /// Head predicates of the source rules, sorted; empty unless optimized.
  std::vector<PredId> source_derived_;
};

}  // namespace exdl

#endif  // EXDL_CORE_COMPILED_PROGRAM_H_
