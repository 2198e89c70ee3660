#include "core/compiled_program.h"

#include <algorithm>
#include <unordered_set>

#include "ast/printer.h"
#include "parser/parser.h"

namespace exdl {

namespace {

uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// The predicates `facts` holds tuples for, sorted: the optimizer runs no
/// phase when one of them is derived or adorned.
std::vector<PredId> FactPredicates(const Database& facts) {
  std::vector<PredId> preds;
  preds.reserve(facts.relations().size());
  for (const auto& [pred, rel] : facts.relations()) preds.push_back(pred);
  std::sort(preds.begin(), preds.end());
  return preds;
}

/// The predicates of `optimized` that neither `source` nor its `facts`
/// name (the ones the rewrites introduced, such as boolean components)
/// and that a load could still populate, sorted.
std::vector<PredId> IntroducedPredicates(const Program& source,
                                         const Database& facts,
                                         const Program& optimized) {
  const Context& ctx = source.ctx();
  const std::unordered_set<PredId> known = source.AllPredicates();
  std::vector<PredId> out;
  for (PredId p : optimized.AllPredicates()) {
    if (!known.contains(p) && facts.Find(p) == nullptr &&
        ctx.MayHoldBaseFacts(p)) {
      out.push_back(p);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The head predicates of `program`'s rules, sorted and distinct.
std::vector<PredId> HeadPredicates(const Program& program) {
  std::vector<PredId> preds;
  for (const Rule& rule : program.rules()) preds.push_back(rule.head.pred);
  std::sort(preds.begin(), preds.end());
  preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
  return preds;
}

}  // namespace

CompiledProgram::CompiledProgram(ContextPtr ctx, Program program)
    : ctx_(std::move(ctx)), program_(std::move(program)) {}

void CompiledProgram::ClassifyPrivate() {
  std::vector<PredId> preds = HeadPredicates(program_);
  for (const auto& [pred, rel] : facts_.relations()) preds.push_back(pred);
  if (magic_seed_) preds.push_back(magic_seed_->pred);
  std::sort(preds.begin(), preds.end());
  preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
  std::erase_if(preds, [&](PredId p) {
    return std::binary_search(introduced_.begin(), introduced_.end(), p);
  });
  private_ = std::move(preds);
}

EdbRole CompiledProgram::RoleOf(PredId pred) const {
  if (std::binary_search(introduced_.begin(), introduced_.end(), pred)) {
    return EdbRole::kDropped;
  }
  if (std::binary_search(private_.begin(), private_.end(), pred)) {
    return EdbRole::kPrivate;
  }
  return EdbRole::kPublished;
}

bool CompiledProgram::HidesLoadedFacts(const Database& snapshot) const {
  return std::any_of(source_derived_.begin(), source_derived_.end(),
                     [&](PredId p) {
                       const Relation* rel = snapshot.Find(p);
                       return rel != nullptr && rel->size() > 0;
                     });
}

uint64_t CompiledProgram::Fingerprint(const Program& program,
                                      const EvalOptions& eval,
                                      const std::optional<Atom>& seed) {
  std::string repr = ToString(program);
  repr += eval.seminaive ? "|seminaive" : "|naive";
  repr += eval.boolean_cut ? "|cut" : "|nocut";
  // A factored query keeps its constants only in the seed, so two bound
  // queries differing in a constant print the same rules.
  if (seed) repr += "|seed " + ToString(program.ctx(), *seed);
  return Fnv1a(1469598103934665603ULL, repr.data(), repr.size());
}

std::string CompiledProgram::CacheKeyMaterial(std::string_view source,
                                              const CompileOptions& options) {
  // Every toggle that changes the artifact gets one byte; the leading
  // marker bytes keep fields from eliding into each other if more are
  // appended later.
  const OptimizerOptions& o = options.optimizer;
  const unsigned char bits[] = {
      0xC1,
      static_cast<unsigned char>(options.optimize),
      0xC2,
      static_cast<unsigned char>(o.adorn),
      static_cast<unsigned char>(o.push_projections),
      static_cast<unsigned char>(o.extract_components),
      static_cast<unsigned char>(o.add_unit_rules),
      static_cast<unsigned char>(o.delete_rules),
      static_cast<unsigned char>(o.apply_magic),
      static_cast<unsigned char>(o.enable_folding),
      0xC3,
      static_cast<unsigned char>(o.deletion.use_subsumption),
      static_cast<unsigned char>(o.deletion.use_summaries),
      static_cast<unsigned char>(o.deletion.use_sagiv),
      static_cast<unsigned char>(o.deletion.use_optimistic),
      static_cast<unsigned char>(o.deletion.cleanup),
  };
  std::string material;
  material.reserve(source.size() + sizeof(bits));
  material.append(source.data(), source.size());
  material.append(reinterpret_cast<const char*>(bits), sizeof(bits));
  return material;
}

uint64_t CompiledProgram::CacheKey(std::string_view source,
                                   const CompileOptions& options) {
  const std::string material = CacheKeyMaterial(source, options);
  return Fnv1a(1469598103934665603ULL, material.data(), material.size());
}

Result<CompiledProgram::Ptr> CompiledProgram::Compile(
    std::string_view source, const CompileOptions& options,
    obs::Telemetry* telemetry, ContextPtr ctx) {
  if (ctx == nullptr) ctx = std::make_shared<Context>();
  EXDL_ASSIGN_OR_RETURN(ParsedUnit parsed, ParseProgram(source, ctx));
  Database facts;
  for (const Atom& fact : parsed.facts) {
    EXDL_RETURN_IF_ERROR(facts.AddFact(fact));
  }
  return FromProgram(std::move(parsed.program), std::move(facts), options,
                     telemetry);
}

Database CompiledProgram::SessionEdb(const Database& snapshot) const {
  Database edb = snapshot.Clone();
  // The rewrites treat their own predicates as starting empty, whatever a
  // load may have put under the same names.
  for (PredId p : introduced_) edb.Erase(p);
  for (const auto& [pred, rel] : facts_.relations()) {
    Relation& dst = edb.GetOrCreate(pred, rel.arity());
    for (size_t row = 0; row < rel.size(); ++row) {
      dst.Insert(rel.view().Scan(row));
    }
  }
  return edb;
}

Result<CompiledProgram::Ptr> CompiledProgram::FromProgram(
    Program program, Database facts, const CompileOptions& options,
    obs::Telemetry* telemetry) {
  // Copy the context out before the move: the two constructor arguments
  // have unspecified evaluation order, so `program.context()` must not
  // race the move-out of `program` in the same call.
  ContextPtr ctx = program.context();
  std::shared_ptr<CompiledProgram> out(
      new CompiledProgram(std::move(ctx), std::move(program)));
  out->facts_ = std::move(facts);
  if (options.optimize) {
    EXDL_RETURN_IF_ERROR(
        out->OptimizeFrom(out->program_, options.optimizer, telemetry));
  }
  out->ClassifyPrivate();
  return Ptr(std::move(out));
}

Result<CompiledProgram::Ptr> CompiledProgram::Optimize(
    const CompiledProgram& base, const OptimizerOptions& options,
    obs::Telemetry* telemetry) {
  std::shared_ptr<CompiledProgram> out(
      new CompiledProgram(base.ctx_, Program(base.ctx_)));
  out->facts_ = base.facts_.Clone();
  EXDL_RETURN_IF_ERROR(out->OptimizeFrom(base.program_, options, telemetry));
  out->ClassifyPrivate();
  return Ptr(std::move(out));
}

Status CompiledProgram::OptimizeFrom(const Program& source,
                                     OptimizerOptions options,
                                     obs::Telemetry* telemetry) {
  if (options.telemetry == nullptr) options.telemetry = telemetry;
  EXDL_ASSIGN_OR_RETURN(
      OptimizedProgram optimized,
      OptimizeExistential(source, options, FactPredicates(facts_)));
  introduced_ = IntroducedPredicates(source, facts_, optimized.program);
  source_derived_ = HeadPredicates(source);
  // `source` may be program_ itself: replace it only after its last read.
  program_ = std::move(optimized.program);
  report_ = std::move(optimized.report);
  optimize_termination_ = std::move(optimized.termination);
  magic_seed_ = std::move(optimized.magic_seed);
  optimized_ = true;
  return Status::Ok();
}

}  // namespace exdl
