#include "core/compiled_program.h"

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

}  // namespace

CompiledProgram::CompiledProgram(ContextPtr ctx, Program program)
    : ctx_(std::move(ctx)), program_(std::move(program)) {}

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
    OptimizerOptions opt = options.optimizer;
    if (opt.telemetry == nullptr) opt.telemetry = telemetry;
    EXDL_ASSIGN_OR_RETURN(OptimizedProgram optimized,
                          OptimizeExistential(out->program_, opt));
    out->program_ = std::move(optimized.program);
    out->report_ = std::move(optimized.report);
    out->optimize_termination_ = std::move(optimized.termination);
    out->magic_seed_ = std::move(optimized.magic_seed);
    out->optimized_ = true;
  }
  return Ptr(std::move(out));
}

Result<CompiledProgram::Ptr> CompiledProgram::Optimize(
    const CompiledProgram& base, const OptimizerOptions& options,
    obs::Telemetry* telemetry) {
  OptimizerOptions opt = options;
  if (opt.telemetry == nullptr) opt.telemetry = telemetry;
  EXDL_ASSIGN_OR_RETURN(OptimizedProgram optimized,
                        OptimizeExistential(base.program_, opt));
  std::shared_ptr<CompiledProgram> out(new CompiledProgram(
      base.ctx_, std::move(optimized.program)));
  out->facts_ = base.facts_.Clone();
  out->report_ = std::move(optimized.report);
  out->optimize_termination_ = std::move(optimized.termination);
  out->magic_seed_ = std::move(optimized.magic_seed);
  out->optimized_ = true;
  return Ptr(std::move(out));
}

}  // namespace exdl
