// Traced half of the benchmark: the workload's seeded operation stream,
// replayed in-process in two phases.
//
//   service phase  QueryService's public calls (Submit+Await, LoadFacts,
//                  PollStandingQuery) with one span each: the in-process
//                  latency the daemon adds its framing and queueing to.
//   layer phase    the calls QueryService makes for each operation, made
//                  here in the same order — ProgramCache, ParseProgram,
//                  CompiledProgram, Database, Session, RenderAnswerRows,
//                  DurableEdb, MaterializedView — with a span around each,
//                  so every layer's self time and counters are measured
//                  where the work happens.
//
// Spans carry the request id the socket half gives the same operation.
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/compiled_program.h"
#include "core/session.h"
#include "durability/durable_edb.h"
#include "harness.h"
#include "ivm/materialized_view.h"
#include "parser/parser.h"
#include "service/answer_text.h"
#include "service/program_cache.h"
#include "stats.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using exdl::CompiledProgram;
using exdl::Database;

using Metrics = std::map<std::string, double>;

/// The query stream the socket half's clients send, in request-id order
/// (serve_mix's two client streams interleaved).
class QueryFeed {
 public:
  explicit QueryFeed(const Options& options) {
    if (options.workload == Workload::kServeMix) {
      for (int i = 0; i < 2; ++i) serve_.emplace_back(options.seed, i, 2);
      warmup_ = serve_[0].Warmup();
      facts_ = ChainEdbSource();
    } else {
      graph_ = std::make_unique<Graph>(Graph::Generate(options.seed));
      deep_.emplace(options.seed, graph_.get());
      facts_ = graph_->Source();
    }
  }
  Query Next() {
    if (deep_.has_value()) return deep_->Next();
    Query q = serve_[turn_].Next();
    turn_ = (turn_ + 1) % serve_.size();
    return q;
  }
  const std::string& facts() const { return facts_; }
  const std::vector<Query>& warmup() const { return warmup_; }

 private:
  std::vector<ServeMixStream> serve_;
  std::unique_ptr<Graph> graph_;
  std::optional<DeepClosureStream> deep_;
  size_t turn_ = 0;
  std::string facts_;
  std::vector<Query> warmup_;
};

double MedianOf(const Tracer& trace, std::string_view span) {
  return Median(DurationsUs(trace.spans(), span));
}

/// Every layer's self time per operation of one phase.
void LayerSelfPerOp(const Tracer& trace, double ops, Metrics& m) {
  for (const auto& [layer, us] : LayerSelfUs(trace.spans())) {
    m[layer + ".self_us_per_op"] = ops > 0 ? us / ops : 0;
  }
}

/// Parses a facts-only source into a fresh database.
exdl::Result<Database> ParseFacts(std::string_view source,
                                  const exdl::ContextPtr& ctx) {
  EXDL_ASSIGN_OR_RETURN(exdl::ParsedUnit parsed,
                        exdl::ParseProgram(source, ctx));
  Database db;
  for (const exdl::Atom& fact : parsed.facts) {
    EXDL_RETURN_IF_ERROR(db.AddFact(fact));
  }
  return db;
}

/// The EDB QueryService evaluates a query over: the snapshot plus the
/// program's own ground facts.
Database SessionEdb(const Database& snapshot, const CompiledProgram& compiled) {
  Database edb = snapshot.Clone();
  for (const auto& [pred, rel] : compiled.facts().relations()) {
    exdl::Relation& dst = edb.GetOrCreate(pred, rel.arity());
    for (size_t row = 0; row < rel.size(); ++row) {
      dst.Insert(rel.view().Scan(row));
    }
  }
  return edb;
}

// --- serve_mix and deep_closure --------------------------------------------

void ServiceQueries(const Options& options, double phase_s,
                    ReplayResult& out) {
  QueryFeed feed(options);
  exdl::QueryService service(ServiceOptionsFor(options.workload));
  exdl::Status loaded = service.LoadFacts(feed.facts());
  out.tally.Record(loaded.ok(), "replay LoadFacts: " + loaded.ToString(), false);
  AnswerChecker checker;
  Tracer trace;
  auto run = [&](const Query& q, bool traced) {
    exdl::QueryRequest request;
    request.source = q.source;
    request.name = "r" + std::to_string(q.request_id);
    std::optional<Tracer::Scope> span;
    if (traced) span.emplace(&trace, "service.submit_await", q.request_id);
    exdl::QueryResponse response = service.Await(service.Submit(request));
    span.reset();
    const bool ok = response.status.ok() && response.result.termination.ok() &&
                    checker.Check(q, exdl::RenderAnswerRows(
                                         *service.ctx(), response.result.answers));
    out.tally.Record(ok, "service replay: request " +
                             std::to_string(q.request_id), true);
  };
  for (const Query& q : feed.warmup()) run(q, false);
  const int64_t deadline = NowNs() + static_cast<int64_t>(phase_s * 1e9);
  while (NowNs() < deadline) run(feed.Next(), true);
  out.metrics["service.submit_await_us"] =
      MedianOf(trace, "service.submit_await");
  out.trace.Merge(trace);
}

/// Counters of the layer phase, summed over measured operations.
struct QueryCounters {
  double ops = 0;
  double compiles = 0, positions_dropped = 0, rules_deleted = 0;
  exdl::EvalStats stats;
  std::vector<double> max_round_us;
  double eval_cpu_s = 0, eval_wall_s = 0;
  double rehashes = 0, words_scanned = 0;
};

void LayeredQueries(const Options& options, double phase_s,
                    ReplayResult& out) {
  QueryFeed feed(options);
  const exdl::ServiceOptions service = ServiceOptionsFor(options.workload);
  exdl::CompileOptions parse_only = service.compile;
  parse_only.optimize = false;
  auto ctx = std::make_shared<exdl::Context>();
  exdl::Result<Database> base = ParseFacts(feed.facts(), ctx);
  out.tally.Record(base.ok(), "replay facts: " + base.status().ToString(),
                   false);
  if (!base.ok()) return;
  const auto snapshot = std::make_shared<const Database>(std::move(*base));
  exdl::ProgramCache cache(service.program_cache_capacity);
  AnswerChecker checker;
  Tracer trace;
  QueryCounters n;

  // One operation, as QueryService::ProcessOne and the daemon's AWAIT
  // handler run it. Returns the rendered answers, or nullopt on error.
  auto process = [&](const Query& q,
                     Tracer& tr) -> std::optional<std::string> {
    const uint64_t rid = q.request_id;
    Tracer::Scope root(&tr, "service.process", rid);
    std::string key = CompiledProgram::CacheKeyMaterial(q.source,
                                                        service.compile);
    CompiledProgram::Ptr compiled;
    {
      Tracer::Scope s(&tr, "service.cache_lookup", rid);
      compiled = cache.Lookup(key);
    }
    if (compiled == nullptr) {
      std::optional<exdl::Result<exdl::ParsedUnit>> parsed;
      {
        Tracer::Scope s(&tr, "parser.query_parse", rid);
        parsed.emplace(exdl::ParseProgram(q.source, ctx));
      }
      if (!parsed->ok()) return std::nullopt;
      {
        Tracer::Scope s(&tr, "core.compile", rid);
        Database facts;
        for (const exdl::Atom& fact : (*parsed)->facts) {
          if (!facts.AddFact(fact).ok()) return std::nullopt;
        }
        exdl::Result<CompiledProgram::Ptr> program =
            CompiledProgram::FromProgram(std::move((*parsed)->program),
                                         std::move(facts), parse_only);
        if (!program.ok()) return std::nullopt;
        Tracer::Scope o(&tr, "core.optimize", rid);
        exdl::Result<CompiledProgram::Ptr> optimized =
            CompiledProgram::Optimize(**program, service.compile.optimizer);
        if (!optimized.ok()) return std::nullopt;
        compiled = *optimized;
      }
      const exdl::OptimizationReport& report = compiled->report();
      ++n.compiles;
      n.positions_dropped += report.positions_dropped;
      n.rules_deleted += report.deleted_by_subsumption +
                         report.deleted_by_summary + report.deleted_by_sagiv +
                         report.deleted_by_optimistic;
      Tracer::Scope s(&tr, "service.cache_insert", rid);
      cache.Insert(std::move(key), compiled);
    }
    Database edb;
    {
      Tracer::Scope s(&tr, "storage.clone_insert", rid);
      edb = SessionEdb(*snapshot, *compiled);
    }
    exdl::SessionOptions session_options;
    session_options.eval = service.eval;
    exdl::Session session(std::move(session_options));
    session.Bind(compiled);
    std::optional<exdl::Result<exdl::EvalResult>> evaluated;
    {
      Tracer::Scope s(&tr, "eval.evaluate", rid);
      const double cpu0 = ProcessCpuSeconds();
      const int64_t t0 = NowNs();
      evaluated.emplace(session.Run(edb));
      n.eval_wall_s += (NowNs() - t0) / 1e9;
      n.eval_cpu_s += ProcessCpuSeconds() - cpu0;
    }
    if (!evaluated->ok() || !(*evaluated)->termination.ok()) {
      return std::nullopt;
    }
    const exdl::EvalResult& result = **evaluated;
    n.stats += result.stats;
    n.max_round_us.push_back(result.stats.max_round_seconds * 1e6);
    n.rehashes += static_cast<double>(result.db.TotalRehashes() -
                                      edb.TotalRehashes());
    n.words_scanned += static_cast<double>(result.representation.words_scanned);
    ++n.ops;
    Tracer::Scope s(&tr, "service.render", rid);
    return exdl::RenderAnswerRows(*ctx, result.answers);
  };
  auto run = [&](const Query& q, Tracer& tr) {
    std::optional<std::string> answers = process(q, tr);
    out.tally.Record(answers.has_value() && checker.Check(q, *answers),
                     "layer replay: request " + std::to_string(q.request_id),
                     true);
  };

  Tracer warm;
  for (const Query& q : feed.warmup()) run(q, warm);
  n = QueryCounters();
  const int64_t deadline = NowNs() + static_cast<int64_t>(phase_s * 1e9);
  while (NowNs() < deadline) run(feed.Next(), trace);

  Metrics& m = out.metrics;
  const double ops = n.ops;
  auto per_op = [&](double total) { return ops > 0 ? total / ops : 0; };
  auto per_compile = [&](double total) {
    return n.compiles > 0 ? total / n.compiles : 0;
  };
  m["service.render_us"] = MedianOf(trace, "service.render");
  m["parser.query_parse_us"] = MedianOf(trace, "parser.query_parse");
  m["core.compile_us"] = MedianOf(trace, "core.compile");
  m["core.optimize_us"] = MedianOf(trace, "core.optimize");
  m["core.compiles"] = n.compiles;
  m["core.argument_positions_dropped"] = per_compile(n.positions_dropped);
  m["core.rules_deleted"] = per_compile(n.rules_deleted);
  m["eval.evaluate_us"] = MedianOf(trace, "eval.evaluate");
  m["eval.max_round_us"] = Median(n.max_round_us);
  m["eval.rounds"] = per_op(double(n.stats.rounds));
  m["eval.rule_firings"] = per_op(double(n.stats.rule_firings));
  m["eval.tuples_inserted"] = per_op(double(n.stats.tuples_inserted));
  m["eval.insert_yield"] = Ratio{double(n.stats.tuples_inserted),
                                 double(n.stats.rule_firings)}
                               .value();
  m["eval.index_probes"] = per_op(double(n.stats.index_probes));
  m["eval.rows_matched"] = per_op(double(n.stats.rows_matched));
  m["eval.cpu_to_wall"] = Ratio{n.eval_cpu_s, n.eval_wall_s}.value();
  m["eval.wall_s"] = n.eval_wall_s;
  m["storage.clone_insert_us"] = MedianOf(trace, "storage.clone_insert");
  m["storage.arena_bytes"] = static_cast<double>(snapshot->TotalArenaBytes());
  m["storage.rehashes"] = per_op(n.rehashes);
  m["storage.words_scanned"] = per_op(n.words_scanned);
  m["replay.layer_ops"] = ops;
  LayerSelfPerOp(trace, ops, m);
  out.trace.Merge(trace);
}

// --- ingest_views ------------------------------------------------------------

uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

void ServiceIngest(const Options& options, ReplayResult& out) {
  const std::string dir = options.out_dir + "/replay-service";
  fs::remove_all(dir);
  IngestStream stream(options.seed * 1000003);
  auto durable = std::make_shared<exdl::durability::DurableEdb>(
      exdl::durability::DurabilityOptions{.data_dir = dir});
  exdl::Status opened = durable->Open();
  out.tally.Record(opened.ok(), "replay durable open: " + opened.ToString(),
                   false);
  if (!opened.ok()) return;
  exdl::ServiceOptions service_options = ServiceOptionsFor(options.workload);
  service_options.durable = durable;
  std::vector<uint64_t> views;
  Tracer trace;
  {
    exdl::QueryService service(service_options);
    exdl::Status loaded = service.LoadFacts(ChainEdbSource());
    out.tally.Record(loaded.ok(), "replay base load", false);
    for (int v = 0; v < IngestStream::kViews; ++v) {
      exdl::QueryRequest request;
      request.source = stream.ViewSource(v);
      request.name = "view" + std::to_string(v);
      exdl::Result<uint64_t> id = service.RegisterStandingQuery(request);
      out.tally.Record(id.ok(), "replay register: " + id.status().ToString(),
                       false);
      if (!id.ok()) return;
      views.push_back(*id);
    }
    exdl::QueryRequest one_shot;
    one_shot.source = stream.OneShotSource();
    exdl::QueryResponse r = service.Await(service.Submit(one_shot));
    out.tally.Record(r.status.ok() &&
                         SameRows(exdl::RenderAnswerRows(*service.ctx(),
                                                         r.result.answers),
                                  stream.ExpectedOneShot()),
                     "replay one-shot", true);
    for (int i = 0; i < kIngestLoadsPerEpoch; ++i) {
      const IngestStream::Load load = stream.Next();
      exdl::Status s;
      {
        Tracer::Scope span(&trace, "service.load_facts", load.request_id);
        s = service.LoadFacts(load.facts);
      }
      out.tally.Record(s.ok(), "replay LoadFacts: " + s.ToString(), false);
      std::optional<exdl::Result<exdl::StandingQueryResult>> polled;
      {
        Tracer::Scope span(&trace, "service.poll", load.request_id);
        polled.emplace(service.PollStandingQuery(views[load.poll_view]));
      }
      out.tally.Record(polled->ok() &&
                           SameRows((*polled)->answers,
                                    stream.ExpectedView(load.poll_view)),
                       "replay poll after load " +
                           std::to_string(load.request_id),
                       true);
    }
    double full_recomputes = 0;
    for (uint64_t id : views) {
      exdl::Result<exdl::StandingQueryResult> polled =
          service.PollStandingQuery(id);
      if (polled.ok()) full_recomputes += polled->stats.full_recomputes;
    }
    out.metrics["ivm.full_recomputes"] += full_recomputes;
  }
  fs::remove_all(dir);
  out.metrics["service.load_facts_us"] = MedianOf(trace, "service.load_facts");
  out.metrics["service.poll_us"] = MedianOf(trace, "service.poll");
  out.trace.Merge(trace);
}

void LayeredIngest(const Options& options, ReplayResult& out) {
  const std::string dir = options.out_dir + "/replay-layers";
  fs::remove_all(dir);
  IngestStream stream(options.seed * 1000003);
  const exdl::ServiceOptions service = ServiceOptionsFor(options.workload);
  exdl::durability::DurableEdb durable(
      exdl::durability::DurabilityOptions{.data_dir = dir});
  const std::string log_path = exdl::durability::DurableEdb::LogPathIn(dir);
  const std::string snapshot_path =
      exdl::durability::DurableEdb::SnapshotPathIn(dir);
  auto fail = [&](const std::string& what, const exdl::Status& s) {
    out.tally.Record(s.ok(), what + ": " + s.ToString(), false);
    return !s.ok();
  };
  if (fail("replay durable open", durable.Open())) return;

  // Set-up, as the daemon's: generation 1 is the base EDB, then the views
  // are seeded from full evaluations and one one-shot query runs.
  auto ctx = std::make_shared<exdl::Context>();
  const std::string base_source = ChainEdbSource();
  exdl::Result<Database> base = ParseFacts(base_source, ctx);
  if (fail("replay facts", base.status())) return;
  uint64_t generation = 1;
  if (fail("replay base append", durable.Append(generation, base_source))) {
    return;
  }
  auto snapshot = std::make_shared<const Database>(std::move(*base));
  (void)durable.MaybeCompact(*ctx, *snapshot, generation);

  auto evaluate = [&](const CompiledProgram::Ptr& compiled,
                      const exdl::EvalOptions& eval)
      -> exdl::Result<exdl::EvalResult> {
    const Database edb = SessionEdb(*snapshot, *compiled);
    exdl::SessionOptions session_options;
    session_options.eval = eval;
    exdl::Session session(std::move(session_options));
    session.Bind(compiled);
    return session.Run(edb);
  };
  std::vector<std::unique_ptr<exdl::ivm::MaterializedView>> views;
  for (int v = 0; v < IngestStream::kViews; ++v) {
    exdl::Result<CompiledProgram::Ptr> compiled = CompiledProgram::Compile(
        stream.ViewSource(v), service.compile, nullptr, ctx);
    if (fail("replay view compile", compiled.status())) return;
    exdl::EvalOptions eval = service.eval;
    std::unique_ptr<exdl::ivm::SupportLedger> ledger;
    if (exdl::ivm::MaterializedView::Classify((*compiled)->program(), eval) ==
        exdl::ivm::Fallback::kNone) {
      ledger = std::make_unique<exdl::ivm::SupportLedger>();
      eval.support_sink = ledger.get();
    }
    exdl::Result<exdl::EvalResult> seeded = evaluate(*compiled, eval);
    if (fail("replay view seed", seeded.status())) return;
    views.push_back(std::make_unique<exdl::ivm::MaterializedView>(
        *compiled, eval, std::move(*seeded), generation, std::move(ledger)));
  }
  exdl::Result<CompiledProgram::Ptr> one_shot = CompiledProgram::Compile(
      stream.OneShotSource(), service.compile, nullptr, ctx);
  if (fail("replay one-shot compile", one_shot.status())) return;
  exdl::Result<exdl::EvalResult> one_shot_result =
      evaluate(*one_shot, service.eval);
  if (fail("replay one-shot", one_shot_result.status())) return;

  Tracer trace;
  std::vector<double> compact_us;
  uint64_t user_bytes = 0, bytes_written = 0, rehashes = 0;
  exdl::ivm::IvmStats ivm_before;
  for (const auto& view : views) ivm_before += view->stats();
  const uint64_t compactions_before = durable.counters().compactions;
  for (int i = 0; i < kIngestLoadsPerEpoch; ++i) {
    const IngestStream::Load load = stream.Next();
    const uint64_t rid = load.request_id;
    bool ok = true;
    {
      Tracer::Scope root(&trace, "service.load_facts", rid);
      std::optional<exdl::Result<exdl::ParsedUnit>> parsed;
      {
        Tracer::Scope s(&trace, "parser.facts_parse", rid);
        parsed.emplace(exdl::ParseProgram(load.facts, ctx));
      }
      if (fail("replay load parse", parsed->status())) return;
      Database next;
      {
        Tracer::Scope s(&trace, "storage.clone_insert", rid);
        next = snapshot->Clone();
        for (const exdl::Atom& fact : (*parsed)->facts) {
          ok = ok && next.AddFact(fact).ok();
        }
      }
      const uint64_t log_before = FileSize(log_path);
      exdl::Status appended;
      {
        Tracer::Scope s(&trace, "durability.append", rid);
        appended = durable.Append(generation + 1, load.facts);
      }
      if (fail("replay append", appended)) return;
      bytes_written += FileSize(log_path) - log_before;
      user_bytes += load.facts.size();
      ++generation;
      rehashes += next.TotalRehashes() - snapshot->TotalRehashes();
      snapshot = std::make_shared<const Database>(std::move(next));
      const uint64_t compactions = durable.counters().compactions;
      const int64_t c0 = NowNs();
      {
        Tracer::Scope s(&trace, "durability.compact", rid);
        (void)durable.MaybeCompact(*ctx, *snapshot, generation);
      }
      if (durable.counters().compactions != compactions) {
        compact_us.push_back((NowNs() - c0) / 1e3);
        bytes_written += FileSize(snapshot_path);
      }
      for (const auto& view : views) {
        Tracer::Scope s(&trace, "ivm.apply", rid);
        ok = ok && view->Apply((*parsed)->facts, generation, *snapshot).ok();
      }
    }
    std::string answers;
    {
      Tracer::Scope root(&trace, "service.poll", rid);
      Tracer::Scope s(&trace, "service.render", rid);
      answers = exdl::RenderAnswerRows(
          *ctx, views[load.poll_view]->result().answers);
    }
    out.tally.Record(ok && SameRows(answers, stream.ExpectedView(load.poll_view)),
                     "layer replay: load " + std::to_string(rid), true);
  }

  exdl::ivm::IvmStats ivm;
  double view_arena = 0;
  for (const auto& view : views) {
    ivm += view->stats();
    view_arena += static_cast<double>(view->result().db.TotalArenaBytes());
  }
  const double applies =
      static_cast<double>(views.size()) * kIngestLoadsPerEpoch;
  Metrics& m = out.metrics;
  m["service.render_us"] = MedianOf(trace, "service.render");
  m["parser.facts_parse_us"] = MedianOf(trace, "parser.facts_parse");
  m["storage.clone_insert_us"] = MedianOf(trace, "storage.clone_insert");
  m["storage.arena_bytes"] = static_cast<double>(snapshot->TotalArenaBytes());
  m["storage.rehashes"] = static_cast<double>(rehashes) / kIngestLoadsPerEpoch;
  m["durability.append_us"] = MedianOf(trace, "durability.append");
  m["durability.compact_us"] = Median(compact_us);
  m["durability.compactions"] =
      static_cast<double>(durable.counters().compactions - compactions_before);
  m["durability.user_bytes"] = static_cast<double>(user_bytes);
  m["durability.bytes_written_per_user_byte"] =
      Ratio{double(bytes_written), double(user_bytes)}.value();
  m["ivm.apply_us"] = MedianOf(trace, "ivm.apply");
  m["ivm.applies"] = applies;
  m["ivm.delta_rounds"] =
      (ivm.delta_rounds - ivm_before.delta_rounds) / applies;
  m["ivm.tuples_rederived"] =
      (ivm.tuples_rederived - ivm_before.tuples_rederived) / applies;
  m["ivm.full_recomputes"] += static_cast<double>(ivm.full_recomputes);
  m["ivm.view_arena_bytes"] = view_arena;
  m["replay.layer_ops"] = kIngestLoadsPerEpoch;
  LayerSelfPerOp(trace, kIngestLoadsPerEpoch, m);
  out.trace.Merge(trace);
  fs::remove_all(dir);
}

}  // namespace

ReplayResult RunReplay(const Options& options, double phase_s) {
  ReplayResult out;
  if (options.workload == Workload::kIngestViews) {
    ServiceIngest(options, out);
    LayeredIngest(options, out);
  } else {
    ServiceQueries(options, phase_s, out);
    LayeredQueries(options, phase_s, out);
  }
  return out;
}

}  // namespace perfbench
