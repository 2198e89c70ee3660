#include "service/query_service.h"

#include <algorithm>
#include <utility>

#include "parser/parser.h"
#include "service/answer_text.h"

namespace exdl {

namespace {

ServiceOptions Normalize(ServiceOptions options) {
  if (options.num_workers == 0) options.num_workers = 1;
  return options;
}

}  // namespace

QueryService::QueryService(ServiceOptions options)
    : options_(Normalize(std::move(options))),
      ctx_(std::make_shared<Context>()),
      cache_(options_.program_cache_capacity),
      durable_(options_.durable),
      pool_(options_.num_workers - 1) {
  // Register every service metric before the first shard is cut (shards
  // are sized to the registry at creation time).
  obs::MetricsRegistry& metrics = service_telemetry_.metrics();
  cache_hit_id_ = metrics.Counter("service.cache.hit");
  cache_miss_id_ = metrics.Counter("service.cache.miss");
  cache_eviction_id_ = metrics.Counter("service.cache.eviction");
  queries_submitted_id_ = metrics.Counter("service.queries.submitted");
  queries_completed_id_ = metrics.Counter("service.queries.completed");
  queries_failed_id_ = metrics.Counter("service.queries.failed");
  batches_id_ = metrics.Counter("service.batches");
  generation_id_ = metrics.Gauge("service.snapshot.generation");
  cow_detaches_id_ = metrics.Counter("service.load.cow_detaches");
  cow_bytes_copied_id_ = metrics.Counter("service.load.cow_bytes_copied");
  compile_factored_id_ = metrics.Counter("service.compile.factored");
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

QueryService::~QueryService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  dispatcher_.join();
}

QueryService::Ticket QueryService::EnqueueLocked(QueryRequest request,
                                                 bool standing) {
  const Ticket ticket = next_ticket_++;
  ++submitted_;
  outstanding_.insert(ticket);
  queue_.push_back(Pending{ticket, std::move(request), snapshot_, standing});
  return ticket;
}

QueryService::Ticket QueryService::Submit(QueryRequest request) {
  std::lock_guard<std::mutex> lock(mu_);
  const Ticket ticket = EnqueueLocked(std::move(request), /*standing=*/false);
  work_cv_.notify_one();
  return ticket;
}

std::vector<QueryService::Ticket> QueryService::SubmitBatch(
    std::vector<QueryRequest> requests) {
  std::vector<Ticket> tickets;
  tickets.reserve(requests.size());
  std::lock_guard<std::mutex> lock(mu_);
  for (QueryRequest& request : requests) {
    tickets.push_back(EnqueueLocked(std::move(request), /*standing=*/false));
  }
  work_cv_.notify_one();
  return tickets;
}

QueryResponse QueryService::Await(Ticket ticket) {
  std::unique_lock<std::mutex> lock(mu_);
  if (outstanding_.find(ticket) == outstanding_.end()) {
    QueryResponse response;
    response.status =
        Status::InvalidArgument("unknown or already consumed ticket");
    return response;
  }
  done_cv_.wait(lock, [&] { return done_.find(ticket) != done_.end(); });
  QueryResponse response = std::move(done_[ticket]);
  done_.erase(ticket);
  outstanding_.erase(ticket);
  return response;
}

std::vector<QueryResponse> QueryService::AwaitBatch(
    const std::vector<Ticket>& tickets) {
  std::vector<QueryResponse> responses;
  responses.reserve(tickets.size());
  for (Ticket ticket : tickets) responses.push_back(Await(ticket));
  return responses;
}

std::optional<QueryResponse> QueryService::AwaitFor(
    Ticket ticket, std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  if (outstanding_.find(ticket) == outstanding_.end()) {
    QueryResponse response;
    response.status =
        Status::InvalidArgument("unknown or already consumed ticket");
    return response;
  }
  if (!done_cv_.wait_for(lock, timeout,
                         [&] { return done_.find(ticket) != done_.end(); })) {
    return std::nullopt;
  }
  QueryResponse response = std::move(done_[ticket]);
  done_.erase(ticket);
  outstanding_.erase(ticket);
  return response;
}

Status QueryService::LoadFacts(std::string_view source) {
  return LoadFactsImpl(source, /*durable=*/true);
}

Status QueryService::LoadFactsImpl(std::string_view source, bool durable) {
  // Parsing interns symbols/predicates into the shared Context, and the
  // compile turnstile orders all other interning strictly by ticket. Go
  // through the same turnstile: wait until every query submitted before
  // this call has passed its compile, then parse while holding
  // compile_mu_. Interned ids then depend only on the interleaving of
  // Submit and LoadFacts calls — never on pool size or scheduling — which
  // preserves the byte-identical-answers determinism guarantee. Recovery
  // replay takes the same path (on an idle service the turnstile passes
  // straight through), so a replayed load interns exactly what the
  // original did.
  Ticket submitted_before;
  {
    std::lock_guard<std::mutex> lock(mu_);
    submitted_before = next_ticket_;
  }
  ParsedUnit parsed(ctx_);
  {
    std::unique_lock<std::mutex> compile_lock(compile_mu_);
    compile_cv_.wait(compile_lock,
                     [&] { return next_compile_ >= submitted_before; });
    EXDL_ASSIGN_OR_RETURN(parsed, ParseProgram(source, ctx_));
  }
  if (!parsed.program.rules().empty()) {
    return Status::InvalidArgument(
        "LoadFacts source must contain only ground facts");
  }
  DatabaseSnapshot published;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Database next = snapshot_.valid() ? snapshot_.db().Clone() : Database();
    for (const Atom& fact : parsed.facts) {
      EXDL_RETURN_IF_ERROR(next.AddFact(fact));
    }
    // Every relation the load wrote detached a private copy of the
    // published one (a new predicate has nothing to copy).
    if (snapshot_.valid()) {
      obs::MetricsRegistry& metrics = service_telemetry_.metrics();
      for (const auto& [pred, rel] : next.relations()) {
        const Relation* published = snapshot_.db().Find(pred);
        if (published == nullptr || rel.SharesStorageWith(*published)) {
          continue;
        }
        metrics.Add(cow_detaches_id_, 1);
        metrics.Add(cow_bytes_copied_id_, published->storage_bytes());
      }
    }
    // Durability ordering contract (DESIGN.md §15): the fact-log record is
    // on stable storage before the generation becomes visible to queries.
    // On failure the current snapshot stays published — the daemon never
    // acknowledges a generation that is not logged.
    if (durable && durable_ != nullptr) {
      EXDL_RETURN_IF_ERROR(durable_->Append(generation_ + 1, source));
    }
    ++generation_;
    snapshot_ = DatabaseSnapshot(
        std::make_shared<const Database>(std::move(next)), generation_);
    if (durable && durable_ != nullptr) {
      // Compaction is an optimization: a failed snapshot write (injected
      // factlog.compact_rename, disk trouble) must not fail the load. The
      // previous snapshot + intact log still recover everything, and the
      // next append retries the compaction.
      Status compacted =
          durable_->MaybeCompact(*ctx_, snapshot_.db(), generation_);
      (void)compacted;
    }
    published = snapshot_;
  }
  // Standing views absorb the generation outside mu_ (lock order:
  // standing_mu_ before mu_): queries against the new snapshot proceed
  // while views re-derive, and polls see the new generation only once
  // its maintenance finished.
  MaintainStandingViews(parsed.facts, published);
  return Status::Ok();
}

void QueryService::MaintainStandingViews(std::span<const Atom> facts,
                                         const DatabaseSnapshot& snapshot) {
  std::lock_guard<std::mutex> lock(standing_mu_);
  for (auto& [id, entry] : standing_) {
    ivm::MaterializedView& view = *entry.view;
    // A view installed after this generation published already absorbed
    // it (installation re-checks the current snapshot under
    // standing_mu_).
    if (entry.health.ok() && snapshot.generation() <= view.generation()) {
      continue;
    }
    Status status;
    if (entry.health.ok() &&
        snapshot.generation() == view.generation() + 1) {
      status = view.Apply(facts, snapshot.generation(), snapshot.db());
      // A failed Apply may have half-appended the delta; rebuilding from
      // the published snapshot restores the invariant.
      if (!status.ok()) {
        status = view.Reseed(snapshot.db(), snapshot.generation());
      }
    } else {
      // Unhealthy, or the view missed a generation (registration raced
      // several loads): the delta is not reconstructible, recompute.
      status = view.Reseed(snapshot.db(), snapshot.generation());
    }
    entry.health = status;
  }
}

Result<uint64_t> QueryService::RegisterStandingQuery(QueryRequest request) {
  Ticket ticket;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ticket = EnqueueLocked(std::move(request), /*standing=*/true);
    work_cv_.notify_one();
  }
  QueryResponse response = Await(ticket);
  if (!response.status.ok()) return response.status;
  if (response.standing_id == 0) {
    // Evaluation succeeded but did not converge (budget trip): a partial
    // fixpoint must not be installed as a materialization.
    return Status::FailedPrecondition(
        "standing query seeding did not converge: " +
        response.result.termination.ToString());
  }
  return response.standing_id;
}

Status QueryService::UnregisterStandingQuery(uint64_t standing_id) {
  std::lock_guard<std::mutex> lock(standing_mu_);
  auto it = standing_.find(standing_id);
  if (it == standing_.end()) {
    return Status::NotFound("unknown standing query id " +
                            std::to_string(standing_id));
  }
  retained_standing_stats_ += it->second.view->stats();
  standing_.erase(it);
  return Status::Ok();
}

Result<StandingQueryResult> QueryService::PollStandingQuery(
    uint64_t standing_id) const {
  std::lock_guard<std::mutex> lock(standing_mu_);
  auto it = standing_.find(standing_id);
  if (it == standing_.end()) {
    return Status::NotFound("unknown standing query id " +
                            std::to_string(standing_id));
  }
  if (!it->second.health.ok()) return it->second.health;
  const ivm::MaterializedView& view = *it->second.view;
  StandingQueryResult out;
  out.standing_id = standing_id;
  out.generation = view.generation();
  out.name = it->second.name;
  out.answer_count = view.result().answers.size();
  out.answers = RenderAnswerRows(*ctx_, view.result().answers);
  out.last_was_incremental = view.last_was_incremental();
  out.fallback = view.fallback();
  out.stats = view.stats();
  return out;
}

Status QueryService::RestoreSnapshot(recovery::Snapshot snapshot,
                                     uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  if (next_ticket_ != 0 || generation_ != 0 || ctx_->NumSymbols() != 0) {
    return Status::FailedPrecondition(
        "RestoreSnapshot requires a fresh service");
  }
  // Re-intern the stored tables in id order into the (empty) service
  // Context. Sequential interning into an empty context assigns exactly
  // the stored ids, so every SymbolId/PredId in the snapshot's database
  // — and in later replayed loads — means what it meant in the daemon
  // that wrote the snapshot. Any mismatch means the snapshot lied.
  for (size_t i = 0; i < snapshot.symbols.size(); ++i) {
    if (ctx_->InternSymbol(snapshot.symbols[i]) != static_cast<SymbolId>(i)) {
      return Status::CorruptCheckpoint(
          "EDB snapshot symbol table is not in intern order");
    }
  }
  for (size_t i = 0; i < snapshot.preds.size(); ++i) {
    const recovery::SnapshotPred& pred = snapshot.preds[i];
    Adornment adornment;
    if (!pred.adornment.empty()) {
      EXDL_ASSIGN_OR_RETURN(adornment, Adornment::Parse(pred.adornment));
    }
    if (ctx_->InternPredicate(pred.name, pred.arity, adornment) !=
        static_cast<PredId>(i)) {
      return Status::CorruptCheckpoint(
          "EDB snapshot predicate table is not in intern order");
    }
  }
  generation_ = generation;
  snapshot_ = DatabaseSnapshot(
      std::make_shared<const Database>(std::move(snapshot.db)), generation_);
  return Status::Ok();
}

Status QueryService::ReplayFacts(std::string_view source,
                                 uint64_t expected_generation) {
  EXDL_RETURN_IF_ERROR(LoadFactsImpl(source, /*durable=*/false));
  std::lock_guard<std::mutex> lock(mu_);
  if (generation_ != expected_generation) {
    return Status::CorruptCheckpoint(
        "fact-log replay produced generation " + std::to_string(generation_) +
        ", record says " + std::to_string(expected_generation));
  }
  return Status::Ok();
}

void QueryService::AttachDurability(
    std::shared_ptr<durability::DurableEdb> durable) {
  std::lock_guard<std::mutex> lock(mu_);
  durable_ = std::move(durable);
}

DatabaseSnapshot QueryService::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

ProgramCache::Stats QueryService::cache_stats() const { return cache_.stats(); }

void QueryService::DispatcherLoop() {
  while (true) {
    std::vector<Active> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) break;  // Shutdown with a drained queue.
      while (!queue_.empty()) {
        Active item;
        item.pending = std::move(queue_.front());
        queue_.pop_front();
        item.shard = service_telemetry_.metrics().NewShard();
        batch.push_back(std::move(item));
      }
    }
    pool_.Run(static_cast<uint32_t>(batch.size()),
              [&](uint32_t i) { ProcessOne(batch[i]); });
    // Quiescent point: every session of the batch has finished, so their
    // shards can be folded into the service totals.
    {
      std::lock_guard<std::mutex> lock(mu_);
      obs::MetricsRegistry& metrics = service_telemetry_.metrics();
      for (Active& item : batch) {
        metrics.Merge(item.shard);
        if (item.summary.has_run) {
          aggregate_.has_run = true;
          aggregate_.stats += item.summary.stats;
          aggregate_.answers += item.summary.answers;
          aggregate_.representation += item.summary.representation;
          if (aggregate_.termination.ok() && !item.summary.termination.ok()) {
            aggregate_.termination = item.summary.termination;
          }
        }
        done_.emplace(item.pending.ticket, std::move(item.response));
      }
      metrics.Add(batches_id_, 1);
      metrics.Add(queries_submitted_id_, submitted_ - submitted_published_);
      submitted_published_ = submitted_;
      metrics.Set(generation_id_, static_cast<double>(generation_));
      done_cv_.notify_all();
    }
  }
}

void QueryService::ProcessOne(Active& item) {
  QueryResponse& response = item.response;
  response.name = item.pending.request.name;
  response.snapshot_generation = item.pending.snapshot.generation();
  if (options_.collect_telemetry) {
    response.telemetry = std::make_shared<obs::Telemetry>();
  }
  std::string key = CompiledProgram::CacheKeyMaterial(
      item.pending.request.source, options_.compile);
  CompiledProgram::Ptr compiled;
  {
    // Compile turnstile: cache fills and Context interning happen in
    // strict ticket order, making ids — and therefore answers —
    // independent of worker count and scheduling.
    std::unique_lock<std::mutex> lock(compile_mu_);
    compile_cv_.wait(lock, [&] { return next_compile_ == item.pending.ticket; });
    compiled = cache_.Lookup(key);
    if (compiled != nullptr) {
      response.cache_hit = true;
      item.shard.Add(cache_hit_id_, 1);
    } else {
      item.shard.Add(cache_miss_id_, 1);
      Result<CompiledProgram::Ptr> compile_result = CompiledProgram::Compile(
          item.pending.request.source, options_.compile,
          response.telemetry.get(), ctx_);
      if (compile_result.ok()) {
        compiled = *compile_result;
        if (compiled->report().factored) {
          item.shard.Add(compile_factored_id_, 1);
        }
        item.shard.Add(cache_eviction_id_,
                       cache_.Insert(std::move(key), compiled));
      } else {
        response.status = compile_result.status();
      }
    }
    ++next_compile_;
    compile_cv_.notify_all();
  }
  if (!response.status.ok()) {
    item.shard.Add(queries_failed_id_, 1);
    return;
  }
  response.program = compiled;
  // Session EDB: the submission-time snapshot generation (copy-on-write
  // clone — no tuple copy) plus the program's own ground facts.
  const Database edb = item.pending.snapshot.valid()
                           ? compiled->SessionEdb(item.pending.snapshot.db())
                           : compiled->SessionEdb(Database());
  SessionOptions session_options;
  session_options.eval = options_.eval;
  if (item.pending.request.budget.has_value()) {
    session_options.eval.budget = *item.pending.request.budget;
  }
  session_options.eval.budget = EvalBudget::FromEnv(session_options.eval.budget);
  if (response.telemetry != nullptr) {
    session_options.eval.telemetry = response.telemetry.get();
  }
  // A standing request's seeding evaluation is observed by the view's
  // support ledger (counting IVM substrate) unless the program is a
  // fallback case: those views recompute every generation, so nothing
  // could ever read their counts, and they keep no ledger.
  std::unique_ptr<ivm::SupportLedger> ledger;
  if (item.pending.standing &&
      ivm::MaterializedView::Classify(compiled->program(),
                                      session_options.eval) ==
          ivm::Fallback::kNone) {
    ledger = std::make_unique<ivm::SupportLedger>();
    session_options.eval.support_sink = ledger.get();
  }
  const EvalOptions standing_eval = session_options.eval;
  Session session(std::move(session_options));
  session.Bind(compiled);
  Result<EvalResult> evaluated = session.Run(edb);
  if (!evaluated.ok()) {
    response.status = evaluated.status();
    item.shard.Add(queries_failed_id_, 1);
    return;
  }
  response.result = std::move(*evaluated);
  item.summary = session.summary();
  item.shard.Add(queries_completed_id_, 1);
  if (options_.collect_telemetry) {
    response.telemetry_json = session.TelemetryJson("service", response.name);
  }
  if (item.pending.standing && response.result.termination.ok()) {
    InstallStandingView(item, compiled, standing_eval, std::move(ledger));
  }
}

void QueryService::InstallStandingView(
    Active& item, CompiledProgram::Ptr compiled, const EvalOptions& eval,
    std::unique_ptr<ivm::SupportLedger> ledger) {
  QueryResponse& response = item.response;
  // The view owns its own copy of the fixpoint database (copy-on-write:
  // O(#relations) now, payloads detach lazily as maintenance appends).
  EvalResult seed;
  seed.db = response.result.db.Clone();
  seed.stats = response.result.stats;
  seed.representation = response.result.representation;
  seed.termination = response.result.termination;
  seed.answers = response.result.answers;
  seed.ground_query_true = response.result.ground_query_true;
  auto view = std::make_unique<ivm::MaterializedView>(
      compiled, eval, std::move(seed), item.pending.snapshot.generation(),
      std::move(ledger));
  std::lock_guard<std::mutex> lock(standing_mu_);
  // Registration raced a LoadFacts if the published generation moved past
  // the one this evaluation read: re-check under standing_mu_ (which
  // maintenance also holds) and rebuild from the current snapshot, so the
  // installed view is never behind the published generation.
  const DatabaseSnapshot current = snapshot();
  const uint64_t current_gen = current.valid() ? current.generation() : 0;
  if (current_gen != view->generation()) {
    Status reseeded = view->Reseed(current.db(), current_gen);
    if (!reseeded.ok()) {
      response.status = reseeded;
      return;
    }
  }
  const uint64_t id = next_standing_id_++;
  StandingEntry entry;
  entry.name = item.pending.request.name;
  entry.view = std::move(view);
  standing_.emplace(id, std::move(entry));
  response.standing_id = id;
}

std::string QueryService::MetricsJson(
    const std::function<void(obs::JsonWriter&)>& extra_keys) const {
  // Gather the IVM counters before taking mu_ (lock order: standing_mu_
  // strictly before mu_). Retained stats keep unregistered views'
  // counters monotone; support_* are gauges over live views only.
  uint64_t maintained_queries = 0;
  uint64_t support_bytes = 0;
  uint64_t support_tuples = 0;
  ivm::IvmStats ivm_stats;
  {
    std::lock_guard<std::mutex> lock(standing_mu_);
    maintained_queries = standing_.size();
    ivm_stats = retained_standing_stats_;
    for (const auto& [id, entry] : standing_) {
      ivm_stats += entry.view->stats();
      if (const ivm::SupportLedger* support = entry.view->support()) {
        support_bytes += support->bytes();
        support_tuples += support->tracked_tuples();
      }
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  const ProgramCache::Stats cache = cache_.stats();
  const obs::MetricsRegistry& metrics = service_telemetry_.metrics();
  const uint64_t completed = metrics.CounterValue(queries_completed_id_);
  const uint64_t failed = metrics.CounterValue(queries_failed_id_);
  auto extra = [&](obs::JsonWriter& w) {
    w.Key("service");
    w.BeginObject();
    w.Key("workers");
    w.UInt(options_.num_workers);
    w.Key("snapshot_generation");
    w.UInt(generation_);
    w.Key("queries");
    w.BeginObject();
    w.Key("submitted");
    w.UInt(submitted_);
    w.Key("pending");
    w.UInt(queue_.size());
    w.Key("completed");
    w.UInt(completed);
    w.Key("failed");
    w.UInt(failed);
    w.EndObject();
    w.Key("cache");
    w.BeginObject();
    w.Key("hits");
    w.UInt(cache.hits);
    w.Key("misses");
    w.UInt(cache.misses);
    w.Key("evictions");
    w.UInt(cache.evictions);
    w.Key("size");
    w.UInt(cache.size);
    w.Key("capacity");
    w.UInt(cache.capacity);
    w.EndObject();
    w.Key("load");
    w.BeginObject();
    w.Key("cow_detaches");
    w.UInt(metrics.CounterValue(cow_detaches_id_));
    w.Key("cow_bytes_copied");
    w.UInt(metrics.CounterValue(cow_bytes_copied_id_));
    w.EndObject();
    w.Key("compile");
    w.BeginObject();
    w.Key("factored");
    w.UInt(metrics.CounterValue(compile_factored_id_));
    w.EndObject();
    w.EndObject();
    w.Key("ivm");
    w.BeginObject();
    w.Key("maintained_queries");
    w.UInt(maintained_queries);
    w.Key("generations_applied");
    w.UInt(ivm_stats.generations_applied);
    w.Key("delta_rounds");
    w.UInt(ivm_stats.delta_rounds);
    w.Key("full_recomputes");
    w.UInt(ivm_stats.full_recomputes);
    w.Key("tuples_rederived");
    w.UInt(ivm_stats.tuples_rederived);
    w.Key("facts_absorbed");
    w.UInt(ivm_stats.facts_absorbed);
    w.Key("support_bytes");
    w.UInt(support_bytes);
    w.Key("support_tuples");
    w.UInt(support_tuples);
    w.EndObject();
    if (extra_keys) extra_keys(w);
  };
  return RenderTelemetryDoc("service", "", aggregate_, {}, false,
                            OptimizationReport(), Status::Ok(),
                            &service_telemetry_, extra);
}

}  // namespace exdl
