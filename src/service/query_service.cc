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
      durable_(options_.durable) {
  // Register every service metric before the first shard is cut (shards
  // are sized to the registry at creation time).
  obs::MetricsRegistry& metrics = service_telemetry_.metrics();
  queries_submitted_id_ = metrics.Counter("service.queries.submitted");
  queries_completed_id_ = metrics.Counter("service.queries.completed");
  queries_failed_id_ = metrics.Counter("service.queries.failed");
  generation_id_ = metrics.Gauge("service.snapshot.generation");
  cow_detaches_id_ = metrics.Counter("service.load.cow_detaches");
  cow_bytes_copied_id_ = metrics.Counter("service.load.cow_bytes_copied");
  compile_factored_id_ = metrics.Counter("service.compile.factored");
  workers_.reserve(options_.num_workers);
  for (uint32_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

QueryService::Ticket QueryService::EnqueueLocked(
    QueryRequest request, ivm::SupportLedger* ledger) {
  // Loads publish under intern_mu_ too, so snapshot_ is stable here.
  Pending pending{.request = std::move(request),
                  .snapshot = snapshot_,
                  .shard = service_telemetry_.metrics().NewShard(),
                  .ledger = ledger};
  if (options_.collect_telemetry) {
    pending.telemetry = std::make_shared<obs::Telemetry>();
  }
  ResolveLocked(pending);
  std::lock_guard<std::mutex> lock(mu_);
  pending.ticket = next_ticket_++;
  service_telemetry_.metrics().Add(queries_submitted_id_, 1);
  tickets_.emplace(pending.ticket, std::nullopt);
  queue_.push_back(std::move(pending));
  return queue_.back().ticket;
}

void QueryService::ResolveLocked(Pending& pending) {
  const std::string& source = pending.request.source;
  auto lookup_or_compile =
      [&](const CompileOptions& options) -> Result<CompiledProgram::Ptr> {
    std::string key = CompiledProgram::CacheKeyMaterial(source, options);
    CompiledProgram::Ptr compiled = cache_.Lookup(key);
    pending.cache_hit = compiled != nullptr;
    if (compiled != nullptr) return compiled;
    EXDL_ASSIGN_OR_RETURN(compiled, CompiledProgram::Compile(
                                        source, options,
                                        pending.telemetry.get(), ctx_));
    if (compiled->report().factored) pending.shard.Add(compile_factored_id_, 1);
    cache_.Insert(std::move(key), compiled);
    return compiled;
  };
  Result<CompiledProgram::Ptr> compiled = lookup_or_compile(options_.compile);
  // Loads that put rows under a predicate the source derives are read
  // only by the program as written.
  if (compiled.ok() && pending.snapshot.valid() &&
      (*compiled)->HidesLoadedFacts(pending.snapshot.db())) {
    CompileOptions as_written = options_.compile;
    as_written.optimize = false;
    compiled = lookup_or_compile(as_written);
  }
  pending.compile_error = compiled.status();
  if (compiled.ok()) pending.program = std::move(*compiled);
}

QueryService::Ticket QueryService::Submit(QueryRequest request) {
  Ticket ticket;
  {
    std::lock_guard<std::mutex> intern(intern_mu_);
    ticket = EnqueueLocked(std::move(request), /*ledger=*/nullptr);
  }
  work_cv_.notify_one();
  return ticket;
}

std::vector<QueryService::Ticket> QueryService::SubmitBatch(
    std::vector<QueryRequest> requests) {
  std::vector<Ticket> tickets;
  tickets.reserve(requests.size());
  std::lock_guard<std::mutex> intern(intern_mu_);
  for (QueryRequest& request : requests) {
    tickets.push_back(EnqueueLocked(std::move(request), /*ledger=*/nullptr));
    work_cv_.notify_one();
  }
  return tickets;
}

QueryResponse QueryService::Await(Ticket ticket) {
  return *Take(ticket, std::nullopt);
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
  return Take(ticket, timeout);
}

std::optional<QueryResponse> QueryService::Take(
    Ticket ticket, std::optional<std::chrono::milliseconds> timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  // Look the ticket up afresh after every wake: a concurrent Take of the
  // same ticket may have consumed it meanwhile.
  auto settled = [&] {
    auto it = tickets_.find(ticket);
    return it == tickets_.end() || it->second.has_value();
  };
  if (!timeout.has_value()) {
    done_cv_.wait(lock, settled);
  } else if (!done_cv_.wait_for(lock, *timeout, settled)) {
    return std::nullopt;
  }
  auto it = tickets_.find(ticket);
  if (it == tickets_.end()) {
    QueryResponse response;
    response.status =
        Status::InvalidArgument("unknown or already consumed ticket");
    return response;
  }
  QueryResponse response = std::move(*it->second);
  tickets_.erase(it);
  return response;
}

Status QueryService::LoadFacts(std::string_view source) {
  return LoadFactsImpl(source, /*durable=*/true);
}

Status QueryService::LoadFactsImpl(std::string_view source, bool durable) {
  // Parse through publish under intern_mu_: the parse interns in call
  // order with every Submit's compile, and no query resolves its artifact
  // against a snapshot this load is about to replace. Recovery replay takes
  // the same path, so a replayed load interns exactly what the original
  // did.
  std::unique_lock<std::mutex> intern(intern_mu_);
  EXDL_ASSIGN_OR_RETURN(ParsedUnit parsed, ParseProgram(source, ctx_));
  if (!parsed.program.rules().empty()) {
    return Status::InvalidArgument(
        "LoadFacts source must contain only ground facts");
  }
  // Adorned versions belong to the optimizer's rewrites, which treat them
  // as starting empty. Recovery replays what an earlier build accepted.
  if (durable && parsed.adorned_facts) {
    return Status::InvalidArgument(
        "LoadFacts cannot load facts into an adorned predicate");
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
      EXDL_RETURN_IF_ERROR(
          durable_->Append(snapshot_.generation() + 1, source));
    }
    snapshot_ = DatabaseSnapshot(
        std::make_shared<const Database>(std::move(next)),
        snapshot_.generation() + 1);
    if (durable && durable_ != nullptr) {
      // Compaction is an optimization: a failed snapshot write (injected
      // factlog.compact_rename, disk trouble) must not fail the load. The
      // previous snapshot + intact log still recover everything, and the
      // next append retries the compaction.
      Status compacted =
          durable_->MaybeCompact(*ctx_, snapshot_.db(),
                                 snapshot_.generation());
      (void)compacted;
    }
    published = snapshot_;
  }
  intern.unlock();
  // Standing views absorb the generation outside both locks (lock order:
  // standing_mu_ first): queries against the new snapshot proceed while
  // views re-derive, and polls see the new generation only once its
  // maintenance finished.
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
    if (entry.health.ok() &&
        snapshot.generation() == view.generation() + 1 &&
        !view.program()->HidesLoadedFacts(snapshot.db()) &&
        view.Apply(facts, snapshot.generation(), snapshot.db()).ok()) {
      continue;
    }
    // Unhealthy, a missed generation (registration raced several loads),
    // an artifact that now hides loaded rows, or a failed Apply that may
    // have half-appended the delta: rebuild from the published snapshot.
    entry.health = ReseedView(view, entry.source, snapshot);
  }
}

Status QueryService::ReseedView(ivm::MaterializedView& view,
                                std::string_view source,
                                const DatabaseSnapshot& snapshot) {
  if (!view.program()->HidesLoadedFacts(snapshot.db())) {
    return view.Reseed(snapshot.db(), snapshot.generation());
  }
  // The source was parsed at registration, so this interns nothing new.
  Pending probe{.request = {.source = std::string(source)},
                .snapshot = snapshot,
                .shard = service_telemetry_.metrics().NewShard()};
  {
    std::lock_guard<std::mutex> intern(intern_mu_);
    ResolveLocked(probe);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    service_telemetry_.metrics().Merge(probe.shard);
  }
  if (probe.program == nullptr) return probe.compile_error;
  return view.Reseed(snapshot.db(), snapshot.generation(), probe.program);
}

Result<uint64_t> QueryService::RegisterStandingQuery(QueryRequest request) {
  StandingEntry entry;
  entry.name = request.name;
  entry.source = request.source;
  // The seeding evaluation writes this ledger; it outlives the wait below.
  auto ledger = std::make_unique<ivm::SupportLedger>();
  Ticket ticket;
  {
    std::lock_guard<std::mutex> intern(intern_mu_);
    ticket = EnqueueLocked(std::move(request), ledger.get());
  }
  work_cv_.notify_all();
  QueryResponse response = Await(ticket);
  if (!response.status.ok()) return response.status;
  if (!response.result.termination.ok()) {
    // A partial fixpoint (budget trip) must not be installed as a
    // materialization.
    return Status::FailedPrecondition(
        "standing query seeding did not converge: " +
        response.result.termination.ToString());
  }
  entry.view = std::make_unique<ivm::MaterializedView>(
      response.program, options_.eval, std::move(response.result),
      response.snapshot_generation, std::move(ledger));
  std::lock_guard<std::mutex> lock(standing_mu_);
  // Loads published after the seeding snapshot were maintained without
  // this view (maintenance also holds standing_mu_): catch it up before it
  // becomes visible.
  const DatabaseSnapshot current = snapshot();
  if (current.valid() && current.generation() != entry.view->generation()) {
    EXDL_RETURN_IF_ERROR(ReseedView(*entry.view, entry.source, current));
  }
  const uint64_t id = next_standing_id_++;
  standing_.emplace(id, std::move(entry));
  return id;
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
  std::lock_guard<std::mutex> intern(intern_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  if (next_ticket_ != 0 || snapshot_.generation() != 0 ||
      ctx_->NumSymbols() != 0) {
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
  snapshot_ = DatabaseSnapshot(
      std::make_shared<const Database>(std::move(snapshot.db)), generation);
  return Status::Ok();
}

Status QueryService::ReplayFacts(std::string_view source,
                                 uint64_t expected_generation) {
  EXDL_RETURN_IF_ERROR(LoadFactsImpl(source, /*durable=*/false));
  std::lock_guard<std::mutex> lock(mu_);
  if (snapshot_.generation() != expected_generation) {
    return Status::CorruptCheckpoint(
        "fact-log replay produced generation " +
        std::to_string(snapshot_.generation()) +
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

void QueryService::WorkerLoop() {
  while (true) {
    Active item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // Shutdown with a drained queue.
      item.pending = std::move(queue_.front());
      queue_.pop_front();
    }
    ProcessOne(item);
    std::lock_guard<std::mutex> lock(mu_);
    obs::MetricsRegistry& metrics = service_telemetry_.metrics();
    metrics.Merge(item.pending.shard);
    if (item.summary.has_run) {
      aggregate_.has_run = true;
      aggregate_.stats += item.summary.stats;
      aggregate_.answers += item.summary.answers;
      aggregate_.representation += item.summary.representation;
      if (aggregate_.termination.ok() && !item.summary.termination.ok()) {
        aggregate_.termination = item.summary.termination;
      }
    }
    metrics.Set(generation_id_, static_cast<double>(snapshot_.generation()));
    tickets_[item.pending.ticket] = std::move(item.response);
    done_cv_.notify_all();
  }
}

void QueryService::ProcessOne(Active& item) {
  Pending& pending = item.pending;
  QueryResponse& response = item.response;
  response.name = pending.request.name;
  response.snapshot_generation = pending.snapshot.generation();
  response.cache_hit = pending.cache_hit;
  response.telemetry = std::move(pending.telemetry);
  if (pending.program == nullptr) {
    response.status = pending.compile_error;
    pending.shard.Add(queries_failed_id_, 1);
    return;
  }
  const CompiledProgram::Ptr& compiled = pending.program;
  response.program = compiled;
  // Session EDB: the submission-time snapshot generation (copy-on-write
  // clone — no tuple copy) plus the program's own ground facts.
  const Database edb = pending.snapshot.valid()
                           ? compiled->SessionEdb(pending.snapshot.db())
                           : compiled->SessionEdb(Database());
  SessionOptions session_options;
  session_options.eval = options_.eval;
  if (pending.request.budget.has_value()) {
    session_options.eval.budget = *pending.request.budget;
  }
  session_options.eval.budget = EvalBudget::FromEnv(session_options.eval.budget);
  if (response.telemetry != nullptr) {
    session_options.eval.telemetry = response.telemetry.get();
  }
  // A standing request's seeding evaluation is observed by the view's
  // support ledger (counting IVM substrate) unless the program is a
  // fallback case: those views recompute every generation, so nothing
  // could ever read their counts, and they keep no ledger.
  if (pending.ledger != nullptr &&
      ivm::MaterializedView::Classify(compiled->program(),
                                      session_options.eval) ==
          ivm::Fallback::kNone) {
    session_options.eval.support_sink = pending.ledger;
  }
  Session session(std::move(session_options));
  session.Bind(compiled);
  Result<EvalResult> evaluated = session.Run(edb);
  if (!evaluated.ok()) {
    response.status = evaluated.status();
    pending.shard.Add(queries_failed_id_, 1);
    return;
  }
  response.result = std::move(*evaluated);
  item.summary = session.summary();
  pending.shard.Add(queries_completed_id_, 1);
  if (options_.collect_telemetry) {
    response.telemetry_json = session.TelemetryJson("service", response.name);
  }
}

std::string QueryService::MetricsJson(
    const std::function<void(obs::JsonWriter&)>& extra_keys) const {
  // Gather the IVM counters before taking mu_ (lock order: standing_mu_
  // strictly before mu_). Retained stats keep unregistered views'
  // counters monotone; support_* are gauges over live views only.
  uint64_t maintained_queries = 0;
  uint64_t support_bytes = 0;
  uint64_t support_tuples = 0;
  uint64_t private_bytes = 0;
  ivm::IvmStats ivm_stats;
  {
    std::lock_guard<std::mutex> lock(standing_mu_);
    maintained_queries = standing_.size();
    ivm_stats = retained_standing_stats_;
    for (const auto& [id, entry] : standing_) {
      ivm_stats += entry.view->stats();
      private_bytes += entry.view->private_bytes();
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
    w.UInt(snapshot_.generation());
    w.Key("queries");
    w.BeginObject();
    w.Key("submitted");
    w.UInt(metrics.CounterValue(queries_submitted_id_));
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
    w.Key("private_bytes");
    w.UInt(private_bytes);
    w.EndObject();
    if (extra_keys) extra_keys(w);
  };
  return RenderTelemetryDoc("service", "", aggregate_, {}, false,
                            OptimizationReport(), Status::Ok(),
                            &service_telemetry_, extra);
}

}  // namespace exdl
