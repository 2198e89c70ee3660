// QueryService — many concurrent queries over one shared extensional
// database (DESIGN.md §12).
//
// The service composes the API-v2 pieces into a long-lived server object:
//
//   * one shared, internally synchronized Context interns every symbol
//     and predicate the service ever sees;
//   * a ProgramCache of immutable CompiledPrograms keyed by source text +
//     compile options, so re-submitting a query skips parse and optimize
//     entirely (service.cache.hit, and no "optimize >" spans on a warm
//     submission);
//   * a DatabaseSnapshot of the current EDB generation; LoadFacts builds
//     the *next* generation from a copy-on-write clone and publishes it,
//     leaving in-flight queries reading their generation untouched;
//   * one Session per in-flight query, with its own EvalOptions copy,
//     budget (resolved through EvalBudget::FromEnv), telemetry sink, and
//     metric shard — merged into the service counters when that query
//     finishes.
//
// Execution model: Submit/SubmitBatch resolve each request's artifact on
// the calling thread (a compile on a cache miss) and enqueue it; each of
// num_workers threads takes the lowest queued ticket, evaluates it, and
// publishes its response the moment it finishes, so a short query never
// waits for a long one. Await blocks for one ticket.
//
// Determinism: every write to the shared Context — a compile on a cache
// miss, a LoadFacts parse — happens on the calling thread under one mutex,
// so symbol and predicate ids depend only on the order of the Submit,
// SubmitBatch, RegisterStandingQuery and LoadFacts calls, never on pool
// size or scheduling: answers for a given call sequence are byte-identical
// across pool sizes (service_test.cc locks this in).

#ifndef EXDL_SERVICE_QUERY_SERVICE_H_
#define EXDL_SERVICE_QUERY_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/query_request.h"
#include "core/session.h"
#include "durability/durable_edb.h"
#include "ivm/materialized_view.h"
#include "obs/telemetry.h"
#include "recovery/checkpoint.h"
#include "service/program_cache.h"
#include "storage/database.h"
#include "util/cancellation.h"

namespace exdl {

struct ServiceOptions {
  /// Number of threads that run queries. Clamped to >= 1.
  uint32_t num_workers = 1;
  /// ProgramCache capacity; 0 disables caching.
  size_t program_cache_capacity = 64;
  /// Compile pipeline applied to every submitted query (also part of the
  /// cache key).
  CompileOptions compile;
  /// Per-session evaluation template, and the one home of the evaluation
  /// semantics (naive or semi-naive, boolean cut) for one-shot queries and
  /// standing views alike. Each query gets a private copy with its budget
  /// resolved through EvalBudget::FromEnv; with collect_telemetry the
  /// copy's sink is the query's own.
  EvalOptions eval;
  /// Give every query its own obs::Telemetry sink and render a per-query
  /// telemetry document into QueryResponse::telemetry_json.
  bool collect_telemetry = false;
  /// Durable-EDB hook (DESIGN.md §15). When set, every LoadFacts appends
  /// and fsyncs a fact-log record *before* publishing the new snapshot
  /// generation, and compacts on the DurableEdb's schedule. The service
  /// does not recover from it — see service/edb_recovery.h.
  std::shared_ptr<durability::DurableEdb> durable;
};

struct QueryResponse {
  /// OK when evaluation produced a result (even a budget-tripped one —
  /// see result.termination); a compile or hard evaluation error
  /// otherwise.
  Status status;
  /// Valid when status.ok().
  EvalResult result;
  /// The shared artifact this query evaluated (keeps its Context alive).
  CompiledProgram::Ptr program;
  /// Per-query sink; null unless ServiceOptions::collect_telemetry.
  std::shared_ptr<obs::Telemetry> telemetry;
  /// Rendered per-query telemetry document (Session::TelemetryJson);
  /// empty unless collect_telemetry.
  std::string telemetry_json;
  /// EDB snapshot generation the query read.
  uint64_t snapshot_generation = 0;
  /// True when the compiled program came from the ProgramCache.
  bool cache_hit = false;
  /// QueryRequest::name echoed back.
  std::string name;
};

/// One PollStandingQuery answer: the maintained view's current state,
/// rendered exactly as a cold evaluation of the same generation would be.
struct StandingQueryResult {
  uint64_t standing_id = 0;
  /// EDB generation the answers are current as of.
  uint64_t generation = 0;
  /// QueryRequest::name from registration.
  std::string name;
  uint64_t answer_count = 0;
  /// RenderAnswerRows output — byte-identical to a cold run's rendering.
  std::string answers;
  /// True when the most recent maintenance took the incremental path
  /// (trivially true right after registration).
  bool last_was_incremental = true;
  /// Why the view full-recomputes every generation (kNone = it doesn't).
  ivm::Fallback fallback = ivm::Fallback::kNone;
  /// This view's cumulative maintenance counters.
  ivm::IvmStats stats;
};

class QueryService {
 public:
  using Ticket = uint64_t;

  explicit QueryService(ServiceOptions options = {});
  /// Drains every submitted query, then stops the workers. Responses not
  /// yet awaited are discarded.
  ~QueryService();
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Resolves the query's artifact against the current EDB snapshot on
  /// this thread (compiling on a cache miss; a compile error is delivered
  /// through Await), then enqueues it; returns a ticket for Await.
  Ticket Submit(QueryRequest request);
  /// Submit for each request in order, so workers evaluate earlier ones
  /// while later ones compile; one ticket each.
  std::vector<Ticket> SubmitBatch(std::vector<QueryRequest> requests);

  /// Registers a standing query (DESIGN.md §16): evaluates `request` once
  /// through the normal Submit path (same artifact rule, cache, budget),
  /// then installs the result as a materialized view that every later
  /// LoadFacts maintains incrementally. A view on an optimized artifact
  /// switches to the unoptimized one, as a cold Submit would, once a load
  /// puts rows under a predicate the source derives. Blocks until the
  /// seeding evaluation finishes; returns the standing id.
  Result<uint64_t> RegisterStandingQuery(QueryRequest request);

  /// Drops a standing view. Its maintenance counters are retained for
  /// MetricsJson's "ivm" object.
  Status UnregisterStandingQuery(uint64_t standing_id);

  /// The registered view's current answers — rendered text byte-identical
  /// to a cold evaluation of the same source at the view's generation.
  /// Non-blocking: reads the maintained materialization, never
  /// re-evaluates.
  Result<StandingQueryResult> PollStandingQuery(uint64_t standing_id) const;

  /// Blocks until `ticket`'s query finishes and moves its response out.
  /// Each ticket may be awaited exactly once; an unknown or already
  /// consumed ticket yields an InvalidArgument response immediately.
  QueryResponse Await(Ticket ticket);
  std::vector<QueryResponse> AwaitBatch(const std::vector<Ticket>& tickets);

  /// Await with a timeout: waits up to `timeout` for `ticket`'s response.
  /// Returns the response when it arrived in time (or immediately, with an
  /// InvalidArgument response, for an unknown/consumed ticket) and
  /// std::nullopt on timeout — the ticket remains awaitable. The daemon's
  /// connection loops poll through this so a blocked Await can notice a
  /// torn client connection.
  std::optional<QueryResponse> AwaitFor(Ticket ticket,
                                        std::chrono::milliseconds timeout);

  /// Parses a facts-only source (rules are rejected) and publishes the
  /// next EDB snapshot generation: a copy-on-write clone of the current
  /// one plus the new facts. In-flight queries keep reading the
  /// generation they were submitted against.
  ///
  /// The parse interns in call order with Submit's compiles (ids depend
  /// only on the call sequence); the load never waits for queries to run.
  ///
  /// With a durable EDB attached, the fact-log record is fsync'd before
  /// the generation is published; a durability failure leaves the
  /// current snapshot untouched and surfaces the error.
  Status LoadFacts(std::string_view source);

  /// Recovery bootstrap (DESIGN.md §15): installs a compacted EDB
  /// snapshot as generation `generation`. The snapshot's interning
  /// tables are re-interned into the service Context in stored (id)
  /// order, so every id means the same thing it did in the daemon that
  /// wrote it. Must run on a fresh service (no submissions, no loads);
  /// an id mismatch fails closed with kCorruptCheckpoint.
  Status RestoreSnapshot(recovery::Snapshot snapshot, uint64_t generation);

  /// Recovery replay of one logged LoadFacts: same parse/intern/publish
  /// path, but nothing is re-appended to the log, and the
  /// resulting generation must equal `expected_generation` (else
  /// kCorruptCheckpoint). Must run before the service takes traffic.
  Status ReplayFacts(std::string_view source, uint64_t expected_generation);

  /// Attaches the durable-EDB hook after recovery replay (replacing any
  /// hook from ServiceOptions). Call before the first live LoadFacts.
  void AttachDurability(std::shared_ptr<durability::DurableEdb> durable);

  /// The current EDB snapshot (generation 0 / invalid before the first
  /// LoadFacts).
  DatabaseSnapshot snapshot() const;

  ProgramCache::Stats cache_stats() const;
  const ContextPtr& ctx() const { return ctx_; }
  const ServiceOptions& options() const { return options_; }

  /// Renders the merged service telemetry document: the same schema as
  /// Session::TelemetryJson (stats aggregated over every completed query,
  /// service-level metrics rows) plus a "service" object with worker,
  /// snapshot, queue, cache, and LoadFacts copy-on-write counters. Validated by
  /// tools/check_metrics_schema.py. When `extra` is set it is invoked
  /// right before the document closes so an embedder can append its own
  /// top-level keys (the daemon's "daemon" object).
  std::string MetricsJson(
      const std::function<void(obs::JsonWriter&)>& extra = {}) const;

 private:
  struct Pending {
    Ticket ticket = 0;
    QueryRequest request;
    DatabaseSnapshot snapshot;
    /// Resolved on the submitting thread (ResolveLocked): the artifact,
    /// or null and the compile error.
    CompiledProgram::Ptr program = nullptr;
    Status compile_error = Status::Ok();
    bool cache_hit = false;
    /// Per-query sink (collect_telemetry), holding the compile's spans.
    std::shared_ptr<obs::Telemetry> telemetry = nullptr;
    obs::MetricsShard shard;  ///< Cache traffic, then evaluation counters.
    /// RegisterStandingQuery's ledger for the seeding run (it owns it and
    /// waits for the run).
    ivm::SupportLedger* ledger = nullptr;
  };
  struct Active {
    Pending pending;
    QueryResponse response;
    RunSummary summary;
  };

  /// Resolves `request` against the published snapshot and queues it under
  /// the next ticket. Caller holds intern_mu_ and notifies work_cv_.
  Ticket EnqueueLocked(QueryRequest request, ivm::SupportLedger* ledger);
  /// Sets `pending`'s program (or compile_error): its source under
  /// options_.compile, or with optimize=false when its snapshot holds rows
  /// the rewrites would hide (HidesLoadedFacts). Caller holds intern_mu_.
  void ResolveLocked(Pending& pending);
  /// One of the num_workers threads: takes the lowest queued ticket, runs
  /// it, merges its shard and summary, and publishes its response.
  void WorkerLoop();
  /// Shared body of Await and AwaitFor: waits (without limit when
  /// `timeout` is unset) for `ticket`'s response and moves it out.
  std::optional<QueryResponse> Take(
      Ticket ticket, std::optional<std::chrono::milliseconds> timeout);
  /// Evaluates one resolved query on a worker thread in an isolated
  /// Session.
  void ProcessOne(Active& item);
  /// Shared body of LoadFacts (durable == true) and ReplayFacts.
  Status LoadFactsImpl(std::string_view source, bool durable);
  /// Absorbs one published generation into every standing view. Called
  /// by LoadFactsImpl after it released intern_mu_ and mu_.
  void MaintainStandingViews(std::span<const Atom> facts,
                             const DatabaseSnapshot& snapshot);
  /// Rebuilds `view` over `snapshot` on the artifact a cold query of
  /// `source` reads there (ResolveLocked). Caller holds standing_mu_.
  Status ReseedView(ivm::MaterializedView& view, std::string_view source,
                    const DatabaseSnapshot& snapshot);

  ServiceOptions options_;
  ContextPtr ctx_;
  ProgramCache cache_;
  /// Durable-EDB hook; written only before the service takes traffic
  /// (constructor / AttachDurability), read under mu_ afterwards.
  std::shared_ptr<durability::DurableEdb> durable_;
  obs::Telemetry service_telemetry_;

  // Service metric ids (registered in the constructor, before any shard).
  obs::MetricId cache_hit_id_;
  obs::MetricId cache_miss_id_;
  obs::MetricId cache_eviction_id_;
  obs::MetricId queries_submitted_id_;
  obs::MetricId queries_completed_id_;
  obs::MetricId queries_failed_id_;
  obs::MetricId generation_id_;
  /// LoadFacts copy-on-write cost: relations detached from the published
  /// snapshot, and their Relation::storage_bytes.
  obs::MetricId cow_detaches_id_;
  obs::MetricId cow_bytes_copied_id_;
  /// Cold compiles whose optimizer factored the query (DESIGN.md
  /// "Factoring bound queries"); cache hits do not count again.
  obs::MetricId compile_factored_id_;

  // Lock order: standing_mu_, then intern_mu_, then mu_; never the
  // reverse. LoadFactsImpl maintains views only after releasing the other
  // two.
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< Workers: queue or shutdown.
  std::condition_variable done_cv_;  ///< Awaiters: a response arrived.
  std::deque<Pending> queue_;  ///< Ascending tickets.
  /// Every ticket not yet awaited: empty while its query is queued or
  /// running, its response once it finished.
  std::unordered_map<Ticket, std::optional<QueryResponse>> tickets_;
  Ticket next_ticket_ = 0;
  /// The published generation. Written under intern_mu_ and mu_, so
  /// either one suffices to read it.
  DatabaseSnapshot snapshot_;
  /// Aggregate run summary over every completed query (MetricsJson).
  RunSummary aggregate_;
  bool shutdown_ = false;

  /// Serializes every write to ctx_ and every ProgramCache fill in call
  /// order: held from a query's resolution through its enqueue, and from a
  /// load's parse (or a snapshot restore) through its publish.
  std::mutex intern_mu_;

  /// Standing-query registry (DESIGN.md §16).
  struct StandingEntry {
    std::string name;
    /// The registered source: ReseedView resolves its artifact anew.
    std::string source;
    std::unique_ptr<ivm::MaterializedView> view;
    /// Non-OK after a maintenance failure: polls surface this, and the
    /// next generation retries with a full Reseed instead of trusting a
    /// possibly half-applied view.
    Status health;
  };
  mutable std::mutex standing_mu_;
  std::map<uint64_t, StandingEntry> standing_;
  uint64_t next_standing_id_ = 1;
  /// Counters of views already unregistered, so the "ivm" metrics object
  /// never goes backwards.
  ivm::IvmStats retained_standing_stats_;

  std::vector<std::thread> workers_;
};

}  // namespace exdl

#endif  // EXDL_SERVICE_QUERY_SERVICE_H_
