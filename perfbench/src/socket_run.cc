// End-to-end half of the benchmark: a DaemonServer on a unix socket,
// driven through DaemonClient exactly as `exdlc connect` drives exdld.
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <malloc.h>

#include "daemon/client.h"
#include "daemon/server.h"
#include "harness.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using exdl::daemon::DaemonClient;
using exdl::daemon::DaemonOptions;
using exdl::daemon::DaemonServer;
using exdl::daemon::Endpoint;
using exdl::daemon::ResultMsg;

/// One client connection's share of a run. Merged into the SocketResult
/// after its thread joins.
struct ClientState {
  Tally tally;
  std::vector<double> op_us, submit_rtt_us, await_rtt_us, poll_rtt_us;
  uint64_t submit_attempts = 0, retry_later = 0;
  uint64_t result_bytes = 0, results = 0;
  uint64_t full_recomputes = 0;
  double check_cpu_s = 0;  ///< CPU spent in the oracle comparison.
  bool tracing = false;
  Tracer trace;  ///< Filled only when tracing.
  AnswerChecker checker;  ///< One per daemon: clients live one epoch.
};

void MergeInto(SocketResult& out, ClientState& c) {
  out.tally.Merge(c.tally);
  auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(out.op_us, c.op_us);
  append(out.submit_rtt_us, c.submit_rtt_us);
  append(out.await_rtt_us, c.await_rtt_us);
  append(out.poll_rtt_us, c.poll_rtt_us);
  out.submit_attempts += c.submit_attempts;
  out.retry_later += c.retry_later;
  out.result_bytes += c.result_bytes;
  out.results += c.results;
  out.full_recomputes += c.full_recomputes;
  out.trace.Merge(c.trace);
}

/// Checks a RESULT; the check's CPU time is kept out of the measured CPU.
void CheckAnswer(ClientState& c, const Query& q, const std::string& answers) {
  const double cpu0 = ThreadCpuSeconds();
  const bool ok = c.checker.Check(q, answers);
  c.check_cpu_s += ThreadCpuSeconds() - cpu0;
  c.tally.Record(ok, "wrong answer for request " + std::to_string(q.request_id),
                 /*wrong_answer=*/true);
}

/// One SUBMIT + AWAIT. Returns the RESULT when the query was admitted and
/// evaluated; counts every other outcome as a failure.
std::optional<ResultMsg> SubmitAwait(DaemonClient& client, ClientState& c,
                                     const std::string& source, uint64_t rid,
                                     bool timed) {
  exdl::daemon::SubmitMsg submit;
  submit.name = "r" + std::to_string(rid);
  submit.source = source;
  bool admitted = false;
  exdl::daemon::TicketMsg ticket;
  exdl::daemon::RetryLaterMsg retry;
  exdl::daemon::ErrorMsg error;
  const int64_t t0 = NowNs();
  ++c.submit_attempts;
  exdl::Status sent = client.Submit(submit, &admitted, &ticket, &retry, &error);
  const int64_t t1 = NowNs();
  if (!sent.ok() || !admitted) {
    if (sent.ok() && error.code == 0) ++c.retry_later;  // RETRY_LATER
    c.tally.Record(false,
                   "SUBMIT " + std::to_string(rid) + ": " +
                       (sent.ok() ? error.message : sent.ToString()),
                   false);
    return std::nullopt;
  }
  ResultMsg result;
  exdl::Status awaited = client.Await(ticket.ticket, &result);
  const int64_t t2 = NowNs();
  if (!awaited.ok() || result.status_code != 0 || result.termination_code != 0) {
    c.tally.Record(false,
                   "AWAIT " + std::to_string(rid) + ": " +
                       (awaited.ok() ? result.status_message +
                                           result.termination_message
                                     : awaited.ToString()),
                   false);
    return std::nullopt;
  }
  if (timed) {
    c.op_us.push_back((t2 - t0) / 1e3);
    c.submit_rtt_us.push_back((t1 - t0) / 1e3);
    c.await_rtt_us.push_back((t2 - t1) / 1e3);
    c.result_bytes += result.answers.size();
    ++c.results;
    if (c.tracing) {
      c.trace.Add("daemon.submit", rid, t0, t1);
      c.trace.Add("daemon.await", rid, t1, t2);
    }
  }
  return result;
}

/// A fresh daemon for one epoch.
class Daemon {
 public:
  Daemon(const Options& options, const std::string& data_dir) {
    opts_.socket_path = options.out_dir + "/d.sock";
    opts_.service = ServiceOptionsFor(options.workload);
    opts_.durability.data_dir = data_dir;  // Empty: no durability.
    endpoint_.socket_path = opts_.socket_path;
  }

  exdl::Status Start() {
    server_ = std::make_unique<DaemonServer>(opts_);
    return server_->Start();
  }
  void Stop() {
    if (server_ != nullptr) server_->Stop();
    server_.reset();
  }
  exdl::Status Connect(DaemonClient& client) const {
    return client.Connect(endpoint_, "bench");
  }
  DaemonServer& server() { return *server_; }

 private:
  DaemonOptions opts_;
  Endpoint endpoint_;
  std::unique_ptr<DaemonServer> server_;
};

bool Fail(SocketResult& out, const std::string& what, const exdl::Status& s) {
  if (s.ok()) return false;
  out.tally.Record(false, what + ": " + s.ToString(), false);
  return true;
}

/// Starts the daemon and loads `facts`; the timed part of an epoch's
/// set-up common to every workload.
bool StartAndLoad(SocketResult& out, Daemon& daemon, const std::string& facts,
                  DaemonClient& client) {
  if (Fail(out, "daemon start", daemon.Start())) return false;
  if (Fail(out, "connect", daemon.Connect(client))) return false;
  exdl::Status loaded = client.LoadFacts(facts);
  out.tally.Record(loaded.ok(), "base LOAD_FACTS: " + loaded.ToString(), false);
  return loaded.ok();
}

/// Bytes in live heap allocations, allocator-level: unlike resident-set
/// figures, which move by tens of percent with how much freed memory
/// glibc's per-thread arenas keep resident, it repeats run to run.
double HeapMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1 << 20);
}

/// Stops the daemon and records the heap its teardown released: the data
/// it retained after the measured phase (snapshot, views, caches), without
/// the harness's own. Every client must have disconnected; the heap is
/// read once the daemon has noticed, so no connection thread is still
/// freeing its last result.
void StopAndNoteHeap(SocketResult& out, Daemon& daemon) {
  const int64_t give_up = NowNs() + 5'000'000'000;
  while (daemon.server().counters().connections_active != 0 &&
         NowNs() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double before = HeapMb();
  daemon.Stop();
  out.heap_mb.push_back(before - HeapMb());
}

void NoteCache(SocketResult& out, Daemon& daemon) {
  const exdl::ProgramCache::Stats cache = daemon.server().service().cache_stats();
  out.cache_hits += cache.hits;
  out.cache_misses += cache.misses;
  out.cache_evictions += cache.evictions;
}

// --- serve_mix and deep_closure: closed-loop SUBMIT + AWAIT ---------------

template <typename Stream>
void QueryLoop(const Daemon& daemon, Stream& stream, ClientState& c,
               int64_t deadline_ns) {
  DaemonClient client;
  if (!daemon.Connect(client).ok()) {
    c.tally.Record(false, "client connect", false);
    return;
  }
  while (NowNs() < deadline_ns) {
    const Query q = stream.Next();
    std::optional<Tracer::Scope> root;
    if (c.tracing) root.emplace(&c.trace, "daemon.request", q.request_id);
    std::optional<ResultMsg> result =
        SubmitAwait(client, c, q.source, q.request_id, /*timed=*/true);
    root.reset();
    if (result.has_value()) CheckAnswer(c, q, result->answers);
  }
}

void QueryEpoch(const Options& options, SocketResult& out, double epoch_s,
                const std::string& facts, std::vector<ClientState>& clients,
                auto& streams, const std::vector<Query>& warmup,
                int extra_setups) {
  // Set-up alone is quick here, so repeat it for a median that one slow
  // start cannot move.
  for (int i = 0; i < extra_setups; ++i) {
    Daemon daemon(options, "");
    DaemonClient loader;
    const int64_t t0 = NowNs();
    if (!StartAndLoad(out, daemon, facts, loader)) return;
    out.setup_s.push_back((NowNs() - t0) / 1e9);
    loader.Close();
    daemon.Stop();
  }
  Daemon daemon(options, "");
  DaemonClient loader;
  const int64_t t0 = NowNs();
  if (!StartAndLoad(out, daemon, facts, loader)) return;
  out.setup_s.push_back((NowNs() - t0) / 1e9);
  // Unmeasured warm-up: every cacheable request once, so the measured
  // phase starts with the program cache and lazily built indexes in place.
  ClientState warm;
  for (const Query& q : warmup) {
    std::optional<ResultMsg> r =
        SubmitAwait(loader, warm, q.source, q.request_id, /*timed=*/false);
    if (r.has_value()) CheckAnswer(warm, q, r->answers);
  }
  out.tally.Merge(warm.tally);
  loader.Close();

  const double cpu0 = ProcessCpuSeconds();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(epoch_s * 1e9);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([&, i] {
      clients[i].tracing = options.trace;
      QueryLoop(daemon, streams[i], clients[i], deadline);
    });
  }
  for (std::thread& t : threads) t.join();
  out.wall_s += (NowNs() - start) / 1e9;
  out.cpu_s += ProcessCpuSeconds() - cpu0;
  NoteCache(out, daemon);
  StopAndNoteHeap(out, daemon);
  ++out.epochs;
}

// --- ingest_views: LOAD_FACTS + POLL_RESULT, then restart ------------------

void IngestEpoch(const Options& options, SocketResult& out, ClientState& c,
                 int epoch) {
  const std::string data_dir =
      options.out_dir + "/data-" + std::to_string(epoch);
  fs::remove_all(data_dir);
  IngestStream stream(options.seed * 1000003 + static_cast<uint64_t>(epoch));
  Daemon daemon(options, data_dir);
  DaemonClient client;

  // Set-up: base EDB, 8 standing views, and one one-shot query so `e`
  // carries an index while loads run.
  const int64_t t0 = NowNs();
  if (!StartAndLoad(out, daemon, ChainEdbSource(), client)) return;
  std::vector<uint64_t> views;
  for (int v = 0; v < IngestStream::kViews; ++v) {
    exdl::daemon::SubmitMsg submit;
    submit.name = "view" + std::to_string(v);
    submit.source = stream.ViewSource(v);
    exdl::daemon::RegisteredMsg registered;
    exdl::Status s = client.RegisterQuery(submit, &registered);
    if (Fail(out, "REGISTER_QUERY", s)) return;
    out.tally.Record(SameRows(registered.answers, stream.ExpectedView(v)),
                     "wrong seed answers of view " + std::to_string(v), true);
    views.push_back(registered.standing_id);
  }
  std::optional<ResultMsg> one_shot =
      SubmitAwait(client, c, stream.OneShotSource(), 0, false);
  if (!one_shot.has_value()) return;
  out.tally.Record(SameRows(one_shot->answers, stream.ExpectedOneShot()),
                   "wrong one-shot answers", true);
  out.setup_s.push_back((NowNs() - t0) / 1e9);

  const double cpu0 = ProcessCpuSeconds();
  const int64_t start = NowNs();
  for (int i = 0; i < kIngestLoadsPerEpoch; ++i) {
    const IngestStream::Load load = stream.Next();
    std::optional<Tracer::Scope> root;
    if (options.trace) root.emplace(&c.trace, "daemon.request", load.request_id);
    const int64_t a = NowNs();
    exdl::Status loaded = client.LoadFacts(load.facts);
    const int64_t b = NowNs();
    exdl::daemon::StandingResultMsg polled;
    exdl::Status poll = client.PollResult(views[load.poll_view], &polled);
    const int64_t d = NowNs();
    if (options.trace) {
      c.trace.Add("daemon.load", load.request_id, a, b);
      c.trace.Add("daemon.poll", load.request_id, b, d);
    }
    root.reset();
    c.tally.Record(loaded.ok(), "LOAD_FACTS: " + loaded.ToString(), false);
    c.tally.Record(poll.ok(), "POLL_RESULT: " + poll.ToString(), false);
    if (!loaded.ok() || !poll.ok()) continue;
    c.op_us.push_back((b - a) / 1e3);
    c.poll_rtt_us.push_back((d - b) / 1e3);
    c.full_recomputes += polled.full_recomputes;
    const double check0 = ThreadCpuSeconds();
    const bool ok = SameRows(polled.answers, stream.ExpectedView(load.poll_view));
    c.check_cpu_s += ThreadCpuSeconds() - check0;
    c.tally.Record(ok, "wrong poll after load " + std::to_string(load.request_id),
                   true);
  }
  out.wall_s += (NowNs() - start) / 1e9;
  out.cpu_s += ProcessCpuSeconds() - cpu0;

  // Every view's final poll must be byte-identical to a cold SUBMIT of
  // its query at the same generation (no load runs in between).
  std::vector<std::string> final_polls;
  for (int v = 0; v < IngestStream::kViews; ++v) {
    exdl::daemon::StandingResultMsg polled;
    if (Fail(out, "final POLL_RESULT", client.PollResult(views[v], &polled))) {
      return;
    }
    out.tally.Record(SameRows(polled.answers, stream.ExpectedView(v)),
                     "wrong final poll of view " + std::to_string(v), true);
    std::optional<ResultMsg> cold =
        SubmitAwait(client, c, stream.ViewSource(v), 0, false);
    if (!cold.has_value()) return;
    out.tally.Record(cold->answers == polled.answers,
                     "view " + std::to_string(v) + " differs from a cold run",
                     true);
    final_polls.push_back(std::move(polled.answers));
  }
  client.Close();
  NoteCache(out, daemon);
  StopAndNoteHeap(out, daemon);

  // Restart on the same data dir: every acknowledged load must survive,
  // so cold answers after recovery equal the last polls byte for byte.
  Daemon restarted(options, data_dir);
  if (Fail(out, "restart", restarted.Start())) return;
  out.recovery_s.push_back(
      restarted.server().durable()->counters().recovery_seconds);
  DaemonClient after;
  if (Fail(out, "connect after restart", restarted.Connect(after))) return;
  for (int v = 0; v < IngestStream::kViews; ++v) {
    std::optional<ResultMsg> cold =
        SubmitAwait(after, c, stream.ViewSource(v), 0, false);
    if (!cold.has_value()) return;
    out.tally.Record(cold->answers == final_polls[v],
                     "view " + std::to_string(v) + " lost loads on restart",
                     true);
  }
  after.Close();
  restarted.Stop();
  fs::remove_all(data_dir);
  ++out.epochs;
}

}  // namespace

SocketResult RunSocket(const Options& options, double measure_s) {
  SocketResult out;
  // A traced run makes one epoch of its phase; a measuring run several,
  // each with its own set-up.
  const int epochs = options.trace ? 1 : 3;
  switch (options.workload) {
    case Workload::kServeMix: {
      constexpr int kClients = 2;
      std::vector<ServeMixStream> streams;
      for (int i = 0; i < kClients; ++i) {
        streams.emplace_back(options.seed, i, kClients);
      }
      const std::vector<Query> warmup = streams[0].Warmup();
      const std::string facts = ChainEdbSource();
      for (int e = 0; e < epochs; ++e) {
        std::vector<ClientState> clients(kClients);
        QueryEpoch(options, out, measure_s / epochs, facts, clients, streams,
                   warmup, options.trace ? 0 : 4);
        for (ClientState& c : clients) {
          out.cpu_s -= c.check_cpu_s;
          MergeInto(out, c);
        }
      }
      break;
    }
    case Workload::kDeepClosure: {
      // One long epoch: its warm-up (every source once, ~6 s) fills the
      // program cache, so the daemon's retained heap is the same each run.
      const Graph graph = Graph::Generate(options.seed);
      std::vector<DeepClosureStream> streams{
          DeepClosureStream(options.seed, &graph)};
      std::vector<ClientState> clients(1);
      QueryEpoch(options, out, measure_s, graph.Source(), clients, streams,
                 streams[0].Warmup(), options.trace ? 0 : 14);
      out.cpu_s -= clients[0].check_cpu_s;
      MergeInto(out, clients[0]);
      break;
    }
    case Workload::kIngestViews: {
      for (int e = 0; e < epochs || (!options.trace && out.wall_s < measure_s);
           ++e) {
        ClientState c;
        IngestEpoch(options, out, c, e);
        out.cpu_s -= c.check_cpu_s;
        MergeInto(out, c);
        if (out.tally.failed > 0) break;
      }
      break;
    }
  }
  return out;
}

}  // namespace perfbench
