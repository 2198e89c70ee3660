// exdlc — command-line front end to the ExDatalog optimizer and engine.
//
//   exdlc optimize <file> [--sagiv] [--optimistic] [--magic]
//                          [--no-adorn] [--no-project] [--no-components]
//                          [--no-delete] [--trace] [--metrics-json FILE]
//       Print the optimized program and the per-phase report.
//
//   exdlc run <file...> [--jobs N] [--naive] [--no-cut] [--optimize]
//                    [--deadline-ms N] [--max-tuples N] [--max-bytes N]
//                    [--checkpoint-dir DIR] [--checkpoint-every-rounds N]
//                    [--resume FILE] [--trace] [--metrics-json FILE]
//       Evaluate the program over the facts in the same file and print
//       the query answers plus engine statistics. The budget flags bound
//       the run: wall-clock deadline, total derived-tuple count, and
//       tuple-arena bytes (EXDL_BUDGET_DEADLINE_MS / EXDL_BUDGET_MAX_TUPLES
//       / EXDL_BUDGET_MAX_ARENA_BYTES fill limits the flags leave unset;
//       see EvalBudget::FromEnv). A tripped budget (or Ctrl-C) stops
//       evaluation at a round boundary, prints the answers computed so far
//       from the consistent partial database, and exits nonzero (below).
//       With --checkpoint-dir, every Nth round boundary (default: every
//       round) writes DIR/checkpoint.exdl atomically; --resume FILE reloads
//       such a snapshot and continues the fixpoint from the recorded round,
//       producing output byte-identical to an uninterrupted run. The resumed
//       invocation must use the same program file and the same
//       --optimize/--naive/--no-cut configuration (the snapshot carries a
//       program fingerprint and is refused otherwise).
//       With --jobs N (or more than one input file) the files run as a
//       batch through a shared QueryService (src/service/): one shared
//       interning context, a warm ProgramCache, and N parallel session
//       workers. Output is printed per file in submission order under a
//       "== <file> ==" header and is byte-identical for any N (files
//       compile in submission order on the submitting thread).
//       --metrics-json then writes the merged service document (with a
//       "service" object); checkpoint/resume flags are rejected in batch
//       mode.
//
//   exdlc grammar <file>
//       For a binary chain program: print the grammar, regularity
//       analysis, and (when possible) the Theorem 3.3 monadic program.
//
//   exdlc plan <file>
//       Print the compiled join plan of every rule.
//
//   exdlc explain <file> "<fact>"
//       Evaluate with provenance recording and print the derivation tree
//       of the given ground fact (e.g. exdlc explain tc.dl "tc(n0, n2)").
//
//   exdlc check <file1> <file2> [--trials N]
//       Randomized query-equivalence check of two programs (shared
//       predicate vocabulary; facts in the files are ignored).
//
//   exdlc connect <file...> (--socket PATH | --tcp HOST:PORT)
//                 [--tenant NAME] [--deadline-ms N] [--max-tuples N]
//                 [--max-bytes N] [--retries N] [--retry-base-ms N]
//                 [--load-facts FILE] [--stats] [--shutdown]
//                 [--register] [--poll ID] [--unregister ID]
//       Run the files as a batch against a running exdld daemon
//       (tools/exdld.cc). Output is per file under a "== <file> =="
//       header, byte-identical to `exdlc run <file...> --jobs 1` against
//       the same (initially empty) database. Budget flags are *requests*
//       clamped by the daemon's admission policy. Backpressure
//       (RETRY_LATER) and torn connections (daemon crash/restart) are
//       retried with jittered exponential backoff up to --retries times;
//       a torn connection re-runs the whole batch, which is safe because
//       completed queries are program-cache hits and interning order is
//       replayed. --load-facts loads an EDB file first; --stats prints
//       the daemon telemetry document after the batch; --shutdown asks
//       the daemon to drain.
//       Standing queries (DESIGN.md §16, protocol v2): --register installs
//       each input file as a maintained view instead of running it once —
//       the daemon prints the seed answers and a standing id, then keeps
//       the materialized result current across later LOAD_FACTS via
//       delta-driven semi-naive maintenance. --poll ID prints a view's
//       current answers (no re-evaluation; byte-identical to a cold run of
//       the same source at the same generation) plus maintenance stats on
//       stderr; --unregister ID drops the view. Views are not tied to the
//       registering connection: register in one invocation, poll from
//       another.
//
//   exdlc fault-sites
//       Print every registered fault-injection site, one per line (the
//       single source of truth consumed by tools/fault_sweep.sh).
//
// Observability flags (optimize and run):
//   --trace              print the span tree (per-phase / per-round / per-
//                        rule timings) to stderr after the command
//   --metrics-json FILE  write the machine-readable telemetry document
//                        (DESIGN.md §10; schema tools/metrics_schema.json)
//
// Flags are strict: an unknown flag, or a flag used with a subcommand that
// does not accept it (e.g. a budget flag on `optimize`), exits 2.
//
// Exit codes:
//   0  success
//   1  error (I/O, parse, unsafe program, evaluation failure)
//   2  usage
//   3  check: programs differ
//   4  run: --deadline-ms exceeded (partial answers were printed)
//   5  run: --max-tuples / --max-bytes exhausted (partial answers printed)
//   6  run/optimize: cancelled by SIGINT (partial answers printed)
//   7  run: --resume snapshot failed CRC or structural validation
//   8  connect: cannot reach the exdld daemon (not running / refused),
//      or retries exhausted against an unavailable daemon
//   9  connect: the daemon rejected the fact load (admission / quota);
//      retrying without changing the load or the server policy will not
//      help. A kCorruptCheckpoint from the daemon (durable EDB failed
//      recovery validation) maps to 7, same as a bad --resume snapshot.
//
// Fault injection (testing): EXDL_FAULT_SPEC="<site>:<n>[:abort]" arms one
// deterministic fault that fires on the Nth hit of the named site (see
// recovery/fault.h for the registry). A malformed spec exits 2.

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ast/printer.h"
#include "cli_flags.h"
#include "core/compiled_program.h"
#include "core/session.h"
#include "daemon/client.h"
#include "equiv/random_check.h"
#include "eval/evaluator.h"
#include "eval/plan.h"
#include "grammar/chain.h"
#include "grammar/monadic.h"
#include "grammar/regularity.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "parser/parser.h"
#include "recovery/atomic_file.h"
#include "recovery/fault.h"
#include "service/answer_text.h"
#include "service/query_service.h"
#include "util/cancellation.h"

namespace exdl {
namespace {

/// Raised by the SIGINT handler; polled cooperatively by the evaluator and
/// the optimizer. CancellationToken::Cancel is a single atomic store, so it
/// is async-signal-safe.
CancellationToken g_interrupted;

extern "C" void HandleInterrupt(int) { g_interrupted.Cancel(); }

void InstallInterruptHandler() { std::signal(SIGINT, HandleInterrupt); }

/// Maps a budget-trip status to the documented exit code.
int ExitCodeFor(const Status& termination) {
  switch (termination.code()) {
    case StatusCode::kDeadlineExceeded:
      return 4;
    case StatusCode::kResourceExhausted:
      return 5;
    case StatusCode::kCancelled:
      return 6;
    case StatusCode::kCorruptCheckpoint:
      return 7;
    default:
      return 1;
  }
}

int Usage() {
  std::cerr << "usage: exdlc optimize|run|grammar|plan|check|connect <file> "
               "[flags]\n"
               "       exdlc explain <file> \"<fact>\"\n"
               "       exdlc fault-sites\n"
               "       see the header of tools/exdlc.cc for details\n";
  return 2;
}

// ---------------------------------------------------------------------------
// Flag table. Every flag of every subcommand is declared once here; parsing
// is strict — an unknown flag, a flag on the wrong subcommand, or a missing
// value exits 2. Adding a flag means adding a row, nothing else.

using cli::FindFlag;
using cli::FlagSpec;
using cli::FlagString;
using cli::FlagValue;
using cli::FlagValue64;
using cli::HasFlag;

/// Upper bound of every count-valued flag (jobs, retries, ...).
constexpr uint32_t kMaxCount = 1024;

enum : uint32_t {
  kCmdOptimize = 1u << 0,
  kCmdRun = 1u << 1,
  kCmdCheck = 1u << 2,
  kCmdConnect = 1u << 3,
};

constexpr FlagSpec kFlagTable[] = {
    // optimizer pipeline toggles
    {"--no-adorn", false, kCmdOptimize},
    {"--no-project", false, kCmdOptimize},
    {"--no-components", false, kCmdOptimize},
    {"--no-delete", false, kCmdOptimize},
    {"--sagiv", false, kCmdOptimize},
    {"--optimistic", false, kCmdOptimize},
    {"--magic", false, kCmdOptimize},
    // evaluation
    {"--naive", false, kCmdRun},
    {"--no-cut", false, kCmdRun},
    {"--optimize", false, kCmdRun},
    {"--jobs", true, kCmdRun},
    // budgets (requests under `connect`: the daemon clamps them)
    {"--deadline-ms", true, kCmdRun | kCmdConnect},
    {"--max-tuples", true, kCmdRun | kCmdConnect},
    {"--max-bytes", true, kCmdRun | kCmdConnect},
    // daemon client
    {"--socket", true, kCmdConnect},
    {"--tcp", true, kCmdConnect},
    {"--tenant", true, kCmdConnect},
    {"--retries", true, kCmdConnect},
    {"--retry-base-ms", true, kCmdConnect},
    {"--load-facts", true, kCmdConnect},
    {"--stats", false, kCmdConnect},
    {"--shutdown", false, kCmdConnect},
    // standing queries (protocol v2; DESIGN.md §16)
    {"--register", false, kCmdConnect},
    {"--unregister", true, kCmdConnect},
    {"--poll", true, kCmdConnect},
    // durability
    {"--checkpoint-dir", true, kCmdRun},
    {"--checkpoint-every-rounds", true, kCmdRun},
    {"--resume", true, kCmdRun},
    // equivalence checking
    {"--trials", true, kCmdCheck},
    // observability
    {"--trace", false, kCmdOptimize | kCmdRun},
    {"--metrics-json", true, kCmdOptimize | kCmdRun},
};

/// Strict pass over the argument vector: every token starting with "--"
/// must be a known flag accepted by `command`; value-taking flags consume
/// the next token, which must not itself be a flag. Positional arguments
/// (paths, fact text) pass through. Exits 2 on violation.
void ValidateFlags(const std::vector<std::string>& args,
                   const std::string& command, uint32_t command_mask) {
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) continue;  // positional
    const FlagSpec* spec = FindFlag(kFlagTable, arg);
    if (spec == nullptr) {
      std::cerr << "unknown flag: " << arg << "\n";
      std::exit(2);
    }
    if ((spec->commands & command_mask) == 0) {
      std::cerr << arg << " is not a valid flag for '" << command << "'\n";
      std::exit(2);
    }
    if (spec->takes_value) i = cli::ConsumeValue(kFlagTable, args, i);
  }
}

/// True when --trace or --metrics-json asks for a telemetry sink.
bool WantsTelemetry(const std::vector<std::string>& flags) {
  return HasFlag(flags, "--trace") || HasFlag(flags, "--metrics-json");
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Reads and compiles `path`; prints the error and returns null on failure.
CompiledProgram::Ptr CompileFile(const std::string& path,
                                 const CompileOptions& options,
                                 obs::Telemetry* telemetry = nullptr) {
  Result<std::string> source = ReadFile(path);
  Result<CompiledProgram::Ptr> compiled =
      source.ok() ? CompiledProgram::Compile(*source, options, telemetry)
                  : Result<CompiledProgram::Ptr>(source.status());
  if (!compiled.ok()) {
    std::cerr << compiled.status().ToString() << "\n";
    return nullptr;
  }
  return *compiled;
}

/// Emits the observability outputs after a command: the span tree on
/// stderr for --trace, the telemetry JSON document for --metrics-json.
/// Returns 0, or 1 when the JSON file cannot be written.
int EmitObservability(const Session& session,
                      const std::vector<std::string>& flags,
                      const std::string& command, const std::string& path) {
  const obs::Telemetry* telemetry = session.options().eval.telemetry;
  if (HasFlag(flags, "--trace") && telemetry != nullptr) {
    std::cerr << obs::RenderTrace(telemetry->trace());
  }
  const std::string metrics_path =
      FlagString(flags, "--metrics-json", std::string());
  if (!metrics_path.empty()) {
    // Atomic (temp + fsync + rename) so a crash mid-emit never leaves a
    // truncated JSON document for a dashboard scraper to choke on.
    Status written = recovery::AtomicWriteFile(
        metrics_path, session.TelemetryJson(command, path));
    if (!written.ok()) {
      std::cerr << "cannot write " << metrics_path << ": "
                << written.ToString() << "\n";
      return 1;
    }
  }
  return 0;
}

int CmdOptimize(const std::string& path,
                const std::vector<std::string>& flags) {
  // Install before any I/O or parsing so an early Ctrl-C is not lost
  // (background shells start children with SIGINT ignored).
  InstallInterruptHandler();
  CompileOptions options;
  options.optimize = true;
  options.optimizer.adorn = !HasFlag(flags, "--no-adorn");
  options.optimizer.push_projections = !HasFlag(flags, "--no-project");
  options.optimizer.extract_components = !HasFlag(flags, "--no-components");
  options.optimizer.delete_rules = !HasFlag(flags, "--no-delete");
  options.optimizer.deletion.use_sagiv = HasFlag(flags, "--sagiv");
  options.optimizer.deletion.use_optimistic = HasFlag(flags, "--optimistic");
  options.optimizer.apply_magic = HasFlag(flags, "--magic");
  options.optimizer.cancellation = &g_interrupted;
  SessionOptions session_options;
  std::unique_ptr<obs::Telemetry> telemetry;
  if (WantsTelemetry(flags)) telemetry = std::make_unique<obs::Telemetry>();
  session_options.eval.telemetry = telemetry.get();
  CompiledProgram::Ptr compiled = CompileFile(path, options, telemetry.get());
  if (compiled == nullptr) return 1;
  std::cout << ToString(compiled->program());
  if (compiled->magic_seed()) {
    std::cout << "% seed fact: "
              << ToString(*compiled->context(), *compiled->magic_seed())
              << ".\n";
  }
  std::cerr << "\n" << compiled->report().ToString();
  // A session that never runs: its telemetry document lists the optimized
  // program's rules and the optimizer phases.
  Session session(std::move(session_options));
  session.Bind(compiled);
  int obs_rc = EmitObservability(session, flags, "optimize", path);
  if (!compiled->optimize_termination().ok()) {
    std::cerr << compiled->optimize_termination().ToString() << "\n";
    return ExitCodeFor(compiled->optimize_termination());
  }
  return obs_rc;
}

int CmdRun(const std::string& path, const std::vector<std::string>& flags) {
  InstallInterruptHandler();
  SessionOptions options;
  options.eval.seminaive = !HasFlag(flags, "--naive");
  options.eval.boolean_cut = !HasFlag(flags, "--no-cut");
  // Budget precedence: explicit flags, then EXDL_BUDGET_* environment
  // variables for whatever the flags left unset (see EvalBudget::FromEnv).
  options.eval.budget = EvalBudget::FromEnv(EvalBudget::FromFlags(
      FlagValue64(flags, "--deadline-ms", 0),
      FlagValue64(flags, "--max-tuples", 0),
      FlagValue64(flags, "--max-bytes", 0), &g_interrupted));
  options.checkpoint_directory =
      FlagString(flags, "--checkpoint-dir", std::string());
  options.eval.checkpoint_every_rounds =
      FlagValue(flags, "--checkpoint-every-rounds", 1, 1, kMaxCount);
  std::unique_ptr<obs::Telemetry> telemetry;
  if (WantsTelemetry(flags)) telemetry = std::make_unique<obs::Telemetry>();
  options.eval.telemetry = telemetry.get();
  CompileOptions compile;
  compile.optimize = HasFlag(flags, "--optimize");
  compile.optimizer.cancellation = &g_interrupted;
  CompiledProgram::Ptr compiled = CompileFile(path, compile, telemetry.get());
  if (compiled == nullptr) return 1;
  Session session(std::move(options));
  session.Bind(compiled);
  // The session checks the snapshot against the compiled (possibly
  // optimized) program under the same eval semantics its checkpoints are
  // stamped with.
  const std::string resume_path =
      FlagString(flags, "--resume", std::string());
  if (!resume_path.empty()) {
    Result<recovery::Snapshot> snap = recovery::ReadSnapshotFile(resume_path);
    Status resumed = snap.ok()
                         ? session.ArmResume(std::move(*snap), resume_path)
                         : snap.status();
    if (!resumed.ok()) {
      std::cerr << resumed.ToString() << "\n";
      return ExitCodeFor(resumed);
    }
  }
  Result<EvalResult> result = session.Run(compiled->facts());
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return 1;
  }
  std::cout << RenderAnswerRows(*compiled->context(), result->answers);
  std::cerr << result->answers.size() << " answer(s)   ["
            << result->stats.ToString() << "]\n";
  int obs_rc = EmitObservability(session, flags, "run", path);
  if (!result->termination.ok()) {
    std::cerr << "budget tripped ("
              << BudgetKindName(result->stats.budget_tripped)
              << "): " << result->termination.ToString()
              << "\nanswers above reflect the consistent partial database "
                 "as of the last completed round\n";
    return ExitCodeFor(result->termination);
  }
  return obs_rc;
}

/// `exdlc run` in batch mode: every input file becomes one query of a
/// shared QueryService. Used when --jobs is given or several files are
/// listed. Per-file answers print in submission order (deterministic for
/// any worker count); --metrics-json writes the merged service document.
int CmdRunService(const std::vector<std::string>& files,
                  const std::vector<std::string>& flags) {
  InstallInterruptHandler();
  if (!FlagString(flags, "--checkpoint-dir", std::string()).empty() ||
      !FlagString(flags, "--resume", std::string()).empty()) {
    std::cerr << "--checkpoint-dir/--resume are not supported with --jobs\n";
    return 2;
  }
  ServiceOptions options;
  options.num_workers = FlagValue(flags, "--jobs", 1, 1, kMaxCount);
  options.eval.seminaive = !HasFlag(flags, "--naive");
  options.eval.boolean_cut = !HasFlag(flags, "--no-cut");
  // Flag-set limits only; the service resolves EXDL_BUDGET_* per session
  // via EvalBudget::FromEnv.
  options.eval.budget = EvalBudget::FromFlags(
      FlagValue64(flags, "--deadline-ms", 0),
      FlagValue64(flags, "--max-tuples", 0),
      FlagValue64(flags, "--max-bytes", 0), &g_interrupted);
  options.compile.optimize = HasFlag(flags, "--optimize");
  options.compile.optimizer.cancellation = &g_interrupted;
  options.collect_telemetry = WantsTelemetry(flags);
  std::vector<QueryRequest> requests;
  for (const std::string& file : files) {
    Result<std::string> source = ReadFile(file);
    if (!source.ok()) {
      std::cerr << source.status().message() << "\n";
      return 1;
    }
    requests.push_back(
        QueryRequest{.source = std::move(*source), .name = file});
  }
  QueryService service(std::move(options));
  const std::vector<QueryService::Ticket> tickets =
      service.SubmitBatch(std::move(requests));
  int rc = 0;
  for (QueryService::Ticket ticket : tickets) {
    QueryResponse response = service.Await(ticket);
    std::cout << "== " << response.name << " ==\n";
    if (!response.status.ok()) {
      std::cerr << response.name << ": " << response.status.ToString() << "\n";
      rc = std::max(rc, 1);
      continue;
    }
    std::cout << RenderAnswerRows(*service.ctx(), response.result.answers);
    std::cerr << response.name << ": " << response.result.answers.size()
              << " answer(s)   [" << response.result.stats.ToString() << "]"
              << (response.cache_hit ? "   (cached program)" : "") << "\n";
    if (HasFlag(flags, "--trace") && response.telemetry != nullptr) {
      std::cerr << obs::RenderTrace(response.telemetry->trace());
    }
    if (!response.result.termination.ok()) {
      std::cerr << response.name << ": budget tripped ("
                << BudgetKindName(response.result.stats.budget_tripped)
                << "): " << response.result.termination.ToString() << "\n";
      rc = std::max(rc, ExitCodeFor(response.result.termination));
    }
  }
  const std::string metrics_path =
      FlagString(flags, "--metrics-json", std::string());
  if (!metrics_path.empty()) {
    Status written =
        recovery::AtomicWriteFile(metrics_path, service.MetricsJson());
    if (!written.ok()) {
      std::cerr << "cannot write " << metrics_path << ": "
                << written.ToString() << "\n";
      rc = std::max(rc, 1);
    }
  }
  return rc;
}

/// `exdlc connect`: run the input files as a batch against an exdld
/// daemon. Stdout is byte-identical to CmdRunService with --jobs 1 (both
/// ends render through RenderAnswerRows; the batch runner replays the
/// submission sequence on retry).
int CmdConnect(const std::vector<std::string>& files,
               const std::vector<std::string>& flags) {
  daemon::Endpoint endpoint;
  endpoint.socket_path = FlagString(flags, "--socket", std::string());
  const std::string tcp = FlagString(flags, "--tcp", std::string());
  if (!tcp.empty()) {
    const size_t colon = tcp.rfind(':');
    if (colon == std::string::npos) {
      std::cerr << "--tcp requires HOST:PORT\n";
      return 2;
    }
    endpoint.use_tcp = true;
    endpoint.tcp_host = tcp.substr(0, colon);
    try {
      endpoint.tcp_port =
          static_cast<uint16_t>(std::stoul(tcp.substr(colon + 1)));
    } catch (...) {
      std::cerr << "--tcp requires HOST:PORT\n";
      return 2;
    }
  } else if (endpoint.socket_path.empty()) {
    std::cerr << "connect requires --socket PATH or --tcp HOST:PORT\n";
    return 2;
  }

  daemon::BatchOptions options;
  options.tenant = FlagString(flags, "--tenant", std::string());
  options.deadline_ms = FlagValue64(flags, "--deadline-ms", 0);
  options.max_tuples = FlagValue64(flags, "--max-tuples", 0);
  options.max_bytes = FlagValue64(flags, "--max-bytes", 0);
  options.max_retries = FlagValue(flags, "--retries", 5, 1, kMaxCount);
  options.retry_base_ms =
      FlagValue(flags, "--retry-base-ms", 25, 1, kMaxCount);

  const std::string facts_path =
      FlagString(flags, "--load-facts", std::string());
  if (!facts_path.empty()) {
    Result<std::string> facts = ReadFile(facts_path);
    if (!facts.ok()) {
      std::cerr << facts.status().ToString() << "\n";
      return 1;
    }
    options.facts_source = std::move(*facts);
  }
  std::vector<daemon::BatchQuery> queries;
  for (const std::string& file : files) {
    Result<std::string> source = ReadFile(file);
    if (!source.ok()) {
      std::cerr << source.status().ToString() << "\n";
      return 1;
    }
    queries.push_back(daemon::BatchQuery{file, std::move(*source)});
  }

  // Standing-query mode (DESIGN.md §16): --register installs each input
  // file as a maintained view, --poll reads a view's current answers,
  // --unregister drops one. These bypass RunBatch — they are single
  // request/reply exchanges on one connection, and a standing view
  // outlives the connection anyway, so torn-connection replay semantics
  // do not apply.
  const bool do_register = HasFlag(flags, "--register");
  const uint64_t unregister_id = FlagValue64(flags, "--unregister", 0);
  const uint64_t poll_id = FlagValue64(flags, "--poll", 0);
  if (do_register || unregister_id != 0 || poll_id != 0) {
    daemon::DaemonClient client;
    Status connected = client.Connect(endpoint, options.tenant);
    if (!connected.ok()) {
      std::cerr << "exdlc: " << connected.message()
                << "\nexdlc: is exdld running? start it with: exdld "
                << (endpoint.use_tcp ? "--tcp " + tcp
                                     : "--socket " + endpoint.socket_path)
                << "\n";
      return connected.code() == StatusCode::kUnavailable ? 8 : 1;
    }
    if (!options.facts_source.empty()) {
      Status loaded = client.LoadFacts(options.facts_source);
      if (!loaded.ok()) {
        std::cerr << "exdlc: fact load failed: " << loaded.ToString() << "\n";
        return loaded.code() == StatusCode::kResourceExhausted ||
                       loaded.code() == StatusCode::kFailedPrecondition
                   ? 9
                   : loaded.code() == StatusCode::kCorruptCheckpoint ? 7 : 1;
      }
    }
    int rc = 0;
    if (do_register) {
      for (const daemon::BatchQuery& query : queries) {
        daemon::SubmitMsg submit;
        submit.name = query.name;
        submit.source = query.source;
        submit.deadline_ms = options.deadline_ms;
        submit.max_tuples = options.max_tuples;
        submit.max_bytes = options.max_bytes;
        daemon::RegisteredMsg registered;
        Status status = client.RegisterQuery(submit, &registered);
        if (!status.ok()) {
          std::cerr << query.name << ": " << status.ToString() << "\n";
          rc = std::max(rc, status.code() == StatusCode::kUnavailable ? 8 : 1);
          continue;
        }
        std::cout << "== " << query.name << " ==\n" << registered.answers;
        std::cerr << query.name << ": registered standing query "
                  << registered.standing_id << " at generation "
                  << registered.generation << ", " << registered.answer_count
                  << " answer(s)\n";
      }
    }
    if (poll_id != 0) {
      daemon::StandingResultMsg result;
      Status status = client.PollResult(poll_id, &result);
      if (!status.ok()) {
        std::cerr << "exdlc: poll " << poll_id << ": " << status.ToString()
                  << "\n";
        rc = std::max(rc, 1);
      } else {
        // Answers only on stdout: the byte-identity contract is that this
        // output matches a cold `exdlc run` of the same source against the
        // same generation (modulo the "== name ==" batch header).
        std::cout << result.answers;
        std::cerr << "standing " << result.standing_id << ": "
                  << result.answer_count << " answer(s) at generation "
                  << result.generation << "   ["
                  << (result.incremental != 0 ? "incremental" : "recompute")
                  << ", fallback=" << result.fallback
                  << ", delta_rounds=" << result.delta_rounds
                  << ", full_recomputes=" << result.full_recomputes
                  << ", tuples_rederived=" << result.tuples_rederived << "]\n";
      }
    }
    if (unregister_id != 0) {
      Status status = client.UnregisterQuery(unregister_id);
      if (!status.ok()) {
        std::cerr << "exdlc: unregister " << unregister_id << ": "
                  << status.ToString() << "\n";
        rc = std::max(rc, 1);
      } else {
        std::cerr << "unregistered standing query " << unregister_id << "\n";
      }
    }
    if (HasFlag(flags, "--stats")) {
      std::string json;
      Status stats = client.Stats(&json);
      if (!stats.ok()) {
        std::cerr << stats.ToString() << "\n";
        return 1;
      }
      std::cout << json << "\n";
    }
    if (HasFlag(flags, "--shutdown")) {
      Status shutdown = client.Shutdown();
      if (!shutdown.ok()) {
        std::cerr << shutdown.ToString() << "\n";
        return 1;
      }
    }
    return rc;
  }

  int rc = 0;
  if (!queries.empty() || !options.facts_source.empty()) {
    Result<daemon::BatchResult> batch =
        daemon::RunBatch(endpoint, queries, options);
    if (!batch.ok()) {
      if (batch.status().code() == StatusCode::kUnavailable) {
        std::cerr << "exdlc: " << batch.status().message()
                  << "\nexdlc: is exdld running? start it with: exdld "
                  << (endpoint.use_tcp ? "--tcp " + tcp
                                       : "--socket " + endpoint.socket_path)
                  << "\n";
        return 8;
      }
      if (batch.status().code() == StatusCode::kResourceExhausted ||
          batch.status().code() == StatusCode::kFailedPrecondition) {
        // Admission / quota rejection (e.g. --max-facts-bytes, tenant
        // policy): the daemon is healthy but refused this load. Distinct
        // from 8 so callers don't retry against a daemon that will keep
        // saying no.
        std::cerr << "exdlc: daemon rejected the fact load (admission/quota): "
                  << batch.status().message() << "\n";
        return 9;
      }
      if (batch.status().code() == StatusCode::kCorruptCheckpoint) {
        // The daemon's durable EDB failed recovery validation (DESIGN.md
        // §15) — same class of failure as a corrupt --resume snapshot.
        std::cerr << "exdlc: daemon durable state is corrupt: "
                  << batch.status().message() << "\n";
        return 7;
      }
      std::cerr << batch.status().ToString() << "\n";
      return 1;
    }
    for (const daemon::BatchQueryResult& query : batch->queries) {
      std::cout << "== " << query.name << " ==\n";
      const Status status =
          daemon::StatusFromWire(query.result.status_code,
                                 query.result.status_message);
      if (!status.ok()) {
        std::cerr << query.name << ": " << status.ToString() << "\n";
        rc = std::max(rc, 1);
        continue;
      }
      std::cout << query.result.answers;
      std::cerr << query.name << ": " << query.result.answer_count
                << " answer(s)   [" << query.result.stats_text << "]"
                << (query.result.cache_hit != 0 ? "   (cached program)" : "")
                << "\n";
      const Status termination =
          daemon::StatusFromWire(query.result.termination_code,
                                 query.result.termination_message);
      if (!termination.ok()) {
        std::cerr << query.name << ": budget tripped ("
                  << query.result.budget_kind << "): "
                  << termination.ToString() << "\n";
        rc = std::max(rc, ExitCodeFor(termination));
      }
    }
  }

  if (HasFlag(flags, "--stats") || HasFlag(flags, "--shutdown")) {
    daemon::DaemonClient client;
    Status connected = client.Connect(endpoint, options.tenant);
    if (!connected.ok()) {
      std::cerr << "exdlc: " << connected.message() << "\n";
      return connected.code() == StatusCode::kUnavailable ? 8 : 1;
    }
    if (HasFlag(flags, "--stats")) {
      std::string json;
      Status stats = client.Stats(&json);
      if (!stats.ok()) {
        std::cerr << stats.ToString() << "\n";
        return 1;
      }
      std::cout << json << "\n";
    }
    if (HasFlag(flags, "--shutdown")) {
      Status shutdown = client.Shutdown();
      if (!shutdown.ok()) {
        std::cerr << shutdown.ToString() << "\n";
        return 1;
      }
    }
  }
  return rc;
}

int CmdGrammar(const std::string& path) {
  CompiledProgram::Ptr compiled = CompileFile(path, CompileOptions());
  if (compiled == nullptr) return 1;
  const Program& program = compiled->program();
  Result<Cfg> grammar = ChainProgramToGrammar(program);
  if (!grammar.ok()) {
    std::cerr << grammar.status().ToString() << "\n";
    return 1;
  }
  std::cout << grammar->ToString();
  std::cout << "% self-embedding:   "
            << (IsSelfEmbedding(*grammar) ? "yes" : "no") << "\n";
  std::cout << "% strongly regular: "
            << (IsStronglyRegular(*grammar) ? "yes" : "no") << "\n";
  Result<Program> monadic = MonadicEquivalent(program);
  if (monadic.ok()) {
    std::cout << "% Theorem 3.3 monadic program:\n" << ToString(*monadic);
  } else {
    std::cout << "% no monadic conversion: " << monadic.status().ToString()
              << "\n";
  }
  return 0;
}

int CmdCheck(const std::string& path1, const std::string& path2,
             const std::vector<std::string>& flags) {
  // The two programs must share one Context (ids stay comparable), so the
  // check parses both files into one context instead of compiling each.
  Result<std::string> s1 = ReadFile(path1);
  Result<std::string> s2 = ReadFile(path2);
  if (!s1.ok() || !s2.ok()) {
    std::cerr << "cannot read inputs\n";
    return 1;
  }
  ContextPtr ctx = std::make_shared<Context>();
  Result<ParsedUnit> p1 = ParseProgram(*s1, ctx);
  Result<ParsedUnit> p2 = ParseProgram(*s2, ctx);
  if (!p1.ok() || !p2.ok()) {
    std::cerr << (p1.ok() ? p2.status() : p1.status()).ToString() << "\n";
    return 1;
  }
  RandomCheckOptions options;
  options.trials = static_cast<int>(
      FlagValue(flags, "--trials", static_cast<uint32_t>(options.trials), 1,
                kMaxCount));
  Result<RandomCheckReport> report =
      CheckQueryEquivalentOnEdb(p1->program, p2->program, options);
  if (!report.ok()) {
    std::cerr << report.status().ToString() << "\n";
    return 1;
  }
  if (report->equivalent) {
    std::cout << "no difference found in " << report->trials_run
              << " random trials\n";
    return 0;
  }
  std::cout << "NOT equivalent:\n" << report->counterexample << "\n";
  return 3;
}

int CmdPlan(const std::string& path) {
  CompiledProgram::Ptr compiled = CompileFile(path, CompileOptions());
  if (compiled == nullptr) return 1;
  const Context& ctx = *compiled->context();
  for (const Rule& rule : compiled->program().rules()) {
    std::cout << ToString(ctx, rule) << "\n";
    Result<RulePlan> plan = CompileRule(rule, PlanOptions());
    if (!plan.ok()) {
      std::cout << "  (uncompilable: " << plan.status().ToString() << ")\n";
      continue;
    }
    std::cout << PlanToString(ctx, *plan);
  }
  return 0;
}

int CmdExplain(const std::string& path, const std::string& fact_text) {
  CompiledProgram::Ptr compiled = CompileFile(path, CompileOptions());
  if (compiled == nullptr) return 1;
  Result<Atom> fact = ParseAtom(fact_text, compiled->context().get());
  if (!fact.ok() || !fact->IsGround()) {
    std::cerr << "explain needs a ground fact, e.g. \"tc(n0, n2)\"\n";
    return 1;
  }
  EvalOptions eval;
  eval.record_provenance = true;
  Result<EvalResult> result =
      Evaluate(compiled->program(), compiled->facts(), eval);
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return 1;
  }
  std::vector<Value> row;
  for (const Term& t : fact->args) row.push_back(t.id());
  Result<std::string> explained =
      ExplainFact(compiled->program(), *result, fact->pred, row);
  if (!explained.ok()) {
    std::cerr << explained.status().ToString() << "\n";
    return 1;
  }
  std::cout << *explained;
  return 0;
}

int Main(int argc, char** argv) {
  Status fault = FaultPlan::Global().ArmFromEnv();
  if (!fault.ok()) {
    std::cerr << fault.ToString() << "\n";
    return 2;
  }
  if (argc >= 2 && std::strcmp(argv[1], "fault-sites") == 0) {
    for (std::string_view site : FaultPlan::Sites()) {
      std::cout << site << "\n";
    }
    return 0;
  }
  if (argc < 3) return Usage();
  std::string command = argv[1];
  std::vector<std::string> rest(argv + 2, argv + argc);
  if (command == "optimize") {
    ValidateFlags(rest, command, kCmdOptimize);
    return CmdOptimize(rest[0], rest);
  }
  if (command == "run") {
    ValidateFlags(rest, command, kCmdRun);
    // Positional arguments = input files (flag values already validated,
    // so skip the token after every value-taking flag).
    std::vector<std::string> files;
    for (size_t i = 0; i < rest.size(); ++i) {
      if (rest[i].rfind("--", 0) == 0) {
        const FlagSpec* spec = FindFlag(kFlagTable, rest[i]);
        if (spec != nullptr && spec->takes_value) ++i;
        continue;
      }
      files.push_back(rest[i]);
    }
    if (files.empty()) return Usage();
    if (HasFlag(rest, "--jobs") || files.size() > 1) {
      return CmdRunService(files, rest);
    }
    return CmdRun(files[0], rest);
  }
  if (command == "connect") {
    ValidateFlags(rest, command, kCmdConnect);
    std::vector<std::string> files;
    for (size_t i = 0; i < rest.size(); ++i) {
      if (rest[i].rfind("--", 0) == 0) {
        const FlagSpec* spec = FindFlag(kFlagTable, rest[i]);
        if (spec != nullptr && spec->takes_value) ++i;
        continue;
      }
      files.push_back(rest[i]);
    }
    return CmdConnect(files, rest);
  }
  if (command == "grammar") {
    ValidateFlags(rest, command, 0);
    return CmdGrammar(rest[0]);
  }
  if (command == "plan") {
    ValidateFlags(rest, command, 0);
    return CmdPlan(rest[0]);
  }
  if (command == "explain") {
    if (rest.size() < 2) return Usage();
    ValidateFlags(rest, command, 0);
    return CmdExplain(rest[0], rest[1]);
  }
  if (command == "check") {
    if (rest.size() < 2) return Usage();
    ValidateFlags(rest, command, kCmdCheck);
    return CmdCheck(rest[0], rest[1], rest);
  }
  return Usage();
}

}  // namespace
}  // namespace exdl

int main(int argc, char** argv) { return exdl::Main(argc, argv); }
