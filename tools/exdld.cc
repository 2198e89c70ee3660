// exdld — the ExDatalog query daemon (DESIGN.md §13).
//
//   exdld --socket PATH [--policy FILE] [--jobs N] [--threads N]
//         [--queue-depth N] [--drain-ms N] [--optimize]
//         [--data-dir DIR] [--compact-every N] [--max-facts-bytes N]
//         [--metrics-json FILE]
//   exdld --tcp HOST:PORT [same flags]
//
// One long-lived server wraps a QueryService behind the protocol of
// src/daemon/protocol.h on a unix-domain socket (or TCP with --tcp).
// Clients are `exdlc connect` invocations; see README "Running the
// daemon".
//
//   --socket PATH       unix-domain socket to listen on (default
//                       transport). A stale socket file left by a killed
//                       daemon is replaced; a live daemon on the path is
//                       an error.
//   --tcp HOST:PORT     listen on TCP instead (port 0 = ephemeral; the
//                       bound port is printed on startup)
//   --policy FILE       admission-control policy (tenant quotas; see
//                       src/daemon/admission.h for the format). Without
//                       it every tenant gets unlimited budgets.
//   --jobs N            query-service workers (parallel sessions)
//   --threads N         per-query evaluation threads
//   --queue-depth N     server-wide in-flight query bound; at the bound
//                       SUBMIT gets RETRY_LATER (default 64)
//   --drain-ms N        graceful-drain grace period (default 5000)
//   --optimize          run the optimizer pipeline on submitted queries
//   --data-dir DIR      durable EDB (DESIGN.md §15): every LOAD_FACTS is
//                       write-ahead logged to DIR/facts.log (fsync before
//                       the generation is acknowledged) and periodically
//                       compacted into DIR/edb.exdl; startup recovers the
//                       directory so loaded facts survive any crash
//   --compact-every N   fact loads between compactions (default 8;
//                       0 = never compact, the log only grows)
//   --max-facts-bytes N reject a LOAD_FACTS source larger than N bytes
//                       with a quota error (default: unlimited)
//   --metrics-json FILE write the telemetry document (with the "daemon"
//                       object): refreshed atomically (tmp + rename, so a
//                       crash never leaves a torn JSON file) every
//                       --metrics-interval-ms while serving, and finally
//                       on clean shutdown
//   --metrics-interval-ms N
//                       refresh period for --metrics-json (default 1000;
//                       lower = fresher dashboards, more write traffic)
//
// Lifecycle: SIGTERM and SIGINT initiate a graceful drain — stop
// accepting, finish or cancel in-flight work, then exit 0. A client
// SHUTDOWN message does the same. SIGKILL is recovered at next startup
// (stale socket replaced, --data-dir replayed) and by clients (batch
// retry reruns against the restarted daemon).
//
// Exit codes: 0 clean shutdown, 1 startup/runtime error, 2 usage.
//
// Fault injection: EXDL_FAULT_SPEC arms the daemon.* sites (see
// recovery/fault.h); tools/fault_sweep.sh drives them.

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "cli_flags.h"
#include "daemon/server.h"
#include "recovery/atomic_file.h"
#include "recovery/fault.h"

namespace exdl::daemon {
namespace {

/// Self-pipe written by the signal handler; the main loop polls it.
int g_signal_pipe[2] = {-1, -1};

extern "C" void HandleTermSignal(int) {
  const char byte = 't';
  [[maybe_unused]] ssize_t ignored = ::write(g_signal_pipe[1], &byte, 1);
}

int Usage() {
  std::cerr << "usage: exdld --socket PATH | --tcp HOST:PORT\n"
               "             [--policy FILE] [--jobs N] [--threads N]\n"
               "             [--queue-depth N] [--drain-ms N] [--optimize]\n"
               "             [--data-dir DIR] [--compact-every N]\n"
               "             [--max-facts-bytes N] [--metrics-json FILE]\n"
               "             [--metrics-interval-ms N]\n";
  return 2;
}

using cli::FindFlag;
using cli::FlagSpec;
using cli::FlagString;
using cli::FlagValue;
using cli::HasFlag;

/// Upper bound of every integer flag.
constexpr uint32_t kMaxFlagValue = 1u << 20;

constexpr FlagSpec kFlagTable[] = {
    {"--socket", true},      {"--tcp", true},      {"--policy", true},
    {"--jobs", true},        {"--threads", true},  {"--queue-depth", true},
    {"--drain-ms", true},    {"--optimize", false},
    {"--data-dir", true},    {"--compact-every", true},
    {"--max-facts-bytes", true},
    {"--metrics-json", true},
    {"--metrics-interval-ms", true},
};

int Main(int argc, char** argv) {
  Status fault = FaultPlan::Global().ArmFromEnv();
  if (!fault.ok()) {
    std::cerr << fault.ToString() << "\n";
    return 2;
  }
  std::vector<std::string> args(argv + 1, argv + argc);
  for (size_t i = 0; i < args.size(); ++i) {
    const FlagSpec* spec = FindFlag(kFlagTable, args[i]);
    if (spec == nullptr) {
      std::cerr << "unknown flag: " << args[i] << "\n";
      return Usage();
    }
    if (spec->takes_value) {
      if (i + 1 >= args.size()) {
        std::cerr << args[i] << " requires a value\n";
        return 2;
      }
      ++i;
    }
  }

  DaemonOptions options;
  options.socket_path = FlagString(args, "--socket", std::string());
  const std::string tcp = FlagString(args, "--tcp", std::string());
  if (!tcp.empty()) {
    const size_t colon = tcp.rfind(':');
    if (colon == std::string::npos) {
      std::cerr << "--tcp requires HOST:PORT\n";
      return 2;
    }
    options.use_tcp = true;
    options.tcp_host = tcp.substr(0, colon);
    try {
      options.tcp_port = static_cast<uint16_t>(std::stoul(tcp.substr(colon + 1)));
    } catch (...) {
      std::cerr << "--tcp requires HOST:PORT\n";
      return 2;
    }
  } else if (options.socket_path.empty()) {
    return Usage();
  }
  const std::string policy_path = FlagString(args, "--policy", std::string());
  if (!policy_path.empty()) {
    Result<AdmissionPolicy> policy = AdmissionPolicy::Load(policy_path);
    if (!policy.ok()) {
      std::cerr << policy.status().ToString() << "\n";
      return 1;
    }
    options.policy = std::move(*policy);
  }
  options.service.num_workers =
      FlagValue(args, "--jobs", 1, 1, kMaxFlagValue);
  options.service.eval.num_threads =
      FlagValue(args, "--threads", 1, 1, kMaxFlagValue);
  options.service.compile.optimize = HasFlag(args, "--optimize");
  options.max_pending = FlagValue(args, "--queue-depth", 64, 1, kMaxFlagValue);
  options.drain_timeout_ms =
      FlagValue(args, "--drain-ms", 5000, 0, kMaxFlagValue);
  options.durability.data_dir = FlagString(args, "--data-dir", std::string());
  options.durability.compact_every =
      FlagValue(args, "--compact-every", 8, 0, kMaxFlagValue);
  options.max_facts_bytes =
      FlagValue(args, "--max-facts-bytes", 0, 0, kMaxFlagValue);

  // SIGTERM / SIGINT drain through the self-pipe; SIGPIPE would otherwise
  // kill the daemon whenever a client disappears mid-write.
  if (::pipe(g_signal_pipe) < 0) {
    std::cerr << "pipe(): " << std::strerror(errno) << "\n";
    return 1;
  }
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGTERM, HandleTermSignal);
  std::signal(SIGINT, HandleTermSignal);
  options.shutdown_notify_fd = g_signal_pipe[1];

  DaemonServer server(std::move(options));
  Status started = server.Start();
  if (!started.ok()) {
    std::cerr << started.ToString() << "\n";
    return 1;
  }
  if (server.durable() != nullptr) {
    const durability::DurabilityCounters recovered =
        server.durable()->counters();
    std::cout << "exdld: recovered " << server.options().durability.data_dir
              << " (generation " << recovered.snapshot_generation
              << " snapshot + " << recovered.records_replayed
              << " replayed record(s)";
    if (recovered.truncated_tail_bytes > 0) {
      std::cout << ", " << recovered.truncated_tail_bytes
                << " torn tail byte(s) truncated";
    }
    std::cout << ")" << std::endl;
  }
  if (server.options().use_tcp) {
    std::cout << "exdld: listening on " << server.options().tcp_host << ":"
              << server.bound_tcp_port() << std::endl;
  } else {
    std::cout << "exdld: listening on " << server.options().socket_path
              << std::endl;
  }

  const std::string metrics_path =
      FlagString(args, "--metrics-json", std::string());

  // Block until a termination signal or a client SHUTDOWN. With
  // --metrics-json, wake every --metrics-interval-ms (default 1000) to
  // refresh the telemetry document atomically — a SIGKILL then leaves a
  // recent, never-torn file.
  const int poll_timeout_ms =
      metrics_path.empty()
          ? -1
          : static_cast<int>(FlagValue(args, "--metrics-interval-ms", 1000, 1,
                                           kMaxFlagValue));
  while (true) {
    pollfd pfd{g_signal_pipe[0], POLLIN, 0};
    const int rc = ::poll(&pfd, 1, poll_timeout_ms);
    if (rc < 0 && errno == EINTR) continue;
    if (rc == 0) {
      Status refreshed =
          recovery::AtomicWriteFile(metrics_path, server.MetricsJson());
      if (!refreshed.ok()) {
        std::cerr << "cannot write " << metrics_path << ": "
                  << refreshed.ToString() << "\n";
      }
      continue;
    }
    break;
  }
  std::cerr << "exdld: draining\n";
  server.Stop();

  if (!metrics_path.empty()) {
    Status written =
        recovery::AtomicWriteFile(metrics_path, server.MetricsJson());
    if (!written.ok()) {
      std::cerr << "cannot write " << metrics_path << ": "
                << written.ToString() << "\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace exdl::daemon

int main(int argc, char** argv) {
  return exdl::daemon::Main(argc, argv);
}
