// The two halves of a benchmark run.
//
//   RunSocket   the end-to-end measurement: an in-process DaemonServer
//               configured as deployed, driven by DaemonClient
//               connections over a unix socket. Tracing adds only
//               client-side spans around each exchange (the daemon
//               layer).
//   RunReplay   the traced per-layer measurement: the same seeded
//               operation stream replayed in-process, first through the
//               QueryService's public calls (service-level spans), then
//               through each layer's public function in the order the
//               server calls them, with a span around every call.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/query_service.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct Options {
  Workload workload = Workload::kServeMix;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Directory (relative to the working directory, so socket paths stay
  /// short) for sockets, data dirs and the trace file.
  std::string out_dir;
};

/// Loads per ingest_views epoch. Fixed, so every epoch ends with the same
/// state whatever the machine's speed.
inline constexpr int kIngestLoadsPerEpoch = 400;

/// The service configuration of each workload's daemon (DaemonOptions::
/// service), shared by the in-process replay: optimizer on, program
/// cache 64, and the workload's worker and evaluator thread counts.
exdl::ServiceOptions ServiceOptionsFor(Workload workload);

/// Process user+system CPU seconds.
double ProcessCpuSeconds();
/// CPU seconds of the calling thread.
double ThreadCpuSeconds();

/// Answer checks and failures, shared by both halves.
struct Tally {
  uint64_t attempted = 0;  ///< Requests sent, checks included.
  uint64_t failed = 0;     ///< Errors, refusals and wrong answers.
  uint64_t wrong = 0;      ///< Wrong answers alone.
  std::vector<std::string> errors;  ///< The first few failure messages.

  /// Counts one request; `ok` false makes it a failure.
  void Record(bool ok, const std::string& what, bool wrong_answer);
  void Merge(const Tally& other);
};

/// Checks answers against the oracle. A source already checked against
/// the same daemon or service must answer byte-identically to its first
/// check, which keeps repeat checks cheap (one compare of the text).
class AnswerChecker {
 public:
  bool Check(const Query& q, const std::string& answers);

 private:
  std::unordered_map<std::string, std::string> first_;
};

struct SocketResult {
  Tally tally;
  std::vector<double> op_us;     ///< Primary-op latency, measured phases.
  std::vector<double> setup_s;   ///< Every timed set-up.
  std::vector<double> heap_mb;   ///< Live heap after each epoch.
  double cpu_s = 0;   ///< Process CPU in measured phases, oracle excluded.
  double wall_s = 0;  ///< Wall time of the measured phases.
  int epochs = 0;
  // Client-side exchange timings (all runs; reported by traced runs).
  std::vector<double> submit_rtt_us, await_rtt_us, poll_rtt_us;
  uint64_t submit_attempts = 0, retry_later = 0;
  uint64_t result_bytes = 0, results = 0;
  uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  uint64_t full_recomputes = 0;
  std::vector<double> recovery_s;
  Tracer trace;  ///< Client spans; filled only when tracing.
};

/// Runs the workload over the socket for `measure_s` seconds of measured
/// time, split over epochs that each start a fresh daemon with its own
/// timed set-up.
SocketResult RunSocket(const Options& options, double measure_s);

struct ReplayResult {
  Tally tally;
  Tracer trace;
  /// Per-layer metrics this half measures, by name.
  std::map<std::string, double> metrics;
};

/// The in-process traced replay; each of its two phases measures for
/// `phase_s` seconds (ingest_views: kIngestLoadsPerEpoch loads each).
ReplayResult RunReplay(const Options& options, double phase_s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
