// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload <serve_mix|ingest_views|deep_closure> --seed N
//             --seconds S --trace <0|1> --out DIR
//             [--git-commit SHA] [--source-digest HEX]
//
// --trace 0 measures the end-to-end metrics over the daemon socket with
// tracing off; --trace 1 measures the per-layer metrics (a traced socket
// phase plus the in-process replay). Either way every answer is checked
// against the oracle. Human-readable lines come first; the last line of
// standard output is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// The exit code is 0 only when every operation succeeded with the right
// answer. README.md lists every metric and what it should move.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "harness.h"
#include "stats.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  std::string unit;
};

/// Every end-to-end metric, printed by --trace 0 on every workload.
const std::vector<Metric>& EndToEndMetrics() {
  static const std::vector<Metric> metrics = {
      {"setup_s", "s"},
      {"op_p50_us", "us"},
      {"cpu_us_per_op", "us"},
      {"heap_mb", "MB"},
  };
  return metrics;
}

/// Every per-layer metric, printed by --trace 1 on every workload (0 where
/// the workload leaves the layer idle).
const std::vector<Metric>& PerLayerMetrics() {
  static const std::vector<Metric> metrics = {
      {"daemon.submit_rtt_us", "us"},
      {"daemon.await_rtt_us", "us"},
      {"daemon.load_rtt_us", "us"},
      {"daemon.poll_rtt_us", "us"},
      {"daemon.result_bytes_per_op", "bytes"},
      {"daemon.results", "count"},
      {"daemon.backpressure_ratio", "ratio"},
      {"daemon.submit_attempts", "count"},
      {"daemon.op_tail_us", "us"},
      {"daemon.op_tail_pct", "pct"},
      {"daemon.op_samples", "count"},
      {"daemon.ops_per_s", "1/s"},
      {"daemon.self_us_per_op", "us"},
      {"service.submit_await_us", "us"},
      {"service.load_facts_us", "us"},
      {"service.poll_us", "us"},
      {"service.render_us", "us"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.cache_lookups", "count"},
      {"service.cache_evictions", "count"},
      {"service.self_us_per_op", "us"},
      {"parser.query_parse_us", "us"},
      {"parser.facts_parse_us", "us"},
      {"parser.self_us_per_op", "us"},
      {"core.compile_us", "us"},
      {"core.optimize_us", "us"},
      {"core.compiles", "count"},
      {"core.argument_positions_dropped", "count"},
      {"core.rules_deleted", "count"},
      {"core.self_us_per_op", "us"},
      {"eval.evaluate_us", "us"},
      {"eval.max_round_us", "us"},
      {"eval.rounds", "count"},
      {"eval.rule_firings", "count"},
      {"eval.tuples_inserted", "count"},
      {"eval.insert_yield", "ratio"},
      {"eval.index_probes", "count"},
      {"eval.rows_matched", "count"},
      {"eval.cpu_to_wall", "ratio"},
      {"eval.wall_s", "s"},
      {"eval.self_us_per_op", "us"},
      {"storage.clone_insert_us", "us"},
      {"storage.arena_bytes", "bytes"},
      {"storage.rehashes", "count"},
      {"storage.words_scanned", "count"},
      {"storage.self_us_per_op", "us"},
      {"ivm.apply_us", "us"},
      {"ivm.applies", "count"},
      {"ivm.delta_rounds", "count"},
      {"ivm.tuples_rederived", "count"},
      {"ivm.full_recomputes", "count"},
      {"ivm.view_arena_bytes", "bytes"},
      {"ivm.self_us_per_op", "us"},
      {"durability.append_us", "us"},
      {"durability.compact_us", "us"},
      {"durability.compactions", "count"},
      {"durability.bytes_written_per_user_byte", "ratio"},
      {"durability.user_bytes", "bytes"},
      {"durability.recovery_s", "s"},
      {"durability.self_us_per_op", "us"},
      {"replay.layer_ops", "count"},
      {"trace.spans", "count"},
      {"trace.request_ids", "count"},
  };
  return metrics;
}

void Usage() {
  std::cerr << "usage: perfbench --workload <serve_mix|ingest_views|"
               "deep_closure> --seed N --seconds S --trace <0|1> --out DIR "
               "[--git-commit SHA] [--source-digest HEX]\n";
}

/// A JSON number with all its digits (never NaN or infinity).
std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Aggregate CPU jiffies from /proc/stat: (steal, total).
std::pair<double, double> CpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  double total = 0, steal = 0, v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {  // user .. steal
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // Linux reports kilobytes.
}

/// The daemon layer's metrics, from the traced socket phase.
void DaemonMetrics(Workload workload, const SocketResult& s,
                   std::map<std::string, double>& m) {
  m["daemon.submit_rtt_us"] = Median(s.submit_rtt_us);
  // ingest_views' primary operation is the load.
  m["daemon.load_rtt_us"] =
      workload == Workload::kIngestViews ? Median(s.op_us) : 0;
  m["daemon.await_rtt_us"] = Median(s.await_rtt_us);
  m["daemon.poll_rtt_us"] = Median(s.poll_rtt_us);
  m["daemon.results"] = static_cast<double>(s.results);
  m["daemon.result_bytes_per_op"] =
      Ratio{double(s.result_bytes), double(s.results)}.value();
  m["daemon.submit_attempts"] = static_cast<double>(s.submit_attempts);
  m["daemon.backpressure_ratio"] =
      Ratio{double(s.retry_later), double(s.submit_attempts)}.value();
  const Tail tail = TailPercentile(s.op_us);
  m["daemon.op_tail_us"] = tail.value;
  m["daemon.op_tail_pct"] = tail.pct;
  m["daemon.op_samples"] = static_cast<double>(tail.samples);
  m["daemon.ops_per_s"] =
      s.wall_s > 0 ? static_cast<double>(s.op_us.size()) / s.wall_s : 0;
  const double ops = static_cast<double>(s.op_us.size());
  m["daemon.self_us_per_op"] =
      ops > 0 ? LayerSelfUs(s.trace.spans())["daemon"] / ops : 0;
  const double lookups = double(s.cache_hits + s.cache_misses);
  m["service.cache_lookups"] = lookups;
  m["service.cache_hit_ratio"] = Ratio{double(s.cache_hits), lookups}.value();
  m["service.cache_evictions"] = static_cast<double>(s.cache_evictions);
  m["ivm.full_recomputes"] += static_cast<double>(s.full_recomputes);
  m["durability.recovery_s"] = Median(s.recovery_s);
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::string_view(argv[i]).substr(0, 2) != "--") break;
    args[argv[i] + 2] = argv[i + 1];
  }
  Options options;
  for (const char* required : {"workload", "seed", "seconds", "trace", "out"}) {
    if (!args.count(required)) {
      Usage();
      return 2;
    }
  }
  if (!ParseWorkload(args["workload"], &options.workload)) {
    std::cerr << "perfbench: unknown workload " << args["workload"] << "\n";
    return 2;
  }
  char* end = nullptr;
  options.seed = std::strtoull(args["seed"].c_str(), &end, 10);
  options.seconds = std::atof(args["seconds"].c_str());
  options.trace = args["trace"] == "1";
  options.out_dir = args["out"];
  if (*end != '\0' || options.seconds <= 0 ||
      (args["trace"] != "0" && args["trace"] != "1")) {
    Usage();
    return 2;
  }
  std::filesystem::create_directories(options.out_dir);

  const auto [steal0, total0] = CpuJiffies();
  SocketResult socket;
  ReplayResult replay;
  if (options.trace) {
    socket = RunSocket(options, options.seconds / 3);
    replay = RunReplay(options, options.seconds / 3);
  } else {
    socket = RunSocket(options, options.seconds);
  }
  const auto [steal1, total1] = CpuJiffies();
  Tally tally = socket.tally;
  tally.Merge(replay.tally);

  std::ostringstream prov;
  prov << "{\"workload\":" << Quote(WorkloadName(options.workload))
       << ",\"seed\":" << options.seed << ",\"seconds\":" << Num(options.seconds)
       << ",\"trace\":" << (options.trace ? 1 : 0)
       << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
       << ",\"compiler\":" << Quote(PERFBENCH_COMPILER)
       << ",\"build_type\":" << Quote(PERFBENCH_BUILD_TYPE)
       << ",\"git_commit\":" << Quote(args.count("git-commit") ? args["git-commit"] : "unknown")
       << ",\"source_digest\":" << Quote(args.count("source-digest") ? args["source-digest"] : "unknown")
       << ",\"cpu_steal_share\":" << Num(total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0)
       << ",\"epochs\":" << socket.epochs << "}";
  std::cout << "provenance " << prov.str() << "\n";

  std::map<std::string, double> values;
  const std::vector<Metric>* reported;
  if (options.trace) {
    values = replay.metrics;
    DaemonMetrics(options.workload, socket, values);
    std::set<uint64_t> rids;
    Tracer all = socket.trace;
    all.Merge(replay.trace);
    for (const Span& s : all.spans()) rids.insert(s.request_id);
    values["trace.spans"] = static_cast<double>(all.spans().size());
    values["trace.request_ids"] = static_cast<double>(rids.size());
    // One file per workload, replaced by the next traced run: a serve_mix
    // trace is ~13 MB.
    const std::string path = options.out_dir + "/trace-" +
                             std::string(WorkloadName(options.workload)) +
                             ".jsonl";
    std::ofstream(path) << all.ToJsonLines();
    std::cout << "trace " << path << "\n";
    reported = &PerLayerMetrics();
  } else {
    const double ops = static_cast<double>(socket.op_us.size());
    values["setup_s"] = Median(socket.setup_s);
    values["op_p50_us"] = Median(socket.op_us);
    values["cpu_us_per_op"] = ops > 0 ? socket.cpu_s / ops * 1e6 : 0;
    values["heap_mb"] = Median(socket.heap_mb);
    reported = &EndToEndMetrics();
    // Diagnostics: too noisy on a shared machine to gate on.
    const Tail tail = TailPercentile(socket.op_us);
    std::cout << "diag daemon.op_tail_us " << Num(tail.value) << " us (p"
              << tail.pct << " of " << tail.samples << " samples)\n"
              << "diag daemon.ops_per_s "
              << Num(socket.wall_s > 0 ? ops / socket.wall_s : 0)
              << " 1/s (" << ops << " ops in " << Num(socket.wall_s) << " s)\n"
              << "diag peak_rss_mb " << Num(PeakRssMb()) << " MB\n";
  }
  const double error_ratio =
      Ratio{double(tally.failed), double(tally.attempted)}.value();
  std::cout << "diag error_ratio " << Num(error_ratio) << " (failed "
            << tally.failed << " of " << tally.attempted << " attempted, "
            << tally.wrong << " wrong answers)\n";
  for (const std::string& e : tally.errors) std::cout << "error " << e << "\n";
  for (const Metric& m : *reported) {
    std::cout << "metric " << m.name << " " << Num(values[m.name]) << " "
              << m.unit << "\n";
  }

  const bool correct = tally.wrong == 0;
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (size_t i = 0; i < reported->size(); ++i) {
    const Metric& m = (*reported)[i];
    json << (i ? ", " : "") << Quote(m.name) << ": {\"value\": "
         << Num(values[m.name]) << ", \"unit\": " << Quote(m.unit) << "}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct && tally.failed == 0 && tally.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
