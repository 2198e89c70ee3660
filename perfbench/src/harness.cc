#include "harness.h"

#include <ctime>

#include <sys/resource.h>

namespace perfbench {

exdl::ServiceOptions ServiceOptionsFor(Workload workload) {
  exdl::ServiceOptions service;
  service.compile.optimize = true;
  service.program_cache_capacity = 64;
  switch (workload) {
    case Workload::kServeMix:
      service.num_workers = 2;
      break;
    case Workload::kIngestViews:
      service.num_workers = 1;  // exdld's default (--jobs 1).
      break;
    case Workload::kDeepClosure:
      service.num_workers = 1;
      service.eval.num_threads = 4;
      break;
  }
  return service;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6 + ru.ru_stime.tv_sec +
         ru.ru_stime.tv_usec / 1e6;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec / 1e9;
}

void Tally::Record(bool ok, const std::string& what, bool wrong_answer) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (wrong_answer) ++wrong;
  if (errors.size() < 8) errors.push_back(what);
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  wrong += other.wrong;
  for (const std::string& e : other.errors) {
    if (errors.size() < 8) errors.push_back(e);
  }
}

bool AnswerChecker::Check(const Query& q, const std::string& answers) {
  auto it = first_.find(q.source);
  if (it != first_.end()) return it->second == answers;
  if (!SameRows(answers, *q.expected)) return false;
  first_.emplace(q.source, answers);
  return true;
}

}  // namespace perfbench
