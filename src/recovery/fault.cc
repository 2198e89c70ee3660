#include "recovery/fault.h"

#include <cstdio>
#include <cstdlib>

namespace exdl {

namespace {

constexpr std::string_view kSites[] = {
    "storage.arena_grow",     "snapshot.open",        "snapshot.write",
    "snapshot.fsync",         "snapshot.rename",      "daemon.accept",
    "daemon.read",            "daemon.write",         "daemon.dispatch",
    "factlog.append",         "factlog.fsync",        "factlog.compact_rename",
    "daemon.recover_replay",
};

}  // namespace

FaultPlan& FaultPlan::Global() {
  static FaultPlan plan;
  return plan;
}

std::span<const std::string_view> FaultPlan::Sites() { return kSites; }

bool FaultPlan::IsSite(std::string_view site) {
  for (std::string_view s : kSites) {
    if (s == site) return true;
  }
  return false;
}

Status FaultPlan::Arm(std::string_view spec) {
  const size_t colon = spec.find(':');
  if (colon == std::string_view::npos || colon == 0) {
    return Status::InvalidArgument("fault spec must be <site>:<n>[:abort]: '" +
                                   std::string(spec) + "'");
  }
  std::string_view site = spec.substr(0, colon);
  std::string_view rest = spec.substr(colon + 1);
  bool abort = false;
  const size_t colon2 = rest.find(':');
  if (colon2 != std::string_view::npos) {
    std::string_view mode = rest.substr(colon2 + 1);
    if (mode != "abort") {
      return Status::InvalidArgument("unknown fault mode '" +
                                     std::string(mode) + "' (want 'abort')");
    }
    abort = true;
    rest = rest.substr(0, colon2);
  }
  if (!IsSite(site)) {
    std::string known;
    for (std::string_view s : kSites) {
      if (!known.empty()) known += ", ";
      known += s;
    }
    return Status::InvalidArgument("unknown fault site '" + std::string(site) +
                                   "' (registered: " + known + ")");
  }
  char* end = nullptr;
  std::string count(rest);
  const uint64_t n = std::strtoull(count.c_str(), &end, 10);
  if (count.empty() || end == nullptr || *end != '\0' || n == 0) {
    return Status::InvalidArgument("fault count must be a positive integer: '" +
                                   count + "'");
  }
  std::lock_guard<std::mutex> lock(mu_);
  DisarmLocked();
  site_ = std::string(site);
  trigger_ = n;
  abort_ = abort;
  armed_.store(true, std::memory_order_release);
  return Status::Ok();
}

Status FaultPlan::ArmFromEnv() {
  const char* spec = std::getenv("EXDL_FAULT_SPEC");
  if (spec == nullptr || *spec == '\0') return Status::Ok();
  return Arm(spec);
}

void FaultPlan::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  DisarmLocked();
}

void FaultPlan::DisarmLocked() {
  armed_.store(false, std::memory_order_release);
  site_.clear();
  trigger_ = 0;
  abort_ = false;
  hits_.store(0, std::memory_order_relaxed);
}

bool FaultPlan::ShouldFail(std::string_view site) {
  if (!armed_.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (!armed_.load(std::memory_order_relaxed)) return false;
  if (site != site_) return false;
  const uint64_t hit = hits_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (hit != trigger_) return false;
  if (abort_) {
    std::fprintf(stderr, "exdl: injected crash at %s (hit %llu)\n",
                 site_.c_str(), static_cast<unsigned long long>(hit));
    std::fflush(nullptr);
    std::_Exit(kAbortExitCode);
  }
  return true;
}

}  // namespace exdl
