#include "core/report.h"

#include <cstdio>

namespace exdl {

std::string OptimizationReport::ToString() const {
  std::string out;
  out += "rules: " + std::to_string(original_rules) + " -> " +
         std::to_string(final_rules) + "\n";
  // Per-phase lines render straight from the structured entries; an
  // entry with no detail produced no observable change.
  for (const OptimizationPhase& phase : phases) {
    if (phase.interrupted) {
      out += "pipeline cancelled before phase: " + std::string(phase.name) +
             " (program reflects the completed phases)\n";
      continue;
    }
    if (!phase.detail.empty()) out += phase.detail + "\n";
  }
  if (optimize_seconds > 0) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "optimizer wall time: %.3f ms\n",
                  optimize_seconds * 1e3);
    out += buf;
  }
  for (const std::string& line : log) {
    out += "  " + line + "\n";
  }
  return out;
}

}  // namespace exdl
