// Shared scaffolding for the per-figure/table benchmark harnesses.
//
// Every bench prints the rows/series of one paper table or figure. Dataset
// sizes default to values that complete on a small machine and scale with
// BLINK_SCALE (see util/env.h); EXPERIMENTS.md records paper-vs-measured.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "blink.h"

namespace blinkbench {

using namespace blink;  // NOLINT — bench binaries are applications

inline void Banner(const char* exp_id, const char* what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", exp_id, what);
  std::printf("(synthetic stand-in datasets; BLINK_SCALE=%.2f; backend=%s)\n",
              BenchScale(), simd::BackendName());
  std::printf("==============================================================\n");
}

/// The paper's standard graph build settings (Sec. 6.4) at bench scale.
inline VamanaBuildParams GraphParams(uint32_t R, Metric metric) {
  VamanaBuildParams bp;
  bp.graph_max_degree = R;
  bp.window_size = std::max<uint32_t>(2 * R, 64);
  bp.alpha = metric == Metric::kL2 ? 1.2f : 0.95f;
  return bp;
}

/// Default window sweep used for QPS/recall curves.
inline std::vector<SearchOptions> DefaultWindowSweep() {
  return WindowSweep({10, 14, 20, 28, 40, 56, 80, 112, 160, 224});
}

/// Prints one "recall qps" sweep in the figures' format.
inline void PrintCurve(const std::string& label,
                       const std::vector<SweepPoint>& pts) {
  PrintSweep(label, pts);
  std::printf("\n");
}

/// Formats "QPS @ recall>=target" for table rows ("-" when unreachable).
inline std::string QpsCell(const std::vector<SweepPoint>& pts, double target) {
  const SweepPoint* p = PointAtRecall(pts, target);
  if (p == nullptr) return "      -";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%7.0f", p->qps);
  return buf;
}

inline double Mib(size_t bytes) { return static_cast<double>(bytes) / 1048576.0; }

}  // namespace blinkbench
