// perfbench: one command that runs one workload and prints its metrics,
// its verification verdicts and, last, the one-line JSON result.
//
//   perfbench --workload static-mem|serve-net|dyn-churn --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--artifact-key K]
//   perfbench --prepare [--work-dir DIR] [--artifact-key K]
//                                   # build the static-mem index only
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// again with spans on, runs the per-layer probes and reports the per-layer
// metrics. Exit status is 0 whenever a result line was printed (its
// "correct" field carries the verdict) and 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::RunContext ctx;
  ctx.work_dir = ".bench_build/perfbench-data";
  bool prepare_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      ctx.workload = value();
    } else if (a == "--seed") {
      ctx.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      ctx.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      ctx.traced = value() != "0";
    } else if (a == "--work-dir") {
      ctx.work_dir = value();
    } else if (a == "--artifact-key") {
      ctx.artifact_key = value();
    } else if (a == "--prepare") {
      prepare_only = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (prepare_only) return perfbench::PrepareStaticMem(ctx.work_dir, ctx.artifact_key) ? 0 : 1;
  if (ctx.seconds <= 0 || ctx.seconds > 60) {
    std::fprintf(stderr, "perfbench: --seconds must be in (0, 60]\n");
    return 2;
  }
  // Client threads: one per core the process may use, never more.
  ctx.threads = std::max(1u, std::thread::hardware_concurrency());

  perfbench::Report rep;
  perfbench::Tracer tracer(ctx.traced);
  if (ctx.workload == "static-mem") {
    perfbench::RunStaticMem(ctx, rep, tracer);
  } else if (ctx.workload == "serve-net") {
    perfbench::RunServeNet(ctx, rep, tracer);
  } else if (ctx.workload == "dyn-churn") {
    perfbench::RunDynChurn(ctx, rep, tracer);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 ctx.workload.c_str());
    return 2;
  }
  rep.Print(ctx.traced);
  return 0;
}
