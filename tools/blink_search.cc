// blink_search — Open() a persisted index of any flavor (static bundle,
// sharded directory or dynamic BLDY file, auto-detected and
// self-configuring), run a query batch, report QPS (best of 5, as the
// paper measures) and, when ground truth is given, k-recall@k.
//
// Usage:
//   blink_search <index_path> <query.fvecs> [options]
//     --metric l2|ip        fallback for pre-metadata (v1) artifacts only;
//                           ignored with a warning when the artifact is
//                           self-describing
//     --k N                 neighbors per query (default 10)
//     --window N[,N...]     search windows to sweep (default 10,20,40,80)
//     --target-recall R     calibrate instead of sweeping: find the cheapest
//                           SearchOptions meeting recall R on the first half
//                           of the queries (requires --gt; mutually
//                           exclusive with --window), print them, then run
//                           the full batch with the chosen options
//     --nprobe-shards N     sharded index: shards probed per query (0 = all)
//     --map                 serve a static bundle from a read-only file
//                           mapping (out-of-core); falls back to heap
//                           loading for non-static or pre-v3 artifacts
//     --filter PRED         filtered search: only vectors matching PRED
//                           (filter/predicate.h grammar, e.g.
//                           'tag:any=3 num0<0.5') are returned; requires a
//                           metadata sidecar (blink_build --meta)
//     --filter-strategy S   auto (default, selectivity crossover) | post |
//                           insearch
//     --filter-widen-cap N  post-filter widening cap (0 = auto)
//     --gt file.ivecs       exact ground truth for recall — with --filter,
//                           supply *filtered* ground truth
//     --out file.ivecs      write result ids
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "blink.h"
#include "flags.h"

using namespace blink;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <index_path> <query.fvecs> [--metric l2|ip] "
               "[--k N] [--window N,N,... | --target-recall R] "
               "[--nprobe-shards N] [--map] [--filter PRED] "
               "[--filter-strategy auto|post|insearch] "
               "[--filter-widen-cap N] [--gt gt.ivecs] "
               "[--out res.ivecs]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  OpenOptions open_opts;
  if (tools::TakeMapFlag(&argc, argv)) open_opts.load_mode = LoadMode::kMap;
  if (argc < 3) return Usage(argv[0]);
  const std::string prefix = argv[1];
  const std::string query_path = argv[2];
  bool metric_flag = false;
  size_t k = 10;
  uint32_t nprobe_shards = 0;
  std::vector<uint32_t> windows = {10, 20, 40, 80};
  bool window_set = false;
  double target_recall = 0.0;  // 0 = sweep mode
  std::string gt_path, out_path;
  Predicate filter;
  bool filter_set = false;
  FilterStrategy filter_strategy = FilterStrategy::kAuto;
  uint32_t filter_widen_cap = 0;
  tools::FlagParser args(argc, argv, 3);
  std::string flag;
  const char* val = nullptr;
  long long iv = 0;
  while (args.Next(&flag, &val)) {
    if (flag == "--metric") {
      if (!tools::ParseMetricFlag(flag, val, &open_opts.fallback_metric)) {
        return 1;
      }
      metric_flag = true;
    } else if (flag == "--k") {
      if (!tools::ParseIntFlag(flag, val, 1, 1 << 20, &iv)) return 1;
      k = static_cast<size_t>(iv);
    } else if (flag == "--window") {
      if (!tools::ParseUintListFlag(flag, val, 1, 1u << 20, &windows)) {
        return 1;
      }
      window_set = true;
    } else if (flag == "--target-recall") {
      if (!tools::ParseDoubleFlag(flag, val, &target_recall)) return 1;
      if (target_recall > 1.0) {
        std::fprintf(stderr, "--target-recall: must be in (0, 1]\n");
        return 1;
      }
    } else if (flag == "--nprobe-shards") {
      if (!tools::ParseIntFlag(flag, val, 0, 1 << 16, &iv)) return 1;
      nprobe_shards = static_cast<uint32_t>(iv);
    } else if (flag == "--filter") {
      if (!tools::ParseFilterFlag(flag, val, &filter)) return 1;
      filter_set = true;
    } else if (flag == "--filter-strategy") {
      if (!tools::ParseFilterStrategyFlag(flag, val, &filter_strategy)) {
        return 1;
      }
    } else if (flag == "--filter-widen-cap") {
      if (!tools::ParseIntFlag(flag, val, 0, 1 << 20, &iv)) return 1;
      filter_widen_cap = static_cast<uint32_t>(iv);
    } else if (flag == "--gt") {
      gt_path = val;
    } else if (flag == "--out") {
      out_path = val;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!args.ok()) return Usage(argv[0]);
  if (target_recall > 0.0 && window_set) {
    std::fprintf(stderr,
                 "--target-recall and --window are mutually exclusive: "
                 "calibration picks the window\n");
    return 1;
  }
  if (target_recall > 0.0 && gt_path.empty()) {
    std::fprintf(stderr, "--target-recall requires --gt (calibration "
                         "measures recall against exact ground truth)\n");
    return 1;
  }

  Result<Index> index = Open(prefix, open_opts);
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  if (metric_flag && index.value().self_described()) {
    std::fprintf(stderr,
                 "warning: --metric ignored; %s is self-describing and was "
                 "built with %s\n",
                 prefix.c_str(), MetricName(index.value().metric()));
  }
  std::shared_ptr<const Predicate> filter_ptr;
  if (filter_set) {
    const MetadataStore* md = index.value().metadata();
    if (md == nullptr) {
      std::fprintf(stderr,
                   "--filter: %s has no metadata sidecar; build one with "
                   "blink_build --meta\n",
                   prefix.c_str());
      return 1;
    }
    Status valid = filter.ValidateFor(md->num_columns());
    if (!valid.ok()) {
      std::fprintf(stderr, "--filter: %s\n", valid.ToString().c_str());
      return 1;
    }
    filter_ptr = std::make_shared<const Predicate>(filter);
    const double sel = EstimateSelectivity(*md, filter);
    const uint32_t w0 = std::max(windows.front(), static_cast<uint32_t>(k));
    const FilterPlan plan = PlanFilter(filter_strategy, sel, md->size(), k,
                                       w0, filter_widen_cap);
    std::printf("filter '%s': estimated selectivity %.4f, plan %s from "
                "window %u\n",
                filter.ToString().c_str(), sel, plan.name(), plan.window0);
  }
  auto queries = ReadFvecs(query_path);
  if (!queries.ok()) {
    std::fprintf(stderr, "%s\n", queries.status().ToString().c_str());
    return 1;
  }
  const size_t nq = queries.value().rows();
  std::printf("index %s (%s, %s, %s): n=%zu d=%zu (%.1f MiB); %zu queries\n",
              index.value().name().c_str(), KindName(index.value().kind()),
              MetricName(index.value().metric()),
              LoadModeName(index.value().spec().load_mode),
              index.value().size(), index.value().dim(),
              index.value().memory_bytes() / 1048576.0, nq);

  Matrix<uint32_t> gt;
  if (!gt_path.empty()) {
    auto g = ReadIvecs(gt_path);
    if (!g.ok()) {
      std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
      return 1;
    }
    gt = Matrix<uint32_t>(g.value().rows(), g.value().cols());
    for (size_t i = 0; i < gt.size(); ++i) {
      gt.data()[i] = static_cast<uint32_t>(g.value().data()[i]);
    }
  }

  ThreadPool pool(NumThreads());
  Matrix<uint32_t> ids(nq, k);

  std::vector<SearchOptions> settings;
  if (target_recall > 0.0) {
    if (gt.rows() != nq) {
      std::fprintf(stderr, "--gt rows (%zu) != queries (%zu)\n",
                   static_cast<size_t>(gt.rows()), nq);
      return 1;
    }
    // Calibrate on the first half of the queries (held out from nothing
    // the tool reports — the final run covers the full set, but the tuned
    // options must generalize past their sample).
    const size_t ns = nq >= 4 ? nq / 2 : nq;
    MatrixViewF sample(queries.value().row(0), ns, queries.value().cols());
    Matrix<uint32_t> gt_sample(ns, gt.cols());
    for (size_t i = 0; i < ns; ++i) {
      std::copy_n(gt.row(i), gt.cols(), gt_sample.row(i));
    }
    CalibrationTarget target;
    target.target_recall = target_recall;
    target.sample_queries = sample;
    target.groundtruth = &gt_sample;
    target.k = k;
    target.seed.nprobe_shards = nprobe_shards;
    target.pool = &pool;
    Result<SearchOptions> chosen = index.value().Calibrate(target);
    if (!chosen.ok()) {
      std::fprintf(stderr, "calibration failed: %s\n",
                   chosen.status().ToString().c_str());
      return 1;
    }
    std::printf("calibrated for recall >= %.3f on %zu sample queries: "
                "window=%u nprobe_shards=%u rerank_window=%u\n",
                target_recall, ns, chosen.value().window,
                chosen.value().nprobe_shards, chosen.value().rerank_window);
    settings.push_back(chosen.value());
  } else {
    for (uint32_t w : windows) {
      SearchOptions params;
      params.window = w;
      params.nprobe_shards = nprobe_shards;
      settings.push_back(params);
    }
  }

  for (SearchOptions& s : settings) {
    s.filter = filter_ptr;
    s.filter_strategy = filter_strategy;
    s.filter_widen_cap = filter_widen_cap;
  }

  // Best of 5, as the paper measures.
  const Matrix<uint32_t>* truth = gt.rows() == nq ? &gt : nullptr;
  std::printf("%-8s %-12s %-10s\n", "window", "QPS", gt_path.empty() ? "-" : "recall");
  for (const SearchOptions& params : settings) {
    const SweepPoint pt =
        MeasureSetting(index.value().AsSearchIndex(), queries.value(), truth,
                       k, params, {.best_of = 5, .pool = &pool}, &ids);
    if (truth != nullptr) {
      std::printf("%-8u %-12.0f %-10.4f\n", params.window, pt.qps, pt.recall);
    } else {
      std::printf("%-8u %-12.0f %-10s\n", params.window, pt.qps, "-");
    }
  }

  if (!out_path.empty()) {
    Matrix<int32_t> out(nq, k);
    for (size_t i = 0; i < out.size(); ++i) {
      out.data()[i] = static_cast<int32_t>(ids.data()[i]);
    }
    Status st = WriteIvecs(out_path, out);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}
