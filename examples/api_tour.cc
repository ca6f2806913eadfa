// api_tour — the public facade end to end: one spec, one Build, one
// self-describing Open, across index flavors.
//
//   ./example_api_tour [out_dir]
//
// Builds a small synthetic dataset, then walks through: (1) declarative
// builds from IndexSpec, (2) Save -> Open round trips with no re-supplied
// configuration, (3) the capability model and mutation forwarding,
// (4) serving through Index::Serve, and (5) the name -> factory registry
// driving a harness sweep. See DESIGN.md D10.
#include <cstdio>
#include <filesystem>
#include <string>

#include "blink.h"

using namespace blink;

int main(int argc, char** argv) {
  const std::string out_dir =
      argc > 1 ? argv[1]
               : (std::filesystem::temp_directory_path() / "blink_api_tour")
                     .string();
  std::filesystem::create_directories(out_dir);

  Dataset data = MakeDeepLike(/*n=*/5000, /*nq=*/200, /*seed=*/42);
  Matrix<uint32_t> gt =
      ComputeGroundTruth(data.base, data.queries, /*k=*/10, data.metric);
  std::printf("dataset: n=%zu nq=%zu d=%zu (%s)\n\n", data.base.rows(),
              data.queries.rows(), data.base.cols(), MetricName(data.metric));

  // (1) Declarative builds: say what you want, not which constructor.
  IndexSpec spec;
  spec.kind = IndexKind::kStaticLvq;  // the paper's OG-LVQ system
  spec.metric = data.metric;
  spec.bits1 = 4;
  spec.bits2 = 8;  // two-level LVQ-4x8 with final re-ranking
  spec.graph.graph_max_degree = 32;

  Result<Index> built = Build(spec, data.base);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 1;
  }
  Index index = std::move(built).value();
  std::printf("built   %-22s %6.1f KiB  caps:%s%s%s\n", index.name().c_str(),
              index.memory_bytes() / 1024.0,
              index.has(kCapSave) ? " save" : "",
              index.has(kCapInsert) ? " insert" : "",
              index.has(kCapRerank) ? " rerank" : "");

  // (2) Save -> Open: the artifact embeds metric + params; nothing is
  // re-supplied at load time.
  const std::string prefix = out_dir + "/tour_lvq";
  if (Status st = index.Save(prefix); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  Result<Index> reopened = Open(prefix);
  if (!reopened.ok()) {
    std::fprintf(stderr, "%s\n", reopened.status().ToString().c_str());
    return 1;
  }
  SearchOptions params;
  params.window = 64;
  Matrix<uint32_t> ids(data.queries.rows(), 10);
  reopened.value().SearchBatch(data.queries, 10, params, ids.data());
  std::printf("reopened %-21s recall@10 %.4f (no flags re-supplied)\n",
              reopened.value().name().c_str(), MeanRecallAtK(ids, gt, 10));

  // (3) Mutation forwards to dynamic flavors; static handles say so.
  if (Status st = index.Delete(0); !st.ok()) {
    std::printf("static delete -> %s\n", st.ToString().c_str());
  }
  spec.kind = IndexKind::kDynamicLvq;
  spec.bits2 = 0;
  Result<Index> dyn = Build(spec, data.base);
  if (!dyn.ok()) {
    std::fprintf(stderr, "%s\n", dyn.status().ToString().c_str());
    return 1;
  }
  auto id = dyn.value().Insert(data.base.row(0));
  (void)dyn.value().Delete(id.ok() ? id.value() : 0);
  (void)dyn.value().Consolidate();
  std::printf("dynamic  %-21s insert/delete/consolidate ok (n=%zu)\n",
              dyn.value().name().c_str(), dyn.value().size());

  // (4) Serving: searcher pools + async micro-batching over any flavor.
  ServingOptions so;
  so.num_threads = 2;
  auto engine = std::move(dyn.value().Serve(so)).value();
  auto fut = engine->Submit(data.queries.row(0), 10, params);
  SearchResult res = fut.get();
  std::printf("served   one async query -> %zu ids (top id %u)\n",
              res.ids.size(), res.ids.empty() ? kInvalidId : res.ids[0]);

  // (5) The registry: build by name, sweep through the harness — the
  // same-harness baseline methodology with one entry point.
  std::printf("\nregistry sweep (window 32/64, recall@10 : QPS):\n");
  spec.bits2 = 8;  // back to two-level for the quality comparison
  for (const char* name : {"static-lvq", "hnsw"}) {
    Result<Index> named = BuildNamed(name, spec, data.base);
    if (!named.ok()) {
      std::fprintf(stderr, "%s\n", named.status().ToString().c_str());
      return 1;
    }
    HarnessOptions ho;
    ho.k = 10;
    ho.best_of = 1;
    const auto points = RunSweep(named.value().AsSearchIndex(), data.queries,
                                 gt, WindowSweep({32, 64}), ho);
    std::printf("  %-12s", name);
    for (const SweepPoint& pt : points) {
      std::printf("  %.4f : %-8.0f", pt.recall, pt.qps);
    }
    std::printf("\n");
  }
  std::printf("\nartifacts in %s\n", out_dir.c_str());
  return 0;
}
