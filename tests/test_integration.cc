// Cross-module integration tests: full pipelines exercising every index
// family under the shared harness, plus miniature versions of the paper's
// headline experiments.
#include <gtest/gtest.h>

#include "blink.h"
#include "testutil.h"

namespace blink {
namespace {

/// testutil::Fixture plus the old local shorthand of this file.
struct World : testutil::Fixture {
  static constexpr size_t kK = 10;
  explicit World(Dataset d) : testutil::Fixture(std::move(d), kK) {}
  double Recall(const SearchIndex& idx, const SearchOptions& p) const {
    return testutil::RecallOf(idx, *this, p);
  }
};

TEST(Integration, EveryIndexFamilyReachesHighRecall) {
  World w(MakeDeepLike(3000, 50, 300));
  const VamanaBuildParams& bp = w.bp;  // R=24, W=48 fixture defaults

  SearchOptions graph_p;
  graph_p.window = 64;
  SearchOptions probe_p;
  probe_p.nprobe = 24;
  probe_p.reorder_k = 200;

  auto og = BuildOgLvq(w.data.base, w.data.metric, 8, 0, bp);
  EXPECT_GE(w.Recall(*og, graph_p), 0.9) << og->name();

  auto vam = BuildVamanaF32(w.data.base, w.data.metric, bp);
  EXPECT_GE(w.Recall(*vam, graph_p), 0.9) << vam->name();

  HnswParams hp;
  hp.M = 12;
  hp.ef_construction = 80;
  HnswIndex hnsw(w.data.base, w.data.metric, hp);
  EXPECT_GE(w.Recall(hnsw, graph_p), 0.9) << hnsw.name();

  IvfPqParams ip;
  ip.nlist = 48;
  ip.pq.num_segments = 24;
  IvfPqIndex ivf(w.data.base, w.data.metric, ip);
  EXPECT_GE(w.Recall(ivf, probe_p), 0.9) << ivf.name();

  ScannParams sp;
  ScannIndex scann(w.data.base, w.data.metric, sp);
  EXPECT_GE(w.Recall(scann, probe_p), 0.9) << scann.name();

  ShardedBuildParams ssp;
  ssp.partition.num_shards = 4;
  ssp.graph = bp;
  auto sharded = BuildShardedLvq(w.data.base, w.data.metric, ssp);
  SearchOptions sharded_p = graph_p;
  sharded_p.nprobe_shards = 2;
  EXPECT_GE(w.Recall(*sharded, sharded_p), 0.9) << sharded->name();
}

TEST(Integration, MiniFig4_GraphsBuiltFromLvq4AreAsGoodAsFloat32) {
  // Paper Fig. 4: graphs built from LVQ-compressed vectors (B >= 4) lose
  // almost nothing; graphs built from 2-bit vectors degrade.
  World w(MakeDeepLike(3000, 80, 301));
  VamanaBuildParams bp;
  bp.graph_max_degree = 24;
  bp.window_size = 48;
  FloatStorage search_storage(w.data.base, w.data.metric);

  auto recall_for_build_bits = [&](int bits) {
    BuiltGraph g =
        bits == 32
            ? BuildVamana(search_storage, bp)
            : BuildVamana(LvqStorage(w.data.base, w.data.metric, bits), bp);
    VamanaIndex<FloatStorage> idx(FloatStorage(w.data.base, w.data.metric),
                                  std::move(g), bp);
    SearchOptions p;
    p.window = 48;
    return w.Recall(idx, p);
  };

  const double r32 = recall_for_build_bits(32);
  const double r8 = recall_for_build_bits(8);
  const double r4 = recall_for_build_bits(4);
  EXPECT_GE(r8, r32 - 0.02);
  EXPECT_GE(r4, r32 - 0.05);
}

TEST(Integration, MiniFig11_LvqBeatsGlobalInExhaustiveSearch) {
  // Exhaustive search over reconstructed vectors. The separation shows at
  // low bit budgets (paper Figs. 6 & 11): at B = 4 LVQ retains most of the
  // exact ordering while global quantization degrades; at B = 8 both
  // saturate near 1.0.
  World w(MakeDeepLike(2000, 50, 302));
  auto recall_of = [&](int bits, bool use_lvq) {
    MatrixF dec = [&] {
      if (use_lvq) {
        LvqDataset::Options lo;
        lo.bits = bits;
        lo.padding = 0;
        return DecodeAll(LvqDataset::Encode(w.data.base, lo));
      }
      GlobalDataset::Options go;
      go.bits = bits;
      return DecodeAll(GlobalDataset::Encode(w.data.base, go));
    }();
    Matrix<uint32_t> res =
        ComputeGroundTruth(dec, w.data.queries, World::kK, w.data.metric);
    return MeanRecallAtK(res, w.gt, World::kK);
  };
  const double r_lvq4 = recall_of(4, true);
  const double r_glob4 = recall_of(4, false);
  EXPECT_GT(r_lvq4, r_glob4);
  const double r_lvq8 = recall_of(8, true);
  EXPECT_GE(r_lvq8, 0.97);
}

TEST(Integration, InnerProductPipelineEndToEnd) {
  World w(MakeT2iLike(2500, 50, 303));
  VamanaBuildParams bp;
  bp.graph_max_degree = 24;
  bp.window_size = 48;
  bp.alpha = 0.95f;  // the paper's IP relaxation
  auto idx = BuildOgLvq(w.data.base, w.data.metric, 8, 0, bp);
  SearchOptions p;
  p.window = 96;
  EXPECT_GE(w.Recall(*idx, p), 0.85);
}

TEST(Integration, VarianceModifiedDatasetStillSearchable) {
  // Paper Appendix A.1: pathological per-dimension variances.
  Dataset data = MakeDeepLike(2000, 40, 304);
  ModifyDatasetVariance(&data.base, &data.queries, 0.2, 10.0, 100.0, 5);
  data.metric = Metric::kL2;  // scaling destroys unit norms
  World w(std::move(data));
  VamanaBuildParams bp;
  bp.graph_max_degree = 24;
  bp.window_size = 48;
  auto idx = BuildOgLvq(w.data.base, w.data.metric, 8, 0, bp);
  SearchOptions p;
  p.window = 64;
  EXPECT_GE(w.Recall(*idx, p), 0.85);
}

TEST(Integration, HarnessRanksEncodingsConsistently) {
  // Under the sweep harness, LVQ-8's QPS at matched recall must be at
  // least comparable to float32 (it wins big when memory-bound; at test
  // scale everything is cache-resident, so allow a wide band).
  World w(MakeDeepLike(2000, 50, 305));
  VamanaBuildParams bp;
  bp.graph_max_degree = 16;
  bp.window_size = 32;
  auto f32 = BuildVamanaF32(w.data.base, w.data.metric, bp);
  auto lvq = BuildOgLvq(w.data.base, w.data.metric, 8, 0, bp);
  HarnessOptions opts;
  opts.best_of = 2;
  auto sweep = WindowSweep({16, 32, 64});
  auto pts32 = RunSweep(*f32, w.data.queries, w.gt, sweep, opts);
  auto pts8 = RunSweep(*lvq, w.data.queries, w.gt, sweep, opts);
  const SweepPoint* at32 = PointAtRecall(pts32, 0.85);
  const SweepPoint* at8 = PointAtRecall(pts8, 0.85);
  ASSERT_NE(at32, nullptr);
  ASSERT_NE(at8, nullptr);
  EXPECT_GT(at8->qps, at32->qps * 0.4);
}

TEST(Integration, SerializationRoundTripForGeneratedData) {
  Dataset data = MakeSiftLike(200, 10, 306);
  const std::string p = testing::TempDir() + "blink_integ.fvecs";
  ASSERT_TRUE(WriteFvecs(p, data.base).ok());
  auto r = ReadFvecs(p);
  ASSERT_TRUE(r.ok());
  // Indexing the reloaded data gives identical results.
  VamanaBuildParams bp;
  bp.graph_max_degree = 16;
  bp.window_size = 32;
  auto a = BuildOgLvq(data.base, data.metric, 8, 0, bp);
  auto b = BuildOgLvq(r.value(), data.metric, 8, 0, bp);
  SearchOptions rp;
  rp.window = 32;
  Matrix<uint32_t> ia(10, 10), ib(10, 10);
  SearchBatch(*a, data.queries, 10, rp, ia.data());
  SearchBatch(*b, data.queries, 10, rp, ib.data());
  for (size_t i = 0; i < ia.size(); ++i) {
    EXPECT_EQ(ia.data()[i], ib.data()[i]);
  }
  std::remove(p.c_str());
}

}  // namespace
}  // namespace blink
