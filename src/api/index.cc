#include "api/index.h"

#include <filesystem>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/calibrate.h"

#include "filter/serialize.h"
#include "graph/index.h"
#include "graph/serialize.h"
#include "quant/leanvec.h"
#include "shard/serialize.h"
#include "shard/sharded_index.h"

namespace blink {

namespace detail {

// ---------------------------------------------------------------------------
// IndexImpl: the type-erasure seam behind the Index handle. One subclass
// per flavor family; mutation defaults to Unsupported so only the dynamic
// flavors opt in.
// ---------------------------------------------------------------------------
class IndexImpl {
 public:
  IndexImpl(IndexSpec spec, Capabilities caps, bool self_described)
      : spec_(std::move(spec)), caps_(caps), self_described_(self_described) {}
  virtual ~IndexImpl() = default;

  virtual const SearchIndex& search() const = 0;

  virtual Status Save(const std::string& /*path*/) const {
    return Status::Unsupported(search().name() + " cannot be saved");
  }
  virtual Result<uint32_t> Insert(const float* /*vec*/) {
    return Status::Unsupported(search().name() + " is immutable");
  }
  virtual Status Delete(uint32_t /*id*/) {
    return Status::Unsupported(search().name() + " is immutable");
  }
  virtual Status Consolidate() {
    return Status::Unsupported(search().name() + " is immutable");
  }
  virtual Status AttachMetadata(std::shared_ptr<const MetadataStore> /*md*/) {
    return Status::Unsupported(search().name() +
                               " does not support per-vector metadata");
  }
  virtual const MetadataStore* metadata() const { return nullptr; }
  virtual Status UpsertMetadata(uint32_t /*id*/, uint64_t /*tags*/,
                                const double* /*values*/,
                                size_t /*num_values*/) {
    return Status::Unsupported(search().name() +
                               " does not support metadata upsert");
  }

  const IndexSpec& spec() const { return spec_; }
  Capabilities capabilities() const { return caps_; }
  bool self_described() const { return self_described_; }

 protected:
  /// kCapFilter is not a spec capability: it tracks whether metadata is
  /// currently attached. Flavors toggle it from AttachMetadata.
  void SetFilterCap(bool on) {
    if (on) {
      caps_ |= kCapFilter;
    } else {
      caps_ &= ~kCapFilter;
    }
  }

 private:
  IndexSpec spec_;
  Capabilities caps_;
  bool self_described_;
};

namespace {

/// Writes the `.meta` sidecar next to a saved artifact, or removes a
/// stale one when the index has no metadata attached — Open() probes the
/// sidecar path, so a leftover from an earlier save must not resurrect.
/// `n_rows` caps the rows written (dynamic stores are sized to capacity);
/// 0 means every row.
Status SaveMetadataSidecar(const std::string& meta_path,
                           const MetadataStore* md, size_t n_rows = 0) {
  if (md == nullptr) {
    std::error_code ec;
    std::filesystem::remove(meta_path, ec);
    return Status::OK();
  }
  return SaveMetadata(meta_path, *md, n_rows == 0 ? md->size() : n_rows);
}

/// InvalidArgument naming the first non-finite entry of `data`, if any.
Status CheckFinite(MatrixViewF data) {
  const auto bad = FirstNonFinite(data);
  if (!bad) return Status::OK();
  return Status::InvalidArgument(
      "vector data must be finite: row " + std::to_string(bad->first) +
      ", column " + std::to_string(bad->second) + " is " +
      std::to_string(data.row(bad->first)[bad->second]));
}

/// Static flavors: a VamanaIndex over Float/F16/Lvq storage, saved as a
/// self-describing <prefix>.{graph,vecs} bundle. In map mode the flavor
/// also owns the file mappings the graph/storage views point into — they
/// must outlive the index, and destruction order here guarantees it
/// (members destroy in reverse declaration order).
template <typename Storage>
class StaticFlavor : public IndexImpl {
 public:
  StaticFlavor(std::unique_ptr<VamanaIndex<Storage>> index, IndexSpec spec,
               Capabilities caps, bool self_described,
               std::vector<MmapFile> mappings = {})
      : IndexImpl(std::move(spec), caps, self_described),
        mappings_(std::move(mappings)),
        index_(std::move(index)) {}

  const SearchIndex& search() const override { return *index_; }

  Status Save(const std::string& path) const override {
    BLINK_RETURN_NOT_OK(SaveIndexBundle(path, *index_));
    return SaveMetadataSidecar(path + ".meta", index_->metadata());
  }

  Status AttachMetadata(std::shared_ptr<const MetadataStore> md) override {
    BLINK_RETURN_NOT_OK(index_->AttachMetadata(std::move(md)));
    SetFilterCap(index_->metadata() != nullptr);
    return Status::OK();
  }
  const MetadataStore* metadata() const override { return index_->metadata(); }

 private:
  std::vector<MmapFile> mappings_;
  std::unique_ptr<VamanaIndex<Storage>> index_;
};

class ShardedFlavor : public IndexImpl {
 public:
  ShardedFlavor(std::unique_ptr<ShardedIndex> index, IndexSpec spec,
                Capabilities caps, bool self_described)
      : IndexImpl(std::move(spec), caps, self_described),
        index_(std::move(index)) {}

  const SearchIndex& search() const override { return *index_; }

  Status Save(const std::string& path) const override {
    BLINK_RETURN_NOT_OK(SaveShardedIndex(path, *index_));
    return SaveMetadataSidecar(path + "/metadata.meta", index_->metadata());
  }

  Status AttachMetadata(std::shared_ptr<const MetadataStore> md) override {
    const bool attach = md != nullptr;
    BLINK_RETURN_NOT_OK(index_->AttachMetadata(std::move(md)));
    SetFilterCap(attach);
    return Status::OK();
  }
  const MetadataStore* metadata() const override { return index_->metadata(); }

 private:
  std::unique_ptr<ShardedIndex> index_;
};

/// Dynamic flavors own the mutable index plus the DynamicView that adapts
/// it to the SearchIndex seam (search sizes report live vectors).
template <typename Storage>
class DynamicFlavor : public IndexImpl {
 public:
  DynamicFlavor(std::unique_ptr<DynamicGraphIndex<Storage>> index,
                IndexSpec spec, Capabilities caps, bool self_described)
      : IndexImpl(std::move(spec), caps, self_described),
        index_(std::move(index)),
        view_(index_.get()) {}

  const SearchIndex& search() const override { return view_; }

  Status Save(const std::string& path) const override {
    BLINK_RETURN_NOT_OK(SaveDynamic(path, *index_));
    // Slot ids 0..size()-1 persist through Save/Open verbatim (tombstones
    // included), so only those rows go into the sidecar — the store itself
    // is sized to capacity.
    return SaveMetadataSidecar(path + ".meta", index_->metadata(),
                               index_->size());
  }
  Result<uint32_t> Insert(const float* vec) override {
    BLINK_RETURN_NOT_OK(CheckFinite(MatrixViewF(vec, 1, index_->dim())));
    return index_->Insert(vec);
  }
  Status Delete(uint32_t id) override { return index_->Delete(id); }
  Status Consolidate() override {
    index_->ConsolidateDeletes();
    return Status::OK();
  }
  Status AttachMetadata(std::shared_ptr<const MetadataStore> md) override {
    if (md == nullptr) {
      BLINK_RETURN_NOT_OK(index_->AttachMetadata(nullptr));
      SetFilterCap(false);
      return Status::OK();
    }
    // The dynamic store is upserted in place; attach an owned copy so a
    // shared (or mapped) input is never mutated behind the caller's back.
    BLINK_RETURN_NOT_OK(index_->AttachMetadata(
        std::make_shared<MetadataStore>(md->OwnedCopy())));
    SetFilterCap(true);
    return Status::OK();
  }
  const MetadataStore* metadata() const override { return index_->metadata(); }
  Status UpsertMetadata(uint32_t id, uint64_t tags, const double* values,
                        size_t num_values) override {
    return index_->UpsertMetadata(id, tags, values, num_values);
  }

 private:
  std::unique_ptr<DynamicGraphIndex<Storage>> index_;
  DynamicView<Storage> view_;
};

/// Anything else that implements SearchIndex (the baselines): search-only.
class WrappedFlavor : public IndexImpl {
 public:
  WrappedFlavor(std::unique_ptr<SearchIndex> index, IndexSpec spec)
      : IndexImpl(std::move(spec), kCapSearch, /*self_described=*/true),
        index_(std::move(index)) {}

  const SearchIndex& search() const override { return *index_; }

 private:
  std::unique_ptr<SearchIndex> index_;
};

DynamicOptions ToDynamicOptions(const IndexSpec& spec) {
  DynamicOptions opts;
  opts.graph_max_degree = spec.graph.graph_max_degree;
  opts.build_window = spec.graph.window_size;
  opts.alpha = spec.graph.alpha;
  opts.metric = spec.metric;
  opts.initial_capacity = spec.dynamic.initial_capacity;
  return opts;
}

/// Spec as reconstructed from a reopened dynamic index.
template <typename Storage>
IndexSpec DynamicSpecOf(const DynamicGraphIndex<Storage>& index,
                        IndexKind kind) {
  IndexSpec spec;
  spec.kind = kind;
  spec.metric = index.options().metric;
  spec.graph.graph_max_degree = index.options().graph_max_degree;
  spec.graph.window_size = index.options().build_window;
  spec.graph.alpha = index.options().alpha;
  spec.dynamic.initial_capacity = index.options().initial_capacity;
  return spec;
}

}  // namespace
}  // namespace detail

// ---------------------------------------------------------------------------
// Index: thin forwarding over IndexImpl.
// ---------------------------------------------------------------------------

Index::Index() = default;
Index::Index(std::unique_ptr<detail::IndexImpl> impl)
    : impl_(std::move(impl)) {}
Index::~Index() = default;
Index::Index(Index&&) noexcept = default;
Index& Index::operator=(Index&&) noexcept = default;

std::string Index::name() const { return impl_->search().name(); }
size_t Index::size() const { return impl_->search().size(); }
size_t Index::dim() const { return impl_->search().dim(); }
size_t Index::memory_bytes() const { return impl_->search().memory_bytes(); }
IndexKind Index::kind() const { return impl_->spec().kind; }
Metric Index::metric() const { return impl_->spec().metric; }
Capabilities Index::capabilities() const { return impl_->capabilities(); }
const IndexSpec& Index::spec() const { return impl_->spec(); }
bool Index::self_described() const { return impl_->self_described(); }

void Index::SearchBatch(MatrixViewF queries, size_t k,
                        const SearchOptions& params, uint32_t* ids,
                        ThreadPool* pool) const {
  blink::SearchBatch(impl_->search(), queries, k, params, ids, nullptr,
                     nullptr, pool);
}

void Index::SearchBatchEx(MatrixViewF queries, size_t k,
                          const SearchOptions& params, uint32_t* ids,
                          float* dists, BatchStats* stats,
                          ThreadPool* pool) const {
  blink::SearchBatch(impl_->search(), queries, k, params, ids, dists, stats,
                     pool);
}

std::unique_ptr<Searcher> Index::MakeSearcher() const {
  return impl_->search().MakeSearcher();
}

const SearchIndex& Index::AsSearchIndex() const { return impl_->search(); }

Result<SearchOptions> Index::Calibrate(const CalibrationTarget& target) const {
  Result<CalibrationReport> report = CalibrateIndex(*this, target);
  if (!report.ok()) return report.status();
  return std::move(report).value().options;
}

Status Index::Save(const std::string& path) const { return impl_->Save(path); }

Result<uint32_t> Index::Insert(const float* vec) { return impl_->Insert(vec); }
Status Index::Delete(uint32_t id) { return impl_->Delete(id); }
Status Index::Consolidate() { return impl_->Consolidate(); }

Status Index::AttachMetadata(std::shared_ptr<const MetadataStore> metadata) {
  return impl_->AttachMetadata(std::move(metadata));
}
const MetadataStore* Index::metadata() const { return impl_->metadata(); }
Status Index::UpsertMetadata(uint32_t id, uint64_t tags, const double* values,
                             size_t num_values) {
  return impl_->UpsertMetadata(id, tags, values, num_values);
}

Result<std::unique_ptr<ServingEngine>> Index::Serve(
    const ServingOptions& options) const {
  BLINK_RETURN_NOT_OK(options.Validate());
  return std::make_unique<ServingEngine>(&impl_->search(), options);
}

// ---------------------------------------------------------------------------
// Build.
// ---------------------------------------------------------------------------

Result<Index> Build(const IndexSpec& spec_in, MatrixViewF data,
                    ThreadPool* pool) {
  BLINK_RETURN_NOT_OK(spec_in.Validate());
  BLINK_RETURN_NOT_OK(detail::CheckFinite(data));
  const IndexSpec spec = spec_in.Resolved();
  switch (spec.kind) {
    case IndexKind::kStaticF32: {
      auto idx = BuildVamanaF32(data, spec.metric, spec.graph, pool);
      return Index(std::make_unique<detail::StaticFlavor<FloatStorage>>(
          std::move(idx), spec, SpecCapabilities(spec), true));
    }
    case IndexKind::kStaticF16: {
      auto idx = BuildVamanaF16(data, spec.metric, spec.graph, pool);
      return Index(std::make_unique<detail::StaticFlavor<F16Storage>>(
          std::move(idx), spec, SpecCapabilities(spec), true));
    }
    case IndexKind::kStaticLvq: {
      auto idx = BuildOgLvq(data, spec.metric, spec.bits1, spec.bits2,
                            spec.graph, pool);
      return Index(std::make_unique<detail::StaticFlavor<LvqStorage>>(
          std::move(idx), spec, SpecCapabilities(spec), true));
    }
    case IndexKind::kStaticLeanVec: {
      Result<LeanVecStorage> storage =
          BuildLeanVecStorage(data, spec.metric, spec.leanvec_dim, pool);
      if (!storage.ok()) return storage.status();
      IndexSpec resolved = spec;
      // The spec records the d' actually in effect (0 selected the d/4
      // default) and the fixed encodings, so it matches a reopened one.
      resolved.leanvec_dim = storage.value().primary_dim();
      resolved.bits1 = 8;
      resolved.bits2 = 0;
      auto idx = std::make_unique<VamanaIndex<LeanVecStorage>>(
          std::move(storage).value(), spec.graph, pool);
      const Capabilities caps = SpecCapabilities(resolved);
      return Index(std::make_unique<detail::StaticFlavor<LeanVecStorage>>(
          std::move(idx), std::move(resolved), caps, true));
    }
    case IndexKind::kStaticLeanVecLvq: {
      Result<LeanVecLvqStorage> storage =
          BuildLeanVecLvqStorage(data, spec.metric, spec.leanvec_dim, pool);
      if (!storage.ok()) return storage.status();
      IndexSpec resolved = spec;
      resolved.leanvec_dim = storage.value().primary_dim();
      resolved.bits1 = 8;  // both LeanVec LVQ levels are one-level LVQ-8
      resolved.bits2 = 0;
      auto idx = std::make_unique<VamanaIndex<LeanVecLvqStorage>>(
          std::move(storage).value(), spec.graph, pool);
      const Capabilities caps = SpecCapabilities(resolved);
      return Index(std::make_unique<detail::StaticFlavor<LeanVecLvqStorage>>(
          std::move(idx), std::move(resolved), caps, true));
    }
    case IndexKind::kSharded: {
      ShardedBuildParams sp;
      sp.partition = spec.partition;
      sp.graph = spec.graph;
      sp.bits1 = spec.bits1;
      sp.bits2 = spec.bits2;
      auto idx = BuildShardedLvq(data, spec.metric, sp, pool);
      return Index(std::make_unique<detail::ShardedFlavor>(
          std::move(idx), spec, SpecCapabilities(spec), true));
    }
    case IndexKind::kDynamicF32: {
      auto idx = std::make_unique<DynamicIndex>(data.cols,
                                                detail::ToDynamicOptions(spec));
      for (size_t i = 0; i < data.rows; ++i) idx->Insert(data.row(i));
      return Index(std::make_unique<detail::DynamicFlavor<FloatStorage>>(
          std::move(idx), spec, SpecCapabilities(spec), true));
    }
    case IndexKind::kDynamicLvq: {
      LvqDataset ds(ComputeMean(data, kDynamicMeanSampleRows),
                    {.bits = spec.bits1, .bits2 = spec.bits2});
      auto idx = std::make_unique<DynamicLvqIndex>(
          data.cols, detail::ToDynamicOptions(spec),
          LvqStorage(std::move(ds), spec.metric));
      for (size_t i = 0; i < data.rows; ++i) idx->Insert(data.row(i));
      return Index(std::make_unique<detail::DynamicFlavor<LvqStorage>>(
          std::move(idx), spec, SpecCapabilities(spec), true));
    }
  }
  return Status::InvalidArgument("unknown index kind");
}

Index WrapSearchIndex(std::unique_ptr<SearchIndex> index,
                      const IndexSpec& spec) {
  return Index(std::make_unique<detail::WrappedFlavor>(std::move(index), spec));
}

// ---------------------------------------------------------------------------
// Open: sniff the artifact, reconstruct the flavor.
// ---------------------------------------------------------------------------

namespace {

Result<Index> OpenSharded(const std::string& path, const OpenOptions& opts) {
  bool self_described = false;
  auto idx = LoadShardedIndex(path, opts.fallback_metric, opts.fallback_graph,
                              opts.use_huge_pages, &self_described);
  if (!idx.ok()) return idx.status();
  IndexSpec spec;
  spec.kind = IndexKind::kSharded;
  spec.metric = idx.value()->metric();
  spec.bits1 = idx.value()->bits1();
  spec.bits2 = idx.value()->bits2();
  spec.graph = idx.value()->build_params();
  spec.partition.num_shards = idx.value()->num_shards();
  Capabilities caps = SpecCapabilities(spec);
  // The sidecar is copied even under kMap: attaching slices it into
  // per-shard owned stores anyway.
  auto md = OpenMetadataSidecar(path + "/metadata.meta", /*view=*/false);
  if (!md.ok()) return md.status();
  if (md.value() != nullptr) {
    BLINK_RETURN_NOT_OK(idx.value()->AttachMetadata(std::move(md).value()));
    caps |= kCapFilter;
  }
  auto flavor = std::make_unique<detail::ShardedFlavor>(
      std::move(idx).value(), std::move(spec), caps, self_described);
  return Index(std::move(flavor));
}

/// One dynamic open per storage type, over the one mapping of the sniffed
/// file; `load` is that storage's BLDY loader.
template <typename Storage, typename Loader>
Result<Index> OpenDynamic(const DynamicFile& file, const OpenOptions& opts,
                          IndexKind kind, Loader load) {
  const std::string& path = file.path;
  DynamicOptions dopts;
  dopts.metric = opts.fallback_metric;
  dopts.alpha = opts.fallback_graph.alpha;
  dopts.build_window = opts.fallback_graph.window_size;
  dopts.initial_capacity = opts.dynamic_initial_capacity;
  // Dynamic metadata is owned and mutable: the sidecar is copied, and the
  // index resizes the store up to capacity on attach.
  auto md = OpenMetadataSidecar(path + ".meta", /*view=*/false);
  if (!md.ok()) return md.status();
  bool self_described = false;
  auto idx = load(file, dopts, &self_described);
  if (!idx.ok()) return idx.status();
  IndexSpec spec = detail::DynamicSpecOf(*idx.value(), kind);
  spec.dynamic.initial_capacity = opts.dynamic_initial_capacity;
  if constexpr (std::is_same_v<Storage, LvqStorage>) {
    spec.bits1 = idx.value()->storage().bits1();
    spec.bits2 = idx.value()->storage().bits2();
  }
  Capabilities caps = SpecCapabilities(spec);
  if (md.value() != nullptr) {
    BLINK_RETURN_NOT_OK(idx.value()->AttachMetadata(std::move(md).value()));
    caps |= kCapFilter;
  }
  return Index(std::make_unique<detail::DynamicFlavor<Storage>>(
      std::move(idx).value(), std::move(spec), caps, self_described));
}

Result<Index> OpenDynamic(const DynamicFile& file, const OpenOptions& opts) {
  if (file.kind == DynamicKind::kF32) {
    return OpenDynamic<FloatStorage>(
        file, opts, IndexKind::kDynamicF32,
        [](const DynamicFile& f, DynamicOptions o, bool* sd) {
          return LoadDynamicF32(f, o, sd);
        });
  }
  return OpenDynamic<LvqStorage>(
      file, opts, IndexKind::kDynamicLvq,
      [](const DynamicFile& f, DynamicOptions o, bool* sd) {
        return LoadDynamicLvq(f, o, sd);
      });
}

/// Static open (DESIGN.md D12): the bundle's one opener, then its
/// encoding's one parser and the `.meta` sidecar under the same placement.
/// A view (kMap over a v3 bundle) keeps the mappings alive in the flavor;
/// a copy (kLoad, or a v1/v2 bundle under kMap) drops them when Open
/// returns. The spec records the mode in effect.
Result<Index> OpenStatic(const std::string& prefix, const OpenOptions& opts) {
  Result<StaticBundle> opened = OpenStaticBundle(
      prefix,
      {.view = opts.load_mode == LoadMode::kMap,
       .use_huge_pages = opts.use_huge_pages},
      opts.fallback_metric, opts.fallback_graph);
  if (!opened.ok()) return opened.status();
  StaticBundle& b = opened.value();
  IndexSpec spec;
  spec.metric = b.metric;
  spec.graph = b.params;
  spec.load_mode = b.place.view ? LoadMode::kMap : LoadMode::kLoad;

  // A viewed sidecar's columns alias its mapping, which the returned
  // store keeps alive.
  auto metadata = OpenMetadataSidecar(prefix + ".meta", b.place.view,
                                      opts.use_huge_pages);
  if (!metadata.ok()) return metadata.status();

  const MmapFile& vm = b.vecs_file;
  const std::string& vecs_path = b.vecs_path;
  auto make = [&](auto storage) -> Result<Index> {
    using Storage = decltype(storage);
    auto idx = std::make_unique<VamanaIndex<Storage>>(
        std::move(storage), std::move(b.graph), spec.graph);
    Capabilities caps = SpecCapabilities(spec);
    if (metadata.value() != nullptr) {
      BLINK_RETURN_NOT_OK(idx->AttachMetadata(std::move(metadata).value()));
      caps |= kCapFilter;
    }
    std::vector<MmapFile> mappings;
    if (b.place.view) {
      mappings.push_back(std::move(b.graph_file));
      mappings.push_back(std::move(b.vecs_file));
    }
    return Index(std::make_unique<detail::StaticFlavor<Storage>>(
        std::move(idx), std::move(spec), caps, b.self_described,
        std::move(mappings)));
  };
  switch (b.encoding) {
    case VecsEncoding::kLvq1:
    case VecsEncoding::kLvq2: {
      auto ds = ReadLvq(vm, vecs_path, b.place);
      if (!ds.ok()) return ds.status();
      spec.kind = IndexKind::kStaticLvq;
      spec.bits1 = ds.value().bits();
      spec.bits2 = ds.value().bits2();
      return make(LvqStorage(std::move(ds).value(), spec.metric));
    }
    case VecsEncoding::kFloat32: {
      auto st = ReadFloatVecs(vm, vecs_path, spec.metric, b.place);
      if (!st.ok()) return st.status();
      spec.kind = IndexKind::kStaticF32;
      return make(std::move(st).value());
    }
    case VecsEncoding::kFloat16: {
      auto st = ReadF16Vecs(vm, vecs_path, spec.metric, b.place);
      if (!st.ok()) return st.status();
      spec.kind = IndexKind::kStaticF16;
      return make(std::move(st).value());
    }
    case VecsEncoding::kLeanVecF32: {
      auto st = ReadLeanVecVecs(vm, vecs_path, spec.metric, b.place);
      if (!st.ok()) return st.status();
      spec.kind = IndexKind::kStaticLeanVec;
      spec.leanvec_dim = st.value().primary_dim();
      return make(std::move(st).value());
    }
    case VecsEncoding::kLeanVecLvq: {
      auto st = ReadLeanVecLvqVecs(vm, vecs_path, spec.metric, b.place);
      if (!st.ok()) return st.status();
      spec.kind = IndexKind::kStaticLeanVecLvq;
      spec.leanvec_dim = st.value().primary_dim();
      spec.bits1 = st.value().primary().bits1();
      spec.bits2 = 0;
      return make(std::move(st).value());
    }
  }
  return Status::Internal(vecs_path + ": unhandled vecs encoding");
}

}  // namespace

Result<Index> Open(const std::string& path, const OpenOptions& options) {
  std::error_code ec;
  if (IsShardedIndexDir(path)) return OpenSharded(path, options);
  if (std::filesystem::is_directory(path, ec)) {
    return Status::IOError(path + ": directory has no sharded-index manifest");
  }
  if (std::filesystem::is_regular_file(path, ec)) {
    bool is_bldy = false;
    Result<DynamicFile> dynamic = SniffDynamicFile(path, &is_bldy);
    if (dynamic.ok()) return OpenDynamic(dynamic.value(), options);
    if (is_bldy) return dynamic.status();
    return Status::IOError(path +
                           ": not a recognized index artifact (expected a "
                           "BLDY dynamic-index file, a sharded-index "
                           "directory, or a <prefix>.graph/.vecs bundle)");
  }
  if (std::filesystem::is_regular_file(path + ".graph", ec)) {
    return OpenStatic(path, options);
  }
  return Status::NotFound(path +
                          ": no such artifact (tried a sharded directory, a "
                          "dynamic-index file, and " + path + ".graph)");
}

}  // namespace blink
