// Shared plumbing of the perfbench binary: clocks, sample statistics, the
// metric report with its final JSON line, failure accounting and the span
// tracer used by traced runs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU seconds the whole process has used so far (all threads).
double ProcessCpuSeconds();

/// Last-level cache size in bytes as the C library reports it (cpuid on
/// x86), 0 when unknown.
size_t LastLevelCacheBytes();

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }
double Mean(const std::vector<double>& v);

/// A measured phase run as equal blocks of work back to back. Each figure
/// is the median over blocks, so a disturbance that hits one block (a
/// noisy neighbour, a page-cache flush) does not move the run's figure.
///
/// A block's p50 is the mean of its clients' medians. On a shared host
/// some cores run slower than others at any moment, so the pooled latency
/// of several clients is a mixture of fast and slow modes whose median
/// jumps between them from run to run; the mean of per-client medians
/// moves smoothly with the mix instead. p99 is over the pooled latencies.
struct Blocks {
  std::vector<double> qps, p50_us, p99_us;
  size_t samples = 0;
  /// One block: each client's latencies, the operations the block
  /// completed and the time it took.
  void Add(const std::vector<std::vector<double>>& client_us, size_t ops,
           double wall_s) {
    std::vector<double> pooled;
    double p50_sum = 0.0;
    size_t clients = 0;
    for (const auto& lat : client_us) {
      if (lat.empty()) continue;
      p50_sum += Quantile(lat, 0.5);
      ++clients;
      pooled.insert(pooled.end(), lat.begin(), lat.end());
    }
    if (pooled.empty()) return;
    qps.push_back(double(ops) / wall_s);
    p50_us.push_back(p50_sum / double(clients));
    p99_us.push_back(Quantile(pooled, 0.99));
    samples += pooled.size();
  }
};

/// Restricts the calling thread to one CPU (cpu modulo the CPUs it may
/// use), or lets it run anywhere again when `cpu` is negative. Best
/// effort: a failure leaves the placement as it was.
void PinToCpu(int cpu);

/// The metrics of one run plus its verification verdicts. Print() writes a
/// human-readable line per metric and check, then the one-line JSON result
/// the benchmark contract asks for, last.
class Report {
 public:
  /// An end-to-end metric (reported when the run is untraced).
  void E2e(const std::string& name, double value, const std::string& unit,
           size_t samples);
  /// A per-layer metric (reported when the run is traced).
  void Layer(const std::string& name, double value, const std::string& unit,
             size_t samples);
  /// A figure printed for the reader but outside the JSON result.
  void Info(const std::string& name, double value, const std::string& unit,
            size_t samples);
  /// Records a verification; a false `ok` makes the run incorrect.
  void Check(const std::string& name, bool ok, const std::string& detail);
  /// Operation accounting (see the README's failure rules).
  void Attempt(uint64_t attempted, uint64_t failed);

  bool correct() const { return checks_ok_ && failed_ == 0; }
  void Print(bool traced) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    size_t samples;
  };
  std::vector<Metric> e2e_, layer_, info_;
  bool checks_ok_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Per-thread span recorder. Spans carry name, start, end, parent span and
/// request id; they stay in memory until WriteJsonl() at exit. Disabled
/// tracers record nothing and cost one branch per scope.
class Tracer {
 public:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    uint64_t id;
    uint64_t parent;  ///< 0 = root
    uint64_t request;
  };
  /// A thread's span buffer; obtain one per thread with lane().
  struct Lane {
    std::vector<Span> spans;
    std::vector<uint64_t> open;  // ids of the currently open spans
    uint64_t next_id = 0;
    uint64_t base = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  Lane* lane();

  /// Per-name totals: count and summed self time (a span's duration minus
  /// the time its direct child spans cover).
  struct Totals {
    uint64_t count = 0;
    double self_ns = 0.0;
  };
  std::map<std::string, Totals> Aggregate() const;
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// RAII span: records [construction, destruction) on the calling thread's
/// lane, nested under the lane's innermost open span.
class Scope {
 public:
  Scope(Tracer::Lane* lane, const char* name, uint64_t request)
      : lane_(lane) {
    if (lane_ == nullptr) return;
    span_.name = name;
    span_.request = request;
    span_.parent = lane_->open.empty() ? 0 : lane_->open.back();
    span_.id = lane_->base + ++lane_->next_id;
    lane_->open.push_back(span_.id);
    span_.start_ns = NowNs();
  }
  ~Scope() {
    if (lane_ == nullptr) return;
    span_.end_ns = NowNs();
    lane_->open.pop_back();
    lane_->spans.push_back(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer::Lane* lane_;
  Tracer::Span span_{};
};

/// Lane of `tracer` for this thread, or null when tracing is off.
inline Tracer::Lane* LaneOf(Tracer& tracer) {
  return tracer.enabled() ? tracer.lane() : nullptr;
}

/// Everything a workload needs from the command line.
struct RunContext {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string work_dir;  ///< cached fixtures and trace output
  /// Names the static-mem artifact; run.py passes a hash of the sources
  /// that shape it, so a source change gets a fresh build.
  std::string artifact_key = "unkeyed";
  size_t threads = 4;    ///< client threads (never above nproc)
};

}  // namespace perfbench
