#include "common.h"

#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

namespace perfbench {

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

size_t LastLevelCacheBytes() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return static_cast<size_t>(l3);
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return l2 > 0 ? static_cast<size_t>(l2) : 0;
}

void PinToCpu(int cpu) {
  static const cpu_set_t allowed = [] {
    cpu_set_t s;
    CPU_ZERO(&s);
    sched_getaffinity(0, sizeof(s), &s);
    return s;
  }();
  if (cpu < 0) {
    pthread_setaffinity_np(pthread_self(), sizeof(allowed), &allowed);
    return;
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[size_t(cpu) % cpus.size()], &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

void Report::E2e(const std::string& name, double value, const std::string& unit,
                 size_t samples) {
  e2e_.push_back({name, value, unit, samples});
}
void Report::Layer(const std::string& name, double value,
                   const std::string& unit, size_t samples) {
  layer_.push_back({name, value, unit, samples});
}
void Report::Info(const std::string& name, double value,
                  const std::string& unit, size_t samples) {
  info_.push_back({name, value, unit, samples});
}

void Report::Check(const std::string& name, bool ok, const std::string& detail) {
  std::printf("check %-40s %s  %s\n", name.c_str(), ok ? "ok  " : "FAIL",
              detail.c_str());
  if (!ok) checks_ok_ = false;
}

void Report::Attempt(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

void Report::Print(bool traced) const {
  auto print_rows = [](const char* kind, const std::vector<Metric>& rows) {
    for (const Metric& m : rows) {
      std::printf("%-6s %-40s %14.6g %-6s n=%zu\n", kind, m.name.c_str(),
                  m.value, m.unit.c_str(), m.samples);
    }
  };
  print_rows("e2e", e2e_);
  print_rows("info", info_);
  print_rows("layer", layer_);
  std::printf("ops attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted_, 1));
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : traced ? layer_ : e2e_) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

Tracer::Lane* Tracer::lane() {
  thread_local Tracer* owner = nullptr;
  thread_local Lane* mine = nullptr;
  if (owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    lanes_.push_back(std::make_unique<Lane>());
    mine = lanes_.back().get();
    mine->base = static_cast<uint64_t>(lanes_.size()) << 40;
    owner = this;
  }
  return mine;
}

std::map<std::string, Tracer::Totals> Tracer::Aggregate() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Totals> out;
  for (const auto& lane : lanes_) {
    std::map<uint64_t, double> child_ns;  // parent id -> covered ns
    for (const Span& s : lane->spans) {
      if (s.parent != 0) child_ns[s.parent] += double(s.end_ns - s.start_ns);
    }
    for (const Span& s : lane->spans) {
      Totals& t = out[s.name];
      const double dur = double(s.end_ns - s.start_ns);
      const auto it = child_ns.find(s.id);
      t.count += 1;
      t.self_ns += dur - (it == child_ns.end() ? 0.0 : it->second);
    }
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& lane : lanes_) {
    for (const Span& s : lane->spans) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << "}\n";
    }
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
