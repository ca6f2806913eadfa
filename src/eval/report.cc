#include "eval/report.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "api/calibrate.h"
#include "eval/harness.h"

namespace blink {
namespace json {

const Value* Value::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  auto it = as_object().find(key);
  return it != as_object().end() ? &it->second : nullptr;
}

namespace {

void AppendEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendNumber(double d, std::string* out) {
  if (!std::isfinite(d)) d = 0.0;  // reports must stay parseable everywhere
  char buf[32];
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", d);
  } else {
    std::snprintf(buf, sizeof(buf), "%.10g", d);
  }
  *out += buf;
}

void DumpTo(const Value& v, int indent, std::string* out) {
  const std::string pad(2 * indent, ' ');
  const std::string pad_in(2 * (indent + 1), ' ');
  if (v.is_null()) {
    *out += "null";
  } else if (v.is_bool()) {
    *out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    AppendNumber(v.as_number(), out);
  } else if (v.is_string()) {
    AppendEscaped(v.as_string(), out);
  } else if (v.is_array()) {
    const Array& a = v.as_array();
    if (a.empty()) {
      *out += "[]";
      return;
    }
    *out += "[\n";
    for (size_t i = 0; i < a.size(); ++i) {
      *out += pad_in;
      DumpTo(a[i], indent + 1, out);
      if (i + 1 < a.size()) out->push_back(',');
      out->push_back('\n');
    }
    *out += pad + "]";
  } else {
    const Object& o = v.as_object();
    if (o.empty()) {
      *out += "{}";
      return;
    }
    *out += "{\n";
    size_t i = 0;
    for (const auto& [key, val] : o) {
      *out += pad_in;
      AppendEscaped(key, out);
      *out += ": ";
      DumpTo(val, indent + 1, out);
      if (++i < o.size()) out->push_back(',');
      out->push_back('\n');
    }
    *out += pad + "}";
  }
}

// Recursive-descent parser over [p, end).
class Parser {
 public:
  Parser(const char* p, const char* end) : p_(p), end_(end) {}

  Result<Value> Run() {
    Result<Value> v = ParseValue();
    if (!v.ok()) return v;
    SkipWs();
    if (p_ != end_) return Err("trailing characters after JSON value");
    return v;
  }

 private:
  Status Err(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error: " + what);
  }

  void SkipWs() {
    while (p_ != end_ && std::isspace(static_cast<unsigned char>(*p_))) ++p_;
  }

  bool Consume(char c) {
    SkipWs();
    if (p_ == end_ || *p_ != c) return false;
    ++p_;
    return true;
  }

  bool ConsumeWord(const char* w) {
    const char* q = p_;
    while (*w != '\0') {
      if (q == end_ || *q != *w) return false;
      ++q;
      ++w;
    }
    p_ = q;
    return true;
  }

  Result<Value> ParseValue() {
    SkipWs();
    if (p_ == end_) return Err("unexpected end of input");
    switch (*p_) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': {
        Result<std::string> s = ParseString();
        if (!s.ok()) return s.status();
        return Value(std::move(s).value());
      }
      case 't':
        if (ConsumeWord("true")) return Value(true);
        return Err("bad literal");
      case 'f':
        if (ConsumeWord("false")) return Value(false);
        return Err("bad literal");
      case 'n':
        if (ConsumeWord("null")) return Value(nullptr);
        return Err("bad literal");
      default: return ParseNumber();
    }
  }

  Result<Value> ParseObject() {
    ++p_;  // '{'
    Object obj;
    SkipWs();
    if (Consume('}')) return Value(std::move(obj));
    while (true) {
      SkipWs();
      if (p_ == end_ || *p_ != '"') return Err("expected object key");
      Result<std::string> key = ParseString();
      if (!key.ok()) return key.status();
      if (!Consume(':')) return Err("expected ':' after key");
      Result<Value> val = ParseValue();
      if (!val.ok()) return val;
      obj.insert_or_assign(std::move(key).value(), std::move(val).value());
      if (Consume(',')) continue;
      if (Consume('}')) return Value(std::move(obj));
      return Err("expected ',' or '}' in object");
    }
  }

  Result<Value> ParseArray() {
    ++p_;  // '['
    Array arr;
    SkipWs();
    if (Consume(']')) return Value(std::move(arr));
    while (true) {
      Result<Value> val = ParseValue();
      if (!val.ok()) return val;
      arr.push_back(std::move(val).value());
      if (Consume(',')) continue;
      if (Consume(']')) return Value(std::move(arr));
      return Err("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    ++p_;  // '"'
    std::string s;
    while (p_ != end_ && *p_ != '"') {
      char c = *p_++;
      if (c != '\\') {
        s.push_back(c);
        continue;
      }
      if (p_ == end_) return Err("unterminated escape");
      char e = *p_++;
      switch (e) {
        case '"': s.push_back('"'); break;
        case '\\': s.push_back('\\'); break;
        case '/': s.push_back('/'); break;
        case 'b': s.push_back('\b'); break;
        case 'f': s.push_back('\f'); break;
        case 'n': s.push_back('\n'); break;
        case 'r': s.push_back('\r'); break;
        case 't': s.push_back('\t'); break;
        case 'u': {
          if (end_ - p_ < 4) return Err("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = *p_++;
            code <<= 4;
            if (h >= '0' && h <= '9') code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else return Err("bad \\u escape");
          }
          // The reports only emit \u for control characters; anything wider
          // degrades to '?' rather than growing a UTF-16 decoder here.
          s.push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default: return Err("unknown escape");
      }
    }
    if (p_ == end_) return Err("unterminated string");
    ++p_;  // closing '"'
    return s;
  }

  Result<Value> ParseNumber() {
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    while (p_ != end_ &&
           (std::isdigit(static_cast<unsigned char>(*p_)) || *p_ == '.' ||
            *p_ == 'e' || *p_ == 'E' || *p_ == '-' || *p_ == '+')) {
      ++p_;
    }
    if (p_ == start) return Err("expected a value");
    char* parsed_end = nullptr;
    const std::string text(start, p_);
    const double d = std::strtod(text.c_str(), &parsed_end);
    if (parsed_end != text.c_str() + text.size()) return Err("bad number");
    return Value(d);
  }

  const char* p_;
  const char* end_;
};

}  // namespace

std::string Dump(const Value& value) {
  std::string out;
  DumpTo(value, 0, &out);
  out.push_back('\n');
  return out;
}

Result<Value> Parse(const std::string& text) {
  return Parser(text.data(), text.data() + text.size()).Run();
}

}  // namespace json

// --- report <-> JSON ------------------------------------------------------

namespace {

json::Object OptionsToJson(const SearchOptions& o) {
  json::Object obj;
  obj.emplace("window", static_cast<double>(o.window));
  obj.emplace("nprobe_shards", static_cast<double>(o.nprobe_shards));
  obj.emplace("rerank", o.rerank);
  obj.emplace("rerank_window", static_cast<double>(o.rerank_window));
  obj.emplace("nprobe", static_cast<double>(o.nprobe));
  obj.emplace("reorder_k", static_cast<double>(o.reorder_k));
  return obj;
}

double GetNum(const json::Value& v, const std::string& key, double dflt = 0) {
  const json::Value* m = v.Find(key);
  return m != nullptr && m->is_number() ? m->as_number() : dflt;
}

std::string GetStr(const json::Value& v, const std::string& key) {
  const json::Value* m = v.Find(key);
  return m != nullptr && m->is_string() ? m->as_string() : std::string();
}

bool GetBool(const json::Value& v, const std::string& key, bool dflt = false) {
  const json::Value* m = v.Find(key);
  return m != nullptr && m->is_bool() ? m->as_bool() : dflt;
}

SearchOptions OptionsFromJson(const json::Value& v) {
  SearchOptions o;
  o.window = static_cast<uint32_t>(GetNum(v, "window", o.window));
  o.nprobe_shards =
      static_cast<uint32_t>(GetNum(v, "nprobe_shards", o.nprobe_shards));
  o.rerank = GetBool(v, "rerank", o.rerank);
  o.rerank_window =
      static_cast<uint32_t>(GetNum(v, "rerank_window", o.rerank_window));
  o.nprobe = static_cast<uint32_t>(GetNum(v, "nprobe", o.nprobe));
  o.reorder_k = static_cast<uint32_t>(GetNum(v, "reorder_k", o.reorder_k));
  return o;
}

}  // namespace

std::string BenchReportToJson(const BenchReport& report) {
  json::Object root;
  root.emplace("schema_version", static_cast<double>(report.schema_version));
  root.emplace("generator", report.generator);
  json::Object ds;
  ds.emplace("name", report.dataset_name);
  ds.emplace("n", static_cast<double>(report.n));
  ds.emplace("nq", static_cast<double>(report.nq));
  ds.emplace("dim", static_cast<double>(report.dim));
  ds.emplace("metric", report.metric);
  ds.emplace("seed", static_cast<double>(report.seed));
  root.emplace("dataset", std::move(ds));
  root.emplace("k", static_cast<double>(report.k));
  root.emplace("target_recall", report.target_recall);
  root.emplace("threads", static_cast<double>(report.threads));
  json::Array flavors;
  for (const BenchFlavorReport& f : report.flavors) {
    json::Object o;
    o.emplace("name", f.name);
    o.emplace("build_seconds", f.build_seconds);
    o.emplace("memory_bytes", f.memory_bytes);
    o.emplace("calibrated", f.calibrated);
    o.emplace("calibration_error", f.calibration_error);
    o.emplace("options", OptionsToJson(f.options));
    o.emplace("rerank_window", static_cast<double>(f.rerank_window));
    o.emplace("primary_dim", static_cast<double>(f.primary_dim));
    o.emplace("recall", f.recall);
    o.emplace("qps", f.qps);
    o.emplace("p50_us", f.p50_us);
    o.emplace("p99_us", f.p99_us);
    o.emplace("dists_per_query", f.dists_per_query);
    flavors.push_back(std::move(o));
  }
  root.emplace("flavors", std::move(flavors));
  return json::Dump(root);
}

Result<BenchReport> ParseBenchReport(const std::string& text) {
  Result<json::Value> parsed = json::Parse(text);
  if (!parsed.ok()) return parsed.status();
  const json::Value& root = parsed.value();
  if (!root.is_object()) {
    return Status::InvalidArgument("bench report: top level is not an object");
  }
  const json::Value* version = root.Find("schema_version");
  if (version == nullptr || !version->is_number()) {
    return Status::InvalidArgument("bench report: missing schema_version");
  }
  BenchReport r;
  r.schema_version = static_cast<int>(version->as_number());
  r.generator = GetStr(root, "generator");
  if (const json::Value* ds = root.Find("dataset"); ds != nullptr) {
    r.dataset_name = GetStr(*ds, "name");
    r.n = static_cast<size_t>(GetNum(*ds, "n"));
    r.nq = static_cast<size_t>(GetNum(*ds, "nq"));
    r.dim = static_cast<size_t>(GetNum(*ds, "dim"));
    r.metric = GetStr(*ds, "metric");
    r.seed = static_cast<uint64_t>(GetNum(*ds, "seed"));
  }
  r.k = static_cast<size_t>(GetNum(root, "k", 10));
  r.target_recall = GetNum(root, "target_recall", 0.9);
  r.threads = static_cast<size_t>(GetNum(root, "threads", 1));
  const json::Value* flavors = root.Find("flavors");
  if (flavors == nullptr || !flavors->is_array()) {
    return Status::InvalidArgument("bench report: missing flavors array");
  }
  for (const json::Value& fv : flavors->as_array()) {
    BenchFlavorReport f;
    f.name = GetStr(fv, "name");
    if (f.name.empty()) {
      return Status::InvalidArgument("bench report: flavor without a name");
    }
    f.build_seconds = GetNum(fv, "build_seconds");
    f.memory_bytes = GetNum(fv, "memory_bytes");
    f.calibrated = GetBool(fv, "calibrated");
    f.calibration_error = GetStr(fv, "calibration_error");
    if (const json::Value* o = fv.Find("options"); o != nullptr) {
      f.options = OptionsFromJson(*o);
    }
    // Additive v1 keys: reports written before them parse with 0 here.
    f.rerank_window = static_cast<uint32_t>(GetNum(fv, "rerank_window"));
    f.primary_dim = static_cast<size_t>(GetNum(fv, "primary_dim"));
    f.recall = GetNum(fv, "recall");
    f.qps = GetNum(fv, "qps");
    f.p50_us = GetNum(fv, "p50_us");
    f.p99_us = GetNum(fv, "p99_us");
    f.dists_per_query = GetNum(fv, "dists_per_query");
    r.flavors.push_back(std::move(f));
  }
  return r;
}

// --- measurement ----------------------------------------------------------

BenchFlavorReport MeasureFlavor(const std::string& name, const Index& index,
                                double build_seconds, MatrixViewF queries,
                                const Matrix<uint32_t>& groundtruth,
                                const BenchRunConfig& config) {
  BenchFlavorReport f;
  f.name = name;
  f.build_seconds = build_seconds;
  f.memory_bytes = static_cast<double>(index.memory_bytes());
  const size_t nq = queries.rows;
  const size_t k = config.k;

  // Calibrate on the first half, evaluate on the second — the tuned options
  // must generalize past the sample they were fitted on. Tiny batches skip
  // the split rather than calibrating on nothing.
  const size_t ns = nq >= 4 ? nq / 2 : nq;
  const size_t eval_lo = nq >= 4 ? ns : 0;
  const size_t ne = nq - eval_lo;
  MatrixViewF sample(queries.row(0), ns, queries.cols);
  MatrixViewF eval(queries.row(eval_lo), ne, queries.cols);
  Matrix<uint32_t> gt_sample(ns, groundtruth.cols());
  Matrix<uint32_t> gt_eval(ne, groundtruth.cols());
  for (size_t i = 0; i < ns; ++i) {
    std::copy_n(groundtruth.row(i), groundtruth.cols(), gt_sample.row(i));
  }
  for (size_t i = 0; i < ne; ++i) {
    std::copy_n(groundtruth.row(eval_lo + i), groundtruth.cols(),
                gt_eval.row(i));
  }

  CalibrationTarget target;
  target.target_recall = config.target_recall;
  target.sample_queries = sample;
  target.groundtruth = &gt_sample;
  target.k = k;
  target.max_window = config.max_window;
  target.pool = config.pool;
  Result<SearchOptions> calibrated = index.Calibrate(target);
  if (calibrated.ok()) {
    f.calibrated = true;
    f.options = calibrated.value();
  } else {
    f.calibrated = false;
    f.calibration_error = calibrated.status().ToString();
    f.options = SearchOptions{};  // measured anyway, at the defaults
  }
  f.rerank_window = f.options.rerank_window;
  if (config.filter != nullptr) {
    f.options.filter = config.filter;
    f.options.filter_strategy = config.filter_strategy;
    if (config.filtered_groundtruth != nullptr) {
      for (size_t i = 0; i < ne; ++i) {
        std::copy_n(config.filtered_groundtruth->row(eval_lo + i),
                    config.filtered_groundtruth->cols(), gt_eval.row(i));
      }
    }
  }
  // leanvec_dim is only resolved non-zero for the LeanVec kinds, where it
  // is the dimensionality traversal actually pays; everything else searches
  // the full d.
  f.primary_dim =
      index.spec().leanvec_dim > 0 ? index.spec().leanvec_dim : index.dim();

  // Batch throughput: best of `best_of` runs (the harness protocol), then
  // single-query latency percentiles through one warm searcher (the
  // serving path's unit of work).
  const SearchIndex& search = index.AsSearchIndex();
  const SweepPoint batch =
      MeasureSetting(search, eval, &gt_eval, k, f.options,
                     {.best_of = config.best_of, .pool = config.pool});
  f.recall = batch.recall;
  f.qps = batch.qps;
  f.dists_per_query = batch.dists_per_query;
  const SweepPoint single = MeasureSetting(
      search, eval, nullptr, k, f.options,
      {.best_of = 1, .single_query = true});
  f.p50_us = single.p50_us;
  f.p99_us = single.p99_us;
  return f;
}

// --- the baseline gate ----------------------------------------------------

namespace {

std::string Fmt(const char* fmt, double a, double b) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

}  // namespace

GateResult CompareToBaseline(const BenchReport& current,
                             const BenchReport& baseline,
                             const BaselineGate& gate) {
  GateResult out;
  if (current.schema_version != baseline.schema_version) {
    out.pass = false;
    out.failures.push_back(
        "schema_version mismatch (current " +
        std::to_string(current.schema_version) + ", baseline " +
        std::to_string(baseline.schema_version) +
        "): regenerate bench/baseline.json");
    return out;
  }
  for (const BenchFlavorReport& b : baseline.flavors) {
    const BenchFlavorReport* c = nullptr;
    for (const BenchFlavorReport& f : current.flavors) {
      if (f.name == b.name) {
        c = &f;
        break;
      }
    }
    if (c == nullptr) {
      out.pass = false;
      out.failures.push_back("flavor '" + b.name +
                             "' is in the baseline but missing from the "
                             "current report");
      continue;
    }
    // A baseline machine that overshot the target must not tighten the
    // gate, hence the min() with the configured target.
    const double floor =
        std::min(b.recall, current.target_recall) - gate.recall_tolerance;
    if (c->recall < floor) {
      out.pass = false;
      out.failures.push_back(
          b.name + ": recall regressed " +
          Fmt("(current %.4f < floor %.4f)", c->recall, floor));
    }
    if (b.qps > 0.0 && c->qps < gate.qps_warn_ratio * b.qps) {
      out.warnings.push_back(
          b.name + ": QPS dropped " +
          Fmt("(current %.0f vs baseline %.0f)", c->qps, b.qps));
    }
  }
  for (const BenchFlavorReport& f : current.flavors) {
    bool known = false;
    for (const BenchFlavorReport& b : baseline.flavors) {
      if (b.name == f.name) {
        known = true;
        break;
      }
    }
    if (!known) {
      out.warnings.push_back("flavor '" + f.name +
                             "' is new (not in the baseline)");
    }
  }
  return out;
}

}  // namespace blink
