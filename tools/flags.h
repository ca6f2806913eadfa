// Shared command-line flag plumbing for the blink_* tools.
//
// Every tool takes `--flag value` pairs. The historical loop
// (`for (a; a + 1 < argc; a += 2)`) silently dropped a trailing flag with
// no value, and `std::atoi` turned garbage into 0; FlagParser makes both
// hard errors: a dangling flag and a malformed or out-of-range number each
// produce a message on stderr and a false/ok()==false the tool turns into
// its usage exit.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "filter/predicate.h"
#include "graph/storage.h"

namespace blink {
namespace tools {

/// Iterates `--flag value` pairs from argv[start..). Next() returns false
/// at the end of the arguments *or* on a dangling flag; check ok() after
/// the loop to tell the two apart.
class FlagParser {
 public:
  FlagParser(int argc, char** argv, int start)
      : argc_(argc), argv_(argv), pos_(start) {}

  bool Next(std::string* flag, const char** value) {
    if (pos_ >= argc_) return false;  // end of arguments
    *flag = argv_[pos_];
    if (pos_ + 1 >= argc_) {
      std::fprintf(stderr, "missing value for %s\n", argv_[pos_]);
      dangling_ = true;
      return false;
    }
    *value = argv_[pos_ + 1];
    pos_ += 2;
    return true;
  }

  /// False when the loop stopped on a dangling flag rather than the end.
  bool ok() const { return !dangling_; }

 private:
  int argc_;
  char** argv_;
  int pos_;
  bool dangling_ = false;
};

/// Consumes every bare `--map` from argv (FlagParser only iterates
/// `--flag value` pairs); returns true when one was present.
inline bool TakeMapFlag(int* argc, char** argv) {
  bool found = false;
  int w = 1;
  for (int r = 1; r < *argc; ++r) {
    if (std::strcmp(argv[r], "--map") == 0) {
      found = true;
    } else {
      argv[w++] = argv[r];
    }
  }
  *argc = w;
  return found;
}

/// Strict decimal integer parse: the whole token must be a number in
/// [min_v, max_v]. Prints a message and returns false otherwise (so
/// `--lvq garbage` is an error, not silently 0 bits).
inline bool ParseIntFlag(const std::string& flag, const char* value,
                         long long min_v, long long max_v, long long* out) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || v < min_v ||
      v > max_v) {
    std::fprintf(stderr, "%s: expected an integer in [%lld, %lld], got '%s'\n",
                 flag.c_str(), min_v, max_v, value);
    return false;
  }
  *out = v;
  return true;
}

/// Strict comma-separated unsigned list parse ("10,20,40"): every segment
/// must be a whole number in [min_v, max_v]; empty segments, trailing
/// commas and garbage are errors. Shared by the tools' sweep flags
/// (blink_search / blink_serve --window).
inline bool ParseUintListFlag(const std::string& flag, const char* value,
                              unsigned long min_v, unsigned long max_v,
                              std::vector<uint32_t>* out) {
  out->clear();
  const char* p = value;
  while (true) {
    errno = 0;
    char* end = nullptr;
    // strtoul would skip leading whitespace and accept '+'/'-'; a segment
    // must start with a digit outright.
    const bool digit_start = *p >= '0' && *p <= '9';
    const unsigned long v = digit_start ? std::strtoul(p, &end, 10) : 0;
    if (!digit_start || end == p || errno == ERANGE || v < min_v ||
        v > max_v || (*end != '\0' && *end != ',')) {
      std::fprintf(stderr,
                   "%s: expected N[,N...] with N in [%lu, %lu], got '%s'\n",
                   flag.c_str(), min_v, max_v, value);
      out->clear();
      return false;
    }
    out->push_back(static_cast<uint32_t>(v));
    if (*end == '\0') return true;
    p = end + 1;
    if (*p == '\0') {  // trailing comma
      std::fprintf(stderr, "%s: trailing ',' in '%s'\n", flag.c_str(), value);
      out->clear();
      return false;
    }
  }
}

/// Strict metric parse: exactly "l2" or "ip" (anything else used to fall
/// through to L2 silently).
inline bool ParseMetricFlag(const std::string& flag, const char* value,
                            Metric* out) {
  if (std::strcmp(value, "l2") == 0) {
    *out = Metric::kL2;
    return true;
  }
  if (std::strcmp(value, "ip") == 0) {
    *out = Metric::kInnerProduct;
    return true;
  }
  std::fprintf(stderr, "%s: expected l2 or ip, got '%s'\n", flag.c_str(),
               value);
  return false;
}

/// Strict filter-predicate parse, the CLI face of Predicate::Parse
/// (filter/predicate.h grammar: space-separated clauses like
/// "tag:any=1,3 num0>=2.5"). Same no-leniency contract as the numeric
/// parsers above: any malformed clause, stray token, or trailing garbage
/// prints the parser's message to stderr and returns false — never a
/// silently weakened predicate.
inline bool ParseFilterFlag(const std::string& flag, const char* value,
                            Predicate* out) {
  Result<Predicate> parsed = Predicate::Parse(value);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", flag.c_str(),
                 parsed.status().ToString().c_str());
    return false;
  }
  *out = std::move(parsed).value();
  return true;
}

/// Strict filter-strategy parse: exactly "auto", "post", or "insearch".
inline bool ParseFilterStrategyFlag(const std::string& flag, const char* value,
                                    FilterStrategy* out) {
  if (std::strcmp(value, "auto") == 0) {
    *out = FilterStrategy::kAuto;
    return true;
  }
  if (std::strcmp(value, "post") == 0) {
    *out = FilterStrategy::kPostFilter;
    return true;
  }
  if (std::strcmp(value, "insearch") == 0) {
    *out = FilterStrategy::kInSearch;
    return true;
  }
  std::fprintf(stderr, "%s: expected auto, post, or insearch, got '%s'\n",
               flag.c_str(), value);
  return false;
}

/// Strict double parse (> 0 unless allow_zero).
inline bool ParseDoubleFlag(const std::string& flag, const char* value,
                            double* out, bool allow_zero = false) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0' || errno == ERANGE || v < 0.0 ||
      (!allow_zero && v == 0.0)) {
    std::fprintf(stderr, "%s: expected a positive number, got '%s'\n",
                 flag.c_str(), value);
    return false;
  }
  *out = v;
  return true;
}

}  // namespace tools
}  // namespace blink
