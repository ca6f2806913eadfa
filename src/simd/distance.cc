// Runtime-dispatched similarity kernels.
//
// The kernel bodies live in kernels.inc, compiled once per backend with
// per-file -march flags (kernels_scalar.cc / kernels_avx2.cc /
// kernels_avx512.cc). This TU holds the portable reference kernels and the
// dispatcher: cpuid picks the widest table the host supports, and the
// BLINK_SIMD environment variable (scalar|avx2|avx512) can force a narrower
// one for testing and ablations.

#include "simd/distance.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "quant/packing.h"
#include "simd/backends.h"

namespace blink::simd {

// ---------------------------------------------------------------------------
// Scalar reference kernels (ground truth for tests; shared by the scalar
// backend and the U4 fallbacks of narrower SIMD backends).
// ---------------------------------------------------------------------------
namespace ref {

float L2Sqr(const float* a, const float* b, size_t d) {
  float acc = 0.0f;
  for (size_t j = 0; j < d; ++j) {
    const float diff = a[j] - b[j];
    acc += diff * diff;
  }
  return acc;
}

float IpDist(const float* a, const float* b, size_t d) {
  float acc = 0.0f;
  for (size_t j = 0; j < d; ++j) acc += a[j] * b[j];
  return -acc;
}

float L2SqrF16(const float* q, const Float16* v, size_t d) {
  float acc = 0.0f;
  for (size_t j = 0; j < d; ++j) {
    const float diff = q[j] - static_cast<float>(v[j]);
    acc += diff * diff;
  }
  return acc;
}

float IpDistF16(const float* q, const Float16* v, size_t d) {
  float acc = 0.0f;
  for (size_t j = 0; j < d; ++j) acc += q[j] * static_cast<float>(v[j]);
  return -acc;
}

float L2SqrU8(const float* q, const uint8_t* codes, float delta, float lower,
              size_t d) {
  float acc = 0.0f;
  for (size_t j = 0; j < d; ++j) {
    const float diff = q[j] - (delta * static_cast<float>(codes[j]) + lower);
    acc += diff * diff;
  }
  return acc;
}

float IpDistU8(const float* q, const uint8_t* codes, float delta, float lower,
               size_t d) {
  float acc = 0.0f;
  for (size_t j = 0; j < d; ++j) {
    acc += q[j] * (delta * static_cast<float>(codes[j]) + lower);
  }
  return -acc;
}

float L2SqrU4(const float* q, const uint8_t* codes, float delta, float lower,
              size_t d) {
  float acc = 0.0f;
  for (size_t j = 0; j < d; ++j) {
    const uint32_t c = UnpackCode(codes, j, 4);
    const float diff = q[j] - (delta * static_cast<float>(c) + lower);
    acc += diff * diff;
  }
  return acc;
}

float IpDistU4(const float* q, const uint8_t* codes, float delta, float lower,
               size_t d) {
  float acc = 0.0f;
  for (size_t j = 0; j < d; ++j) {
    const uint32_t c = UnpackCode(codes, j, 4);
    acc += q[j] * (delta * static_cast<float>(c) + lower);
  }
  return -acc;
}

}  // namespace ref

// ---------------------------------------------------------------------------
// Backend selection.
// ---------------------------------------------------------------------------
namespace {

// Each host probe is compiled only where a kernel TU can use it, so the
// sanitizer builds (scalar kernels only) carry no unused functions.
#if defined(BLINK_HAVE_AVX2_TU) || defined(BLINK_HAVE_AVX512_TU)
bool HostHasAvx2() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("f16c");
#else
  return false;
#endif
}
#endif

#if defined(BLINK_HAVE_AVX512_TU)
bool HostHasAvx512() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512dq");
#else
  return false;
#endif
}
#endif

const KernelTable& SelectKernels() {
  const char* force = std::getenv("BLINK_SIMD");
  if (force != nullptr && *force == '\0') force = nullptr;
  if (force != nullptr && std::strcmp(force, "scalar") != 0 &&
      std::strcmp(force, "avx2") != 0 && std::strcmp(force, "avx512") != 0) {
    std::fprintf(stderr,
                 "blink: ignoring unknown BLINK_SIMD=\"%s\" "
                 "(expected scalar|avx2|avx512); auto-selecting\n",
                 force);
    force = nullptr;
  }
#if defined(BLINK_HAVE_AVX512_TU)
  if (HostHasAvx512() && HostHasAvx2() &&
      (force == nullptr || std::strcmp(force, "avx512") == 0)) {
    return Avx512Kernels();
  }
#endif
#if defined(BLINK_HAVE_AVX2_TU)
  if (HostHasAvx2() &&
      (force == nullptr || std::strcmp(force, "avx2") == 0 ||
       std::strcmp(force, "avx512") == 0)) {
    return Avx2Kernels();
  }
#endif
  (void)force;
  return ScalarKernels();
}

}  // namespace

const KernelTable& ActiveKernels() {
  static const KernelTable& table = SelectKernels();
  return table;
}

const char* BackendName() { return ActiveKernels().name; }

// ---------------------------------------------------------------------------
// Public entry points: forward through the selected table.
// ---------------------------------------------------------------------------
float L2Sqr(const float* a, const float* b, size_t d) {
  return ActiveKernels().l2_f32(a, b, d);
}
float IpDist(const float* a, const float* b, size_t d) {
  return ActiveKernels().ip_f32(a, b, d);
}
float L2SqrF16(const float* q, const Float16* v, size_t d) {
  return ActiveKernels().l2_f16(q, v, d);
}
float IpDistF16(const float* q, const Float16* v, size_t d) {
  return ActiveKernels().ip_f16(q, v, d);
}
float L2SqrU8(const float* q, const uint8_t* codes, float delta, float lower,
              size_t d) {
  return ActiveKernels().l2_u8(q, codes, delta, lower, d);
}
float IpDistU8(const float* q, const uint8_t* codes, float delta, float lower,
               size_t d) {
  return ActiveKernels().ip_u8(q, codes, delta, lower, d);
}
float L2SqrU4(const float* q, const uint8_t* codes, float delta, float lower,
              size_t d) {
  return ActiveKernels().l2_u4(q, codes, delta, lower, d);
}
float IpDistU4(const float* q, const uint8_t* codes, float delta, float lower,
               size_t d) {
  return ActiveKernels().ip_u4(q, codes, delta, lower, d);
}

float L2SqrU8Unfused(const float* q, const uint8_t* codes, float delta,
                     float lower, size_t d, float* scratch) {
  for (size_t j = 0; j < d; ++j) {
    scratch[j] = delta * static_cast<float>(codes[j]) + lower;
  }
  return L2Sqr(q, scratch, d);
}

// ---------------------------------------------------------------------------
// Static-dimensionality dispatch (BLINK_STATIC_DIMS in backends.h; the
// per-backend getters in kernels.inc switch over the same list).
// ---------------------------------------------------------------------------
bool HasStaticDim(size_t d) {
  switch (d) {
#define CASE(D) case D:
    BLINK_STATIC_DIMS(CASE)
#undef CASE
    return true;
    default:
      return false;
  }
}

DistF32Fn GetL2F32(size_t d) { return ActiveKernels().get_l2_f32(d); }
DistF32Fn GetIpF32(size_t d) { return ActiveKernels().get_ip_f32(d); }
DistF16Fn GetL2F16(size_t d) { return ActiveKernels().get_l2_f16(d); }
DistF16Fn GetIpF16(size_t d) { return ActiveKernels().get_ip_f16(d); }
DistU8Fn GetL2U8(size_t d) { return ActiveKernels().get_l2_u8(d); }
DistU8Fn GetIpU8(size_t d) { return ActiveKernels().get_ip_u8(d); }
DistU4Fn GetL2U4(size_t d) { return ActiveKernels().get_l2_u4(d); }
DistU4Fn GetIpU4(size_t d) { return ActiveKernels().get_ip_u4(d); }

DistF32Fn GetL2F32Dynamic() { return ActiveKernels().l2_f32; }
DistU8Fn GetL2U8Dynamic() { return ActiveKernels().l2_u8; }
DistU4Fn GetL2U4Dynamic() { return ActiveKernels().l2_u4; }
DistF16Fn GetL2F16Dynamic() { return ActiveKernels().l2_f16; }

}  // namespace blink::simd
