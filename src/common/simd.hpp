#pragma once

/// \file simd.hpp
/// \brief Runtime SIMD dispatch and 64-byte-aligned storage for the
/// vectorized particle-filter stages.
///
/// The repo's headline guarantee is bitwise determinism, so the dispatch
/// contract here is stricter than the usual "fast path wins": every
/// vector kernel must produce *bit-identical per-lane results* to its
/// scalar reference (same operation order within a lane, no FMA
/// contraction, no reassociation). Backend selection therefore only
/// changes throughput, never output — the `Scalar`/`Avx2` variants of
/// `tests/test_replay_invariance.cpp` and `tests/test_simd.cpp` enforce this.
///
/// Selection order:
///   1. `force()` (test / tool seam) if set,
///   2. the `SRL_SIMD` environment variable (`scalar` | `avx2` | `auto`),
///   3. CPU capability probe (`__builtin_cpu_supports("avx2")`).
/// Requests for AVX2 on hardware without it degrade to scalar — which is
/// safe precisely because both paths emit the same bits.

#include <cstddef>
#include <new>
#include <vector>

// Vector kernels are only compiled for x86-64 GCC/Clang, where
// target("avx2") function multiversioning and the immintrin gather
// intrinsics are available. Other hosts build the scalar path only.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SRL_SIMD_X86_AVX2 1
#endif

namespace srl::simd {

enum class Backend {
  kScalar,  ///< portable reference path; always available
  kAvx2,    ///< 4-wide double / gather path; x86-64 with AVX2 only
};

/// Human-readable backend name ("scalar" / "avx2") for logs and JSON.
const char* name(Backend backend);

/// True when the host CPU (and this build) can execute the AVX2 kernels.
bool cpu_has_avx2();

/// The backend every dispatching kernel uses right now. Resolved once
/// from `SRL_SIMD` + CPU probe on first use, unless pinned via force().
Backend active();

/// Pin the backend, overriding SRL_SIMD (clamped to CPU support at the
/// dispatch sites). Test/tool seam — call from a single thread while no
/// filter update is in flight; the setting is process-global.
void force(Backend backend);

/// Drop a force() pin and fall back to SRL_SIMD / CPU resolution.
void reset();

/// Minimal allocator pinning slab storage to 64-byte boundaries so
/// aligned vector loads/stores never straddle cache lines. Stateless;
/// all instances compare equal.
template <typename T>
struct AlignedAlloc {
  using value_type = T;
  static constexpr std::size_t kAlignment = 64;

  AlignedAlloc() noexcept = default;
  template <typename U>
  AlignedAlloc(const AlignedAlloc<U>& /*other*/) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kAlignment}));
  }
  void deallocate(T* p, std::size_t /*n*/) noexcept {
    ::operator delete(p, std::align_val_t{kAlignment});
  }

  template <typename U>
  bool operator==(const AlignedAlloc<U>& /*other*/) const noexcept {
    return true;
  }
};

/// Contiguous storage whose data() is always 64-byte aligned.
template <typename T>
using AlignedVector = std::vector<T, AlignedAlloc<T>>;

}  // namespace srl::simd
