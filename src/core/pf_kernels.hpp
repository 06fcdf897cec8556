#pragma once

/// \file pf_kernels.hpp
/// \brief Batched weight-stage kernels for the particle filter.
///
/// The sensor update's weight stage evaluates, for every particle i,
///
///     log_w[i] = sum_j log_table[bin(measured_j) * dim + bin(expected_ij)]
///
/// over the scored beams j in ascending order. Everything that depends
/// only on the measured scan — which beams are scored, each beam's
/// measured-bin row offset, the table pointer and bin scale — is hoisted
/// into a ScanContext built once per update (it used to be re-derived
/// per particle). The kernels then run either as a portable scalar loop
/// or as an AVX2 path scoring four particles per iteration.
///
/// Bitwise contract: both kernels perform, per particle, the *same*
/// operations in the *same* order — bin arithmetic `trunc(double(e) *
/// inv_res + 0.5)` clamped to [0, dim), additions in ascending beam
/// order from +0.0. The AVX2 path vectorizes across particles (lanes
/// never mix), uses unfused multiply/add intrinsics (the kernels are
/// compiled without FMA, so no contraction can occur), and its
/// `_mm256_cvttpd_epi32` truncation matches the scalar `static_cast
/// <int>` (both are x86 cvttpd; out-of-range lanes saturate to INT_MIN
/// and clamp to bin 0 either way). tests/test_simd.cpp and the
/// `Scalar`/`Avx2` variants of tests/test_replay_invariance.cpp hold the two
/// paths bit-equal.

#include <cstdint>
#include <span>

#include "common/simd.hpp"
#include "sensor/beam_model.hpp"
#include "sensor/lidar.hpp"

namespace srl::pf_kernels {

/// Per-update context for the weight kernels: the scan-dependent half of
/// the table lookup, computed once instead of n_particles times.
struct ScanContext {
  /// Column (beam slot j in the expected-range matrix) of each scored
  /// beam, ascending. Beams whose index falls outside the measured scan
  /// are dropped here, exactly like the old per-particle `continue`.
  simd::AlignedVector<std::int32_t> columns;
  /// Row offset `range_bin(measured) * dim` of each scored beam.
  simd::AlignedVector<std::int32_t> row_offsets;
  const double* log_table{nullptr};
  double inv_resolution{0.0};
  std::int32_t table_dim{0};
  /// True when columns == {0, 1, ..., m-1} (no beam fell outside the
  /// scan): each particle's scored expected ranges are contiguous, so the
  /// AVX2 kernel can swap its strided gathers for plain loads + a 4x4
  /// transpose — same values into the same lanes, just cheaper.
  bool dense_columns{false};

  std::size_t scored_beams() const { return columns.size(); }

  /// Rebuild for a new scan. Reuses capacity; O(beams).
  void build(const BeamModel& model, const LaserScan& scan,
             std::span<const int> beam_indices);
};

/// Scalar reference: out[i] = summed log-likelihood of particle i's
/// expected-range row, for i in [begin, end). `expected` is the n x k
/// row-major matrix; `k` its row stride.
void accumulate_log_weights_scalar(const ScanContext& ctx,
                                   const float* expected, std::size_t k,
                                   std::size_t begin, std::size_t end,
                                   double* out);

#if defined(SRL_SIMD_X86_AVX2)
/// AVX2 path: four particles per iteration, bit-identical to the scalar
/// reference per lane. Call only when simd::cpu_has_avx2().
void accumulate_log_weights_avx2(const ScanContext& ctx,
                                 const float* expected, std::size_t k,
                                 std::size_t begin, std::size_t end,
                                 double* out);
#endif

/// Dispatch on `backend` (degrades to scalar where AVX2 is unavailable).
/// The caller hoists `simd::active()` out of its parallel region so every
/// lane of one update runs the same kernel.
void accumulate_log_weights(simd::Backend backend, const ScanContext& ctx,
                            const float* expected, std::size_t k,
                            std::size_t begin, std::size_t end, double* out);

}  // namespace srl::pf_kernels
