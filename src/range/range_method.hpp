#pragma once

/// \file range_method.hpp
/// \brief Interface for 2-D ray-cast range queries against an occupancy grid
/// — our reproduction of the rangelibc library (Walsh & Karaman, "CDDT: Fast
/// Approximate 2D Ray Casting for Accelerated Localization", ICRA 2018).
///
/// A range query asks: standing at world (x, y) looking along world angle
/// theta, how far to the first ray-blocking cell? All methods clamp results
/// to a configured maximum range (the simulated LiDAR's max range).

#include <memory>
#include <span>
#include <string>

#include "common/contracts.hpp"
#include "common/types.hpp"
#include "gridmap/occupancy_grid.hpp"
#include "telemetry/telemetry.hpp"

namespace srl {

/// Shared precondition of every range backend: query poses must be finite.
/// Out-of-map poses are legal (they read the border as occupied and return
/// 0), but NaN/inf coordinates indicate a diverged caller — checked builds
/// flag them at the query site via `SYNPF_EXPECTS(valid_ray_pose(ray))`.
inline bool valid_ray_pose(const Pose2& ray) { return finite(ray); }

/// Abstract range-query backend. Implementations are immutable after
/// construction and safe for concurrent queries.
class RangeMethod {
 public:
  RangeMethod(std::shared_ptr<const OccupancyGrid> map, double max_range)
      : map_{std::move(map)}, max_range_{max_range} {}
  virtual ~RangeMethod() = default;

  RangeMethod(const RangeMethod&) = delete;
  RangeMethod& operator=(const RangeMethod&) = delete;

  /// Distance (meters) from (ray.x, ray.y) along ray.theta to the first
  /// blocking cell, clamped to [0, max_range]. Queries from inside a
  /// blocking cell return 0.
  virtual float range(const Pose2& ray) const = 0;

  /// Human-readable method name ("bresenham", "ray_marching", "cddt", "lut").
  virtual std::string name() const = 0;

  /// Batch query; default loops over range(). `out.size()` must equal
  /// `rays.size()`.
  virtual void ranges(std::span<const Pose2> rays, std::span<float> out) const {
    for (std::size_t i = 0; i < rays.size(); ++i) out[i] = range(rays[i]);
  }

  /// Per-particle batch: every beam shares `sensor`'s origin and looks
  /// along `sensor.theta + beam_angles[j]`. Semantically identical to
  /// calling range() beam by beam — the default does exactly that, with
  /// the exact ray construction the particle filter used to perform — but
  /// backends override it to hoist the shared per-origin work (grid
  /// lookup, occupancy test) out of the beam loop and to vectorize the
  /// per-beam tail. Overrides must stay bitwise identical to this loop.
  /// `out.size()` must equal `beam_angles.size()`.
  virtual void ranges_from(const Pose2& sensor,
                           std::span<const double> beam_angles,
                           std::span<float> out) const {
    for (std::size_t j = 0; j < beam_angles.size(); ++j) {
      out[j] = range(Pose2{sensor.x, sensor.y, sensor.theta + beam_angles[j]});
    }
  }

  double max_range() const { return max_range_; }
  const OccupancyGrid& map() const { return *map_; }
  std::shared_ptr<const OccupancyGrid> map_ptr() const { return map_; }

  /// Register this backend's query counter ("range.<name>.queries") with
  /// `registry`. Queries are timed per batch by the caller (`pf.raycast_ms`),
  /// never per particle: a clock read per fan would cost more than a LUT
  /// fan itself. Declared const because backends are logically immutable —
  /// the counter handle is the only mutable state. Attach before concurrent
  /// use; the counter itself is thread-safe.
  void attach_telemetry(telemetry::MetricsRegistry& registry) const {
    queries_ = &registry.counter("range." + name() + ".queries");
  }

 protected:
  /// Called by every backend's range() — one relaxed increment when
  /// attached, one predictable branch when not.
  void note_query() const {
    if (queries_ != nullptr) queries_->add();
  }

  /// Batched variant for ranges_from() overrides: one atomic add for the
  /// whole beam fan instead of one per beam. Counter totals stay equal to
  /// the per-query path.
  void note_queries(std::size_t n) const {
    if (queries_ != nullptr) queries_->add(n);
  }

  std::shared_ptr<const OccupancyGrid> map_;
  double max_range_;
  mutable telemetry::Counter* queries_{nullptr};
};

/// Which backend to build. `kLut` is the mode the paper uses on the GPU-less
/// NUC; `kCddt` is the Walsh & Karaman structure; `kBresenham` is the exact
/// reference; `kRayMarching` sphere-traces the Euclidean distance field.
enum class RangeMethodKind { kBresenham, kRayMarching, kCddt, kLut };

std::string to_string(RangeMethodKind kind);

/// Tuning for the approximate backends.
struct RangeMethodOptions {
  double max_range = 12.0;   ///< meters
  int cddt_theta_bins = 108; ///< angular discretization for CDDT
  int lut_theta_bins = 120;  ///< angular discretization for the LUT
  int lut_stride = 1;        ///< LUT spatial stride in cells (1 = per cell)
};

/// Build a backend of the requested kind over `map`.
std::unique_ptr<RangeMethod> make_range_method(
    RangeMethodKind kind, std::shared_ptr<const OccupancyGrid> map,
    const RangeMethodOptions& options = {});

}  // namespace srl
