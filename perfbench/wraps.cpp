// Timing shims for the traced binary. The link passes --wrap=<symbol> for
// each layer entry point below (CMakeLists.txt), so every call into it from
// another translation unit lands in __wrap_<symbol>, which opens a span and
// forwards to the original, __real_<symbol>. Calls a library makes inside
// its own translation unit are not redirected, which keeps the spans at the
// public boundary of each layer.
//
// A member function is called as a free function whose first argument is
// `this` (Itanium C++ ABI, the ABI of every toolchain this builds with), so
// each shim declares that signature and binds it to the symbol with an asm
// label.

#include "control/pure_pursuit.hpp"
#include "core/particle_filter.hpp"
#include "sensor/lidar_sim.hpp"
#include "spans.hpp"
#include "vehicle/sensors.hpp"
#include "vehicle/vehicle_sim.hpp"

using perfbench::Layer;
using perfbench::Span;

#define PERFBENCH_SYMBOL(prefix, mangled) __asm__(#prefix #mangled)

void real_vehicle_step(srl::VehicleSim* self, const srl::DriveCommand& cmd,
                       double dt)
    PERFBENCH_SYMBOL(__real_, _ZN3srl10VehicleSim4stepERKNS_12DriveCommandEd);
void wrap_vehicle_step(srl::VehicleSim* self, const srl::DriveCommand& cmd,
                       double dt)
    PERFBENCH_SYMBOL(__wrap_, _ZN3srl10VehicleSim4stepERKNS_12DriveCommandEd);
void wrap_vehicle_step(srl::VehicleSim* self, const srl::DriveCommand& cmd,
                       double dt) {
  Span span{Layer::kVehicleStep};
  real_vehicle_step(self, cmd, dt);
}

srl::OdometryDelta real_odometry_measure(const srl::WheelOdometrySensor* self,
                                         const srl::VehicleState& state,
                                         double dt, srl::Rng& rng)
    PERFBENCH_SYMBOL(
        __real_,
        _ZNK3srl19WheelOdometrySensor7measureERKNS_12VehicleStateEdRNS_3RngE);
srl::OdometryDelta wrap_odometry_measure(const srl::WheelOdometrySensor* self,
                                         const srl::VehicleState& state,
                                         double dt, srl::Rng& rng)
    PERFBENCH_SYMBOL(
        __wrap_,
        _ZNK3srl19WheelOdometrySensor7measureERKNS_12VehicleStateEdRNS_3RngE);
srl::OdometryDelta wrap_odometry_measure(const srl::WheelOdometrySensor* self,
                                         const srl::VehicleState& state,
                                         double dt, srl::Rng& rng) {
  Span span{Layer::kOdometry};
  return real_odometry_measure(self, state, dt, rng);
}

srl::LaserScan real_lidar_scan(const srl::LidarSim* self,
                               const srl::Pose2& body,
                               const srl::Twist2& twist, double t,
                               srl::Rng& rng)
    PERFBENCH_SYMBOL(__real_,
                     _ZNK3srl8LidarSim4scanERKNS_5Pose2ERKNS_6Twist2EdRNS_3RngE);
srl::LaserScan wrap_lidar_scan(const srl::LidarSim* self,
                               const srl::Pose2& body,
                               const srl::Twist2& twist, double t,
                               srl::Rng& rng)
    PERFBENCH_SYMBOL(__wrap_,
                     _ZNK3srl8LidarSim4scanERKNS_5Pose2ERKNS_6Twist2EdRNS_3RngE);
srl::LaserScan wrap_lidar_scan(const srl::LidarSim* self,
                               const srl::Pose2& body,
                               const srl::Twist2& twist, double t,
                               srl::Rng& rng) {
  Span span{Layer::kLidarScan};
  return real_lidar_scan(self, body, twist, t, rng);
}

srl::DriveCommand real_pursuit_control(const srl::PurePursuit* self,
                                       const srl::Pose2& believed_pose,
                                       double believed_speed,
                                       const srl::Raceline& line,
                                       const srl::SpeedProfile& profile)
    PERFBENCH_SYMBOL(
        __real_,
        _ZNK3srl11PurePursuit7controlERKNS_5Pose2EdRKNS_8RacelineERKNS_12SpeedProfileE);
srl::DriveCommand wrap_pursuit_control(const srl::PurePursuit* self,
                                       const srl::Pose2& believed_pose,
                                       double believed_speed,
                                       const srl::Raceline& line,
                                       const srl::SpeedProfile& profile)
    PERFBENCH_SYMBOL(
        __wrap_,
        _ZNK3srl11PurePursuit7controlERKNS_5Pose2EdRKNS_8RacelineERKNS_12SpeedProfileE);
srl::DriveCommand wrap_pursuit_control(const srl::PurePursuit* self,
                                       const srl::Pose2& believed_pose,
                                       double believed_speed,
                                       const srl::Raceline& line,
                                       const srl::SpeedProfile& profile) {
  Span span{Layer::kPursuit};
  return real_pursuit_control(self, believed_pose, believed_speed, line,
                              profile);
}

void real_pf_predict(srl::ParticleFilter* self, const srl::OdometryDelta& odom)
    PERFBENCH_SYMBOL(__real_, _ZN3srl14ParticleFilter7predictERKNS_13OdometryDeltaE);
void wrap_pf_predict(srl::ParticleFilter* self, const srl::OdometryDelta& odom)
    PERFBENCH_SYMBOL(__wrap_, _ZN3srl14ParticleFilter7predictERKNS_13OdometryDeltaE);
void wrap_pf_predict(srl::ParticleFilter* self,
                     const srl::OdometryDelta& odom) {
  Span span{Layer::kPredict};
  real_pf_predict(self, odom);
}

void real_pf_correct(srl::ParticleFilter* self, const srl::LaserScan& scan)
    PERFBENCH_SYMBOL(__real_, _ZN3srl14ParticleFilter7correctERKNS_9LaserScanE);
void wrap_pf_correct(srl::ParticleFilter* self, const srl::LaserScan& scan)
    PERFBENCH_SYMBOL(__wrap_, _ZN3srl14ParticleFilter7correctERKNS_9LaserScanE);
void wrap_pf_correct(srl::ParticleFilter* self, const srl::LaserScan& scan) {
  if (perfbench::active_recorder != nullptr) {
    // Read before the call: correct() scores the cloud it is given.
    perfbench::active_recorder->count_range_queries(
        static_cast<std::uint64_t>(self->current_particles()) *
        static_cast<std::uint64_t>(self->active_beams()));
  }
  Span span{Layer::kCorrect};
  real_pf_correct(self, scan);
}

srl::Pose2 real_pf_estimate(const srl::ParticleFilter* self)
    PERFBENCH_SYMBOL(__real_, _ZNK3srl14ParticleFilter8estimateEv);
srl::Pose2 wrap_pf_estimate(const srl::ParticleFilter* self)
    PERFBENCH_SYMBOL(__wrap_, _ZNK3srl14ParticleFilter8estimateEv);
srl::Pose2 wrap_pf_estimate(const srl::ParticleFilter* self) {
  Span span{Layer::kEstimate};
  return real_pf_estimate(self);
}
