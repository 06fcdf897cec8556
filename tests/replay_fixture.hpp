#pragma once

/// \file replay_fixture.hpp
/// \brief What every replay suite shares: the oval drives it records and the
/// one bitwise comparer it judges replays with.
///
/// "Bitwise" means the bytes of every double: stricter than `==`, which
/// equates -0.0 with 0.0 and never equates two NaNs. Wall-clock fields of a
/// replay (latency) are excluded by design; everything estimate-derived is in.

#include <gtest/gtest.h>

#include <cstring>

#include "core/particle_filter.hpp"
#include "eval/dead_reckoning.hpp"
#include "eval/experiment.hpp"
#include "eval/trace.hpp"
#include "gridmap/track_generator.hpp"

namespace srl {

inline bool bitwise_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

inline bool bitwise_equal(const Pose2& a, const Pose2& b) {
  return bitwise_equal(a.x, b.x) && bitwise_equal(a.y, b.y) &&
         bitwise_equal(a.theta, b.theta);
}

/// The oval every replay suite drives: 8 m straights, 2.5 m corner radius.
inline Track replay_oval() { return TrackGenerator::oval(8.0, 2.5); }

/// One lap at half the speed profile, cut at `max_sim_time` seconds.
inline ExperimentConfig oval_lap(double max_sim_time) {
  ExperimentConfig cfg;
  cfg.laps = 1;
  cfg.max_sim_time = max_sim_time;
  cfg.profile.scale = 0.5;
  return cfg;
}

/// The same drive with the car kidnapped a quarter lap ahead at 30% of the
/// clock. The kidnap ends the lap count, so the clock decides the length.
inline ExperimentConfig kidnap_lap(double max_sim_time) {
  ExperimentConfig cfg = oval_lap(max_sim_time);
  cfg.laps = 1000000;
  ExperimentConfig::KidnapSpec kidnap;
  kidnap.t = max_sim_time * 0.3;
  kidnap.advance_frac = 0.25;
  cfg.kidnaps.push_back(kidnap);
  return cfg;
}

/// Drive `cfg` on `track` with the dead-reckoning driver and record every
/// sensor event of the run.
inline SensorTrace record_drive(const Track& track, const ExperimentConfig& cfg) {
  SensorTrace trace;
  ExperimentRunner runner{track, cfg};
  DeadReckoning driver;
  runner.run(driver, &trace);
  return trace;
}

/// The particle-filter state a replay leaves behind.
struct FilterState {
  long resamples{0};
  int particles{0};
  PoseCovariance covariance{};

  static FilterState of(const ParticleFilter& pf) {
    return {pf.resample_count(), pf.current_particles(), pf.covariance()};
  }
};

/// Every estimate, `pose_rmse_m` and `heading_rmse_rad`, bit for bit.
inline void expect_bitwise_identical(const SensorTrace::ReplayResult& a,
                                     const SensorTrace::ReplayResult& b) {
  ASSERT_EQ(a.estimates.size(), b.estimates.size());
  for (std::size_t i = 0; i < a.estimates.size(); ++i) {
    ASSERT_TRUE(bitwise_equal(a.estimates[i], b.estimates[i]))
        << "estimate " << i << " diverges";
  }
  EXPECT_TRUE(bitwise_equal(a.pose_rmse_m, b.pose_rmse_m));
  EXPECT_TRUE(bitwise_equal(a.heading_rmse_rad, b.heading_rmse_rad));
}

/// Resample count, cloud size and covariance, bit for bit.
inline void expect_bitwise_identical(const FilterState& a,
                                     const FilterState& b) {
  EXPECT_EQ(a.resamples, b.resamples);
  EXPECT_EQ(a.particles, b.particles);
  EXPECT_TRUE(bitwise_equal(a.covariance.xx, b.covariance.xx));
  EXPECT_TRUE(bitwise_equal(a.covariance.xy, b.covariance.xy));
  EXPECT_TRUE(bitwise_equal(a.covariance.yy, b.covariance.yy));
  EXPECT_TRUE(bitwise_equal(a.covariance.tt, b.covariance.tt));
}

}  // namespace srl
