#include "fault/pipeline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "core/synpf.hpp"
#include "eval/fault_replay.hpp"
#include "fault/faulted_localizer.hpp"
#include "fault/injector.hpp"
#include "replay_fixture.hpp"

namespace srl {
namespace {

/// One short clean drive on the oval, recorded once for every test here.
class FaultTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    track_ = std::make_unique<Track>(replay_oval());
    trace_ = std::make_unique<SensorTrace>(
        record_drive(*track_, oval_lap(12.0)));
    ASSERT_FALSE(trace_->scans().empty());
  }
  static void TearDownTestSuite() {
    trace_.reset();
    track_.reset();
  }

  static std::unique_ptr<Track> track_;
  static std::unique_ptr<SensorTrace> trace_;
};

std::unique_ptr<Track> FaultTest::track_;
std::unique_ptr<SensorTrace> FaultTest::trace_;

fault::FaultPipeline make_stack(std::uint64_t seed) {
  fault::FaultPipeline pipeline{seed, LidarConfig{}};
  EXPECT_TRUE(pipeline.add("odom_slip_ramp", 0.7));
  EXPECT_TRUE(pipeline.add("lidar_dropout", 0.5));
  return pipeline;
}

TEST(FaultProfile, EnvelopeShapesSeverity) {
  fault::FaultProfile ramp{0.8, 2.0, 4.0, -1.0};
  EXPECT_DOUBLE_EQ(ramp.envelope(0.0), 0.0);    // before t_start
  EXPECT_DOUBLE_EQ(ramp.envelope(4.0), 0.4);    // mid-ramp
  EXPECT_DOUBLE_EQ(ramp.envelope(6.0), 0.8);    // ramp finished
  EXPECT_DOUBLE_EQ(ramp.envelope(100.0), 0.8);  // no duration: forever

  fault::FaultProfile window{1.0, 5.0, 0.0, 2.0};
  EXPECT_DOUBLE_EQ(window.envelope(4.999), 0.0);
  EXPECT_DOUBLE_EQ(window.envelope(5.0), 1.0);  // step, no ramp
  EXPECT_DOUBLE_EQ(window.envelope(7.0), 1.0);
  EXPECT_DOUBLE_EQ(window.envelope(7.001), 0.0);  // window closed
}

TEST(FaultFactory, KnownNamesRoundTrip) {
  for (const std::string& name : fault::known_faults()) {
    const auto injector = fault::make_injector(name, 0.5);
    ASSERT_NE(injector, nullptr) << name;
  }
  EXPECT_EQ(fault::make_injector("not_a_fault", 0.5), nullptr);

  fault::FaultPipeline pipeline;
  EXPECT_FALSE(pipeline.add("not_a_fault", 0.5));
  EXPECT_TRUE(pipeline.empty());
  EXPECT_EQ(pipeline.describe(), "none");
  EXPECT_TRUE(pipeline.add("odom_slip_ramp", 0.5));
  EXPECT_TRUE(pipeline.add("blackout", 1.0));
  EXPECT_EQ(pipeline.describe(), "odom_slip+blackout");
}

TEST_F(FaultTest, CorruptionIsDeterministic) {
  const SensorTrace a = corrupt_trace(make_stack(42), *trace_);
  const SensorTrace b = corrupt_trace(make_stack(42), *trace_);
  EXPECT_EQ(trace_hash(a), trace_hash(b));
  // The corruption actually did something...
  EXPECT_NE(trace_hash(a), trace_hash(*trace_));
  // ...and is keyed by the seed.
  EXPECT_NE(trace_hash(a), trace_hash(corrupt_trace(make_stack(43), *trace_)));
}

TEST_F(FaultTest, TruthIsNeverCorrupted) {
  const SensorTrace corrupted = corrupt_trace(make_stack(42), *trace_);
  ASSERT_EQ(corrupted.scans().size(), trace_->scans().size());
  for (std::size_t i = 0; i < corrupted.scans().size(); ++i) {
    const Pose2& truth = trace_->scans()[i].truth;
    const Pose2& kept = corrupted.scans()[i].truth;
    EXPECT_TRUE(bitwise_equal(truth, kept)) << "scan " << i;
  }
}

TEST_F(FaultTest, SeverityZeroIsBitwiseNoOp) {
  // Every known fault at severity 0, stacked: not a single byte may move.
  fault::FaultPipeline pipeline{42, LidarConfig{}};
  for (const std::string& name : fault::known_faults()) {
    ASSERT_TRUE(pipeline.add(name, 0.0));
  }
  const SensorTrace corrupted = corrupt_trace(pipeline, *trace_);
  EXPECT_EQ(trace_hash(corrupted), trace_hash(*trace_));
}

TEST_F(FaultTest, StackingOrderIsWellDefined) {
  // noise-then-blackout wipes the noise inside the window; blackout-then-
  // noise perturbs the "no hit" returns. Different scenarios, each
  // individually reproducible.
  auto build = [](const char* first, const char* second) {
    fault::FaultPipeline pipeline{7, LidarConfig{}};
    EXPECT_TRUE(pipeline.add(first, 1.0));
    EXPECT_TRUE(pipeline.add(second, 1.0));
    return pipeline;
  };
  const std::uint64_t noise_first =
      trace_hash(corrupt_trace(build("lidar_noise", "blackout"), *trace_));
  const std::uint64_t blackout_first =
      trace_hash(corrupt_trace(build("blackout", "lidar_noise"), *trace_));
  EXPECT_EQ(noise_first,
            trace_hash(corrupt_trace(build("lidar_noise", "blackout"), *trace_)));
  EXPECT_EQ(blackout_first,
            trace_hash(corrupt_trace(build("blackout", "lidar_noise"), *trace_)));
  EXPECT_NE(noise_first, blackout_first);
}

// ---------------------------------------------------------------------------
// Envelope algebra — property-based severity/shape checks
// ---------------------------------------------------------------------------

/// Aggregate corruption magnitude: total absolute change the pipeline made
/// to the stream, summed over every odometry component, every beam, and
/// every scan timestamp. Zero iff the corruption was a bitwise no-op.
double corruption_magnitude(const SensorTrace& clean, const SensorTrace& bad) {
  EXPECT_EQ(clean.odometry().size(), bad.odometry().size());
  EXPECT_EQ(clean.scans().size(), bad.scans().size());
  double magnitude = 0.0;
  for (std::size_t i = 0; i < clean.odometry().size(); ++i) {
    const OdometryDelta& a = clean.odometry()[i].odom;
    const OdometryDelta& b = bad.odometry()[i].odom;
    magnitude += std::abs(a.delta.x - b.delta.x) +
                 std::abs(a.delta.y - b.delta.y) +
                 std::abs(a.delta.theta - b.delta.theta) + std::abs(a.v - b.v);
  }
  for (std::size_t i = 0; i < clean.scans().size(); ++i) {
    const LaserScan& a = clean.scans()[i].scan;
    const LaserScan& b = bad.scans()[i].scan;
    magnitude += std::abs(a.t - b.t);
    EXPECT_EQ(a.ranges.size(), b.ranges.size());
    for (std::size_t j = 0; j < a.ranges.size(); ++j) {
      magnitude += std::abs(static_cast<double>(a.ranges[j]) -
                            static_cast<double>(b.ranges[j]));
    }
  }
  return magnitude;
}

TEST_F(FaultTest, CorruptionMagnitudeIsMonotoneInSeverity) {
  // The property the frontier bisector leans on: for every injector, under
  // common random numbers (draws keyed by the event, not the draw history),
  // dialing severity up never makes the stream *less* corrupted. Checked
  // for all eight canonical faults across several pipeline seeds.
  const double severities[] = {0.0, 0.25, 0.5, 1.0};
  for (const std::string& name : fault::known_faults()) {
    if (name == "none") continue;
    // compute_pressure is the one axis that corrupts *no* sensor bytes by
    // contract (it squeezes the governor's budget instead); its bitwise
    // invariance is pinned by ComputePressureLeavesStreamUntouched below.
    if (name == "compute_pressure") continue;
    for (const std::uint64_t seed : {11ULL, 42ULL, 0x7a017ULL}) {
      double previous = -1.0;
      for (const double severity : severities) {
        fault::FaultPipeline pipeline{seed, LidarConfig{}};
        ASSERT_TRUE(pipeline.add(name, severity));
        const double magnitude =
            corruption_magnitude(*trace_, corrupt_trace(pipeline, *trace_));
        EXPECT_GE(magnitude, previous)
            << name << " seed=" << seed << " severity=" << severity;
        previous = magnitude;
      }
      // Severity 0 is exactly zero; full severity corrupts for real.
      EXPECT_GT(previous, 0.0) << name << " seed=" << seed;
    }
  }
}

TEST_F(FaultTest, ComputePressureLeavesStreamUntouched) {
  // The 9th axis's defining property: at ANY severity the corrupted trace
  // is bitwise identical to the clean one. compute_pressure acts on the
  // governor's latency budget (polled through FaultPipeline::stage()),
  // never on the sensor bytes — so trace fingerprints are stable across
  // the whole severity range, and severity 0 is trivially a no-op.
  for (const double severity : {0.0, 0.5, 1.0}) {
    fault::FaultPipeline pipeline{0x7a017ULL, LidarConfig{}};
    ASSERT_TRUE(pipeline.add("compute_pressure", severity));
    EXPECT_EQ(trace_hash(corrupt_trace(pipeline, *trace_)),
              trace_hash(*trace_))
        << "severity=" << severity;
  }
}

TEST_F(FaultTest, ProfileFactoryMatchesSeverityOnlyFactory) {
  // The profile overload with each fault's canonical envelope must be the
  // same corruption as the severity-only factory — one vocabulary, two
  // spellings.
  auto canonical_profile = [](const std::string& name, double severity) {
    if (name == "odom_slip_ramp")
      return fault::FaultProfile{severity, 0.0, 10.0, -1.0};
    if (name == "blackout")
      return fault::FaultProfile{severity > 0.0 ? 1.0 : 0.0, 5.0, 0.0,
                                 2.0 * severity};
    if (name == "compute_pressure")
      return fault::FaultProfile{severity, 2.0, 6.0, -1.0};
    return fault::FaultProfile{severity, 0.0, 0.0, -1.0};
  };
  for (const std::string& name : fault::known_faults()) {
    fault::FaultPipeline by_severity{42, LidarConfig{}};
    ASSERT_TRUE(by_severity.add(name, 0.7));
    fault::FaultPipeline by_profile{42, LidarConfig{}};
    auto injector = fault::make_injector(name, canonical_profile(name, 0.7));
    ASSERT_NE(injector, nullptr) << name;
    by_profile.add(std::move(injector));
    EXPECT_EQ(trace_hash(corrupt_trace(by_severity, *trace_)),
              trace_hash(corrupt_trace(by_profile, *trace_)))
        << name;
  }
  EXPECT_EQ(fault::make_injector("not_a_fault", fault::FaultProfile{}),
            nullptr);
}

TEST_F(FaultTest, ZeroWidthWindowTouchesNothing) {
  // duration == 0: the envelope is non-zero only at t == t_start exactly.
  // No recorded event lands on that measure-zero instant, so the corruption
  // must be a bitwise no-op — the frontier's duration-bisected faults
  // (blackout) collapse to clean runs as the window shrinks to nothing.
  for (const std::string& name : fault::known_faults()) {
    if (name == "none") continue;
    fault::FaultPipeline pipeline{42, LidarConfig{}};
    auto injector = fault::make_injector(
        name, fault::FaultProfile{1.0, 0.12345, 0.0, 0.0});
    ASSERT_NE(injector, nullptr) << name;
    pipeline.add(std::move(injector));
    EXPECT_EQ(trace_hash(corrupt_trace(pipeline, *trace_)),
              trace_hash(*trace_))
        << name;
  }
  // The envelope itself is still well-defined at the instant.
  const fault::FaultProfile instant{1.0, 2.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(instant.envelope(2.0), 1.0);
  EXPECT_DOUBLE_EQ(instant.envelope(1.999), 0.0);
  EXPECT_DOUBLE_EQ(instant.envelope(2.001), 0.0);
}

TEST_F(FaultTest, RampLongerThanRunStaysPartial) {
  // A ramp far longer than the recorded stream: the envelope never reaches
  // its plateau, so the corruption is strictly weaker than the step version
  // of the same fault — but still deterministic and non-trivial.
  const double run_length = trace_->duration();
  ASSERT_GT(run_length, 0.0);
  const fault::FaultProfile slow{1.0, 0.0, 10.0 * run_length, -1.0};
  EXPECT_LT(slow.envelope(run_length), 0.11);
  EXPECT_GT(slow.envelope(run_length), 0.0);

  fault::FaultPipeline ramped{42, LidarConfig{}};
  ramped.add(fault::make_injector("odom_scale", slow));
  fault::FaultPipeline step{42, LidarConfig{}};
  step.add(fault::make_injector("odom_scale",
                                fault::FaultProfile{1.0, 0.0, 0.0, -1.0}));
  const double partial =
      corruption_magnitude(*trace_, corrupt_trace(ramped, *trace_));
  const double full =
      corruption_magnitude(*trace_, corrupt_trace(step, *trace_));
  EXPECT_GT(partial, 0.0);
  EXPECT_LT(partial, full);
  // Same pipeline, same trace: the partial ramp replays to the same bytes.
  fault::FaultPipeline again{42, LidarConfig{}};
  again.add(fault::make_injector("odom_scale", slow));
  EXPECT_EQ(trace_hash(corrupt_trace(ramped, *trace_)),
            trace_hash(corrupt_trace(again, *trace_)));
}

TEST_F(FaultTest, WindowBoundsCorruptionToTheWindow) {
  // Events outside [t_start, t_start + duration] are bitwise untouched;
  // at least something inside the window moves.
  const double run_length = trace_->duration();
  const double t_start = run_length * 0.3;
  const double duration = run_length * 0.3;
  fault::FaultPipeline pipeline{42, LidarConfig{}};
  pipeline.add(fault::make_injector(
      "lidar_noise", fault::FaultProfile{1.0, t_start, 0.0, duration}));
  const SensorTrace corrupted = corrupt_trace(pipeline, *trace_);

  const double t0 = trace_->scans().front().scan.t;
  bool touched_inside = false;
  for (std::size_t i = 0; i < trace_->scans().size(); ++i) {
    const LaserScan& clean = trace_->scans()[i].scan;
    const LaserScan& bad = corrupted.scans()[i].scan;
    const double t = clean.t - t0;  // stream time, as the pipeline sees it
    bool identical = clean.ranges.size() == bad.ranges.size();
    for (std::size_t j = 0; identical && j < clean.ranges.size(); ++j) {
      identical = std::memcmp(&clean.ranges[j], &bad.ranges[j],
                              sizeof(float)) == 0;
    }
    if (t < t_start || t > t_start + duration) {
      EXPECT_TRUE(identical) << "scan " << i << " at stream t=" << t
                             << " is outside the fault window";
    } else if (!identical) {
      touched_inside = true;
    }
  }
  EXPECT_TRUE(touched_inside);
}

TEST_F(FaultTest, FaultedLocalizerClosedLoopIsDeterministic) {
  auto run_once = [&] {
    ExperimentConfig cfg;
    cfg.laps = 1;
    cfg.max_sim_time = 8.0;
    cfg.profile.scale = 0.5;
    auto map = std::make_shared<const OccupancyGrid>(track_->grid);
    SynPfConfig pf_cfg;
    pf_cfg.filter.n_particles = 300;
    pf_cfg.filter.n_threads = 1;
    SynPf inner{pf_cfg, map, cfg.lidar};
    fault::FaultPipeline pipeline{42, cfg.lidar};
    pipeline.add("odom_slip_ramp", 0.8);
    fault::FaultedLocalizer faulted{inner, pipeline};
    EXPECT_EQ(faulted.name(), inner.name() + "+odom_slip");
    ExperimentRunner runner{*track_, cfg};
    return runner.run(faulted);
  };
  const ExperimentResult a = run_once();
  const ExperimentResult b = run_once();
  EXPECT_TRUE(bitwise_equal(a.lateral_mean_cm, b.lateral_mean_cm));
  EXPECT_TRUE(bitwise_equal(a.pose_rmse_m, b.pose_rmse_m));
  EXPECT_TRUE(bitwise_equal(a.scan_alignment, b.scan_alignment));
  EXPECT_EQ(a.crashed, b.crashed);
}

}  // namespace
}  // namespace srl
