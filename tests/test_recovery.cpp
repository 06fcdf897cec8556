#include "recovery/supervised_localizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/angles.hpp"
#include "core/synpf.hpp"
#include "eval/experiment.hpp"
#include "eval/trace.hpp"
#include "fault/faulted_localizer.hpp"
#include "fault/pipeline.hpp"
#include "gridmap/track_generator.hpp"
#include "range/ray_marching.hpp"
#include "recovery/divergence_detector.hpp"
#include "recovery/recovery_policy.hpp"
#include "replay_fixture.hpp"
#include "sensor/lidar_sim.hpp"
#include "telemetry/telemetry.hpp"

namespace srl {
namespace {

using recovery::DetectorInputs;
using recovery::DivergenceDetector;
using recovery::DivergenceDetectorConfig;
using recovery::HealthState;

DetectorInputs healthy_inputs() {
  DetectorInputs in;
  in.ess_fraction = 0.8;
  in.scan_alignment = 0.97;
  in.pose_jump_m = 0.02;
  in.odom_disagreement_m = 0.01;
  return in;
}

DetectorInputs bad_alignment_inputs() {
  DetectorInputs in = healthy_inputs();
  in.scan_alignment = 0.40;
  return in;
}

/// Drive a detector to DIVERGED with single-signal evidence (bounded).
void drive_to_diverged(DivergenceDetector& detector) {
  for (int i = 0; i < 50 && detector.state() != HealthState::kDiverged; ++i) {
    detector.update(bad_alignment_inputs());
  }
  ASSERT_EQ(detector.state(), HealthState::kDiverged);
}

// ---------------------------------------------------------------------------
// DivergenceDetector: hysteresis, dwells, fast path, recovery cooldown.
// ---------------------------------------------------------------------------

TEST(DivergenceDetector, StartsHealthyAndStaysHealthyOnCleanInputs) {
  DivergenceDetector detector;
  EXPECT_EQ(detector.state(), HealthState::kHealthy);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(detector.update(healthy_inputs()), HealthState::kHealthy);
  }
  EXPECT_EQ(detector.transitions().total(), 0u);
  EXPECT_EQ(detector.tripped_signals(), 0);
}

TEST(DivergenceDetector, SingleSignalWalksTheDwellLadder) {
  DivergenceDetectorConfig cfg;
  cfg.suspect_dwell = 2;
  cfg.diverged_dwell = 4;
  DivergenceDetector detector{cfg};

  // suspect_dwell updates of one tripped signal reach SUSPECT...
  EXPECT_EQ(detector.update(bad_alignment_inputs()), HealthState::kHealthy);
  EXPECT_EQ(detector.update(bad_alignment_inputs()), HealthState::kSuspect);
  // ...and diverged_dwell more reach DIVERGED, not one earlier.
  EXPECT_EQ(detector.update(bad_alignment_inputs()), HealthState::kSuspect);
  EXPECT_EQ(detector.update(bad_alignment_inputs()), HealthState::kSuspect);
  EXPECT_EQ(detector.update(bad_alignment_inputs()), HealthState::kSuspect);
  EXPECT_EQ(detector.update(bad_alignment_inputs()), HealthState::kDiverged);
  EXPECT_EQ(detector.transitions().to_suspect, 1u);
  EXPECT_EQ(detector.transitions().to_diverged, 1u);
}

TEST(DivergenceDetector, LatchHysteresisIgnoresJitterAroundTheTrip) {
  DivergenceDetectorConfig cfg;
  DivergenceDetector detector{cfg};
  // Trip the alignment latch...
  DetectorInputs in = healthy_inputs();
  in.scan_alignment = cfg.align_trip - 0.05;
  detector.update(in);
  EXPECT_EQ(detector.tripped_signals(), 1);
  // ...then jitter between trip and clear: the latch must stay tripped.
  in.scan_alignment = (cfg.align_trip + cfg.align_clear) / 2.0;
  detector.update(in);
  EXPECT_EQ(detector.tripped_signals(), 1);
  // Only crossing the clear threshold releases it.
  in.scan_alignment = cfg.align_clear + 0.02;
  detector.update(in);
  EXPECT_EQ(detector.tripped_signals(), 0);
}

TEST(DivergenceDetector, UnavailableSignalLeavesLatchUntouched) {
  DivergenceDetector detector;
  DetectorInputs in = healthy_inputs();
  in.scan_alignment = 0.40;
  detector.update(in);
  EXPECT_EQ(detector.tripped_signals(), 1);
  // A negative (= unavailable) sample must not clear the latch.
  in.scan_alignment = -1.0;
  detector.update(in);
  EXPECT_EQ(detector.tripped_signals(), 1);
}

TEST(DivergenceDetector, MultiSignalFastPathSkipsSuspectDwell) {
  DivergenceDetectorConfig cfg;
  cfg.suspect_dwell = 3;
  DivergenceDetector detector{cfg};
  DetectorInputs in = healthy_inputs();
  in.scan_alignment = 0.40;
  in.ess_fraction = 0.01;
  // Two independent witnesses: straight to SUSPECT on the first update.
  EXPECT_EQ(detector.update(in), HealthState::kSuspect);
}

TEST(DivergenceDetector, BlackoutSuspendsJudgement) {
  DivergenceDetector detector;
  detector.update(bad_alignment_inputs());
  detector.update(bad_alignment_inputs());
  ASSERT_EQ(detector.state(), HealthState::kSuspect);
  DetectorInputs blackout;
  blackout.blackout = true;
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(detector.update(blackout), HealthState::kSuspect);
  }
}

TEST(DivergenceDetector, RecoveryActionEntersRecoveringThenHealthy) {
  DivergenceDetectorConfig cfg;
  DivergenceDetector detector{cfg};
  drive_to_diverged(detector);
  detector.note_recovery_action();
  EXPECT_EQ(detector.state(), HealthState::kRecovering);
  EXPECT_EQ(detector.tripped_signals(), 0);  // the action invalidated them
  // healthy_dwell clean updates return to HEALTHY, not one earlier.
  for (int i = 0; i < cfg.healthy_dwell - 1; ++i) {
    EXPECT_EQ(detector.update(healthy_inputs()), HealthState::kRecovering);
  }
  EXPECT_EQ(detector.update(healthy_inputs()), HealthState::kHealthy);
  EXPECT_EQ(detector.transitions().to_healthy, 1u);
}

TEST(DivergenceDetector, RecoveringRelapsesWhenCooldownExpiresStillBad) {
  DivergenceDetectorConfig cfg;
  cfg.recovering_cooldown = 3;
  DivergenceDetector detector{cfg};
  drive_to_diverged(detector);
  detector.note_recovery_action();
  ASSERT_EQ(detector.state(), HealthState::kRecovering);
  // The cooldown grants grace; once it runs out with signals still bad the
  // detector relapses so the supervisor escalates.
  bool relapsed = false;
  for (int i = 0; i < 20; ++i) {
    if (detector.update(bad_alignment_inputs()) == HealthState::kDiverged) {
      relapsed = true;
      break;
    }
  }
  EXPECT_TRUE(relapsed);
  EXPECT_EQ(detector.transitions().to_diverged, 2u);
}

// ---------------------------------------------------------------------------
// RecoveryPolicy: Augmented-MCL averages and the escalation ladder.
// ---------------------------------------------------------------------------

struct PolicyFixture {
  Track track = TrackGenerator::oval(8.0, 2.5);
  std::shared_ptr<const OccupancyGrid> map =
      std::make_shared<const OccupancyGrid>(track.grid);
  LidarConfig lidar{};
  std::shared_ptr<const RangeMethod> truth =
      std::make_shared<RayMarching>(map, lidar.max_range);
  LidarSim sim{lidar, truth,
               LidarNoise{.sigma_range = 0.01, .dropout_prob = 0.0}};
  Rng rng{17};

  recovery::RecoveryPolicy make(recovery::RecoveryPolicyConfig cfg = {}) {
    return recovery::RecoveryPolicy{cfg, map, lidar, 0x7ec0};
  }
};

TEST(RecoveryPolicy, InjectionFractionTracksFastSlowRatio) {
  PolicyFixture f;
  recovery::RecoveryPolicy policy = f.make();
  // Long healthy stretch: w_fast == w_slow, fraction clamps to the minimum.
  for (int i = 0; i < 100; ++i) policy.observe_alignment(0.95);
  EXPECT_NEAR(policy.w_slow(), 0.95, 1e-6);
  EXPECT_DOUBLE_EQ(policy.injection_fraction(),
                   policy.config().min_injection_fraction);
  // Sudden quality collapse: w_fast drops ahead of w_slow.
  for (int i = 0; i < 5; ++i) policy.observe_alignment(0.10);
  EXPECT_LT(policy.w_fast(), policy.w_slow());
  const double expected =
      std::max(0.0, 1.0 - policy.w_fast() / policy.w_slow());
  EXPECT_DOUBLE_EQ(
      policy.injection_fraction(),
      std::clamp(expected, policy.config().min_injection_fraction,
                 policy.config().max_injection_fraction));
  EXPECT_GT(policy.injection_fraction(),
            policy.config().min_injection_fraction);
}

TEST(RecoveryPolicy, NegativeScoreIsIgnored) {
  PolicyFixture f;
  recovery::RecoveryPolicy policy = f.make();
  policy.observe_alignment(0.9);
  const double slow = policy.w_slow();
  policy.observe_alignment(-1.0);
  EXPECT_DOUBLE_EQ(policy.w_slow(), slow);
}

TEST(RecoveryPolicy, LadderInjectsFirstThenEscalates) {
  PolicyFixture f;
  recovery::RecoveryPolicyConfig cfg;
  cfg.escalate_after = 1;
  recovery::RecoveryPolicy policy = f.make(cfg);
  EXPECT_EQ(policy.plan_recovery(true),
            recovery::RecoveryPolicy::Action::kInject);
  EXPECT_EQ(policy.plan_recovery(true),
            recovery::RecoveryPolicy::Action::kGlobalReloc);
  // A HEALTHY interlude resets the ladder.
  policy.note_healthy();
  EXPECT_EQ(policy.plan_recovery(true),
            recovery::RecoveryPolicy::Action::kInject);
}

TEST(RecoveryPolicy, NoFilterSkipsStraightToRelocalization) {
  PolicyFixture f;
  recovery::RecoveryPolicy policy = f.make();
  EXPECT_EQ(policy.plan_recovery(false),
            recovery::RecoveryPolicy::Action::kGlobalReloc);
}

TEST(RecoveryPolicy, NoneConfigPlansNothing) {
  PolicyFixture f;
  recovery::RecoveryPolicy policy =
      f.make(recovery::RecoveryPolicyConfig::none());
  EXPECT_EQ(policy.plan_recovery(true),
            recovery::RecoveryPolicy::Action::kNone);
}

// ---------------------------------------------------------------------------
// Global relocalization. The oval is 180-degree rotationally symmetric, so
// a kidnapped pose there has an exact equal-scoring alias — relocalization
// on it is fundamentally ambiguous. These tests run on the asymmetric
// test_track, where the verified lattice search has a unique answer.
// ---------------------------------------------------------------------------

struct RelocFixture {
  Track track = TrackGenerator::test_track();
  std::shared_ptr<const OccupancyGrid> map =
      std::make_shared<const OccupancyGrid>(track.grid);
  LidarConfig lidar{};
  std::shared_ptr<const RangeMethod> caster =
      std::make_shared<RayMarching>(map, lidar.max_range);
  LidarSim sim{lidar, caster,
               LidarNoise{.sigma_range = 0.01, .dropout_prob = 0.0}};
  Rng rng{17};
  Pose2 truth;
  recovery::AlignmentProbe probe{map, lidar, 40, 0.15};

  RelocFixture() {
    ExperimentRunner runner{track, ExperimentConfig{}};
    truth = runner.start_pose();
  }

  recovery::RecoveryPolicy make() {
    return recovery::RecoveryPolicy{{}, map, lidar, 0x7ec0};
  }
};

TEST(RecoveryPolicy, GlobalRelocalizeFindsTheTruePoseFromFar) {
  RelocFixture f;
  const LaserScan scan = f.sim.scan(f.truth, 0.0, f.rng);
  recovery::RecoveryPolicy policy = f.make();
  // Current estimate hopelessly wrong: right position, heading rotated a
  // quarter turn into the wall (the corridor geometry cannot match).
  const Pose2 wrong{f.truth.x, f.truth.y,
                    normalize_angle(f.truth.theta + kPi / 2.0)};
  const std::optional<Pose2> best =
      policy.global_relocalize(scan, f.probe, wrong);
  ASSERT_TRUE(best.has_value());
  EXPECT_NEAR(best->x, f.truth.x, 0.3);
  EXPECT_NEAR(best->y, f.truth.y, 0.3);
  EXPECT_NEAR(angle_dist(best->theta, f.truth.theta), 0.0, 0.15);
}

TEST(RecoveryPolicy, GlobalRelocalizeRejectsWhenCurrentIsAlreadyRight) {
  RelocFixture f;
  const LaserScan scan = f.sim.scan(f.truth, 0.0, f.rng);
  recovery::RecoveryPolicy policy = f.make();
  // The verification gate: nothing can beat a correct estimate by the
  // accept margin, so a (false-positive) search must return nothing.
  EXPECT_FALSE(policy.global_relocalize(scan, f.probe, f.truth).has_value());
}

TEST(RecoveryPolicy, GlobalRelocalizeIsDeterministic) {
  RelocFixture f;
  const LaserScan scan = f.sim.scan(f.truth, 0.0, f.rng);
  recovery::RecoveryPolicy a = f.make();
  recovery::RecoveryPolicy b = f.make();
  const Pose2 wrong{f.truth.x, f.truth.y,
                    normalize_angle(f.truth.theta + kPi / 2.0)};
  const auto ra = a.global_relocalize(scan, f.probe, wrong);
  const auto rb = b.global_relocalize(scan, f.probe, wrong);
  ASSERT_TRUE(ra.has_value());
  ASSERT_TRUE(rb.has_value());
  EXPECT_TRUE(bitwise_equal(*ra, *rb));
}

// ---------------------------------------------------------------------------
// AlignmentProbe: scoring and blackout evidence.
// ---------------------------------------------------------------------------

TEST(AlignmentProbe, ScoresTruthHighAndMisalignedPosesLow) {
  PolicyFixture f;
  const Pose2 truth{-4.0, -2.5, 0.0};  // on the bottom straight
  const LaserScan scan = f.sim.scan(truth, 0.0, f.rng);
  recovery::AlignmentProbe probe{f.map, f.lidar, 40, 0.15};
  EXPECT_GT(probe.score(truth, scan), 0.9);
  EXPECT_LT(
      probe.score(Pose2{truth.x, truth.y, truth.theta + kPi / 2.0}, scan),
      0.6);
}

TEST(AlignmentProbe, ReturnlessScanHasNoEvidence) {
  PolicyFixture f;
  recovery::AlignmentProbe probe{f.map, f.lidar, 40, 0.15};
  LaserScan empty;
  empty.t = 0.0;
  empty.ranges.assign(static_cast<std::size_t>(f.lidar.n_beams), 0.0F);
  EXPECT_DOUBLE_EQ(probe.valid_fraction(empty), 0.0);
  EXPECT_DOUBLE_EQ(probe.score(Pose2{-4.0, -2.5, 0.0}, empty), -1.0);
}

// ---------------------------------------------------------------------------
// ParticleFilter recovery seams.
// ---------------------------------------------------------------------------

TEST(RecoverySeams, InjectUniformZeroFractionIsAStrictNoOp) {
  PolicyFixture f;
  SynPfConfig cfg;
  cfg.filter.n_particles = 200;
  cfg.range = RangeMethodKind::kCddt;
  SynPf pf{cfg, f.map, f.lidar};
  pf.initialize(Pose2{-4.0, -2.5, 0.0});
  pf.filter().set_recovery_map(f.map);
  const std::vector<Particle> before = pf.filter().particles_snapshot();
  Rng rng{99};
  pf.filter().inject_uniform(0.0, rng);
  const auto after = pf.filter().particles_snapshot();
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(before[i].pose, after[i].pose)) << i;
    EXPECT_DOUBLE_EQ(before[i].weight, after[i].weight);
  }
  // No draw happened: the RNG stream is exactly where a fresh one starts.
  Rng fresh{99};
  EXPECT_EQ(rng.uniform(), fresh.uniform());
}

TEST(RecoverySeams, InjectUniformReplacesRoughlyTheRequestedFraction) {
  PolicyFixture f;
  SynPfConfig cfg;
  cfg.filter.n_particles = 400;
  cfg.range = RangeMethodKind::kCddt;
  SynPf pf{cfg, f.map, f.lidar};
  pf.initialize(Pose2{-4.0, -2.5, 0.0});
  pf.filter().set_recovery_map(f.map);
  const std::vector<Particle> before = pf.filter().particles_snapshot();
  Rng rng{7};
  pf.filter().inject_uniform(0.5, rng);
  const auto after = pf.filter().particles_snapshot();
  int moved = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (std::hypot(after[i].pose.x - before[i].pose.x,
                   after[i].pose.y - before[i].pose.y) > 1.0) {
      ++moved;
    }
  }
  // Per-slot Bernoulli(0.5) over 400 slots (minus the rare free-space draw
  // landing near the start): expect ~200 with generous slack.
  EXPECT_GT(moved, 120);
  EXPECT_LT(moved, 280);
}

TEST(RecoverySeams, SquashScaleOneIsTheBitwiseNominalPath) {
  PolicyFixture f;
  SynPfConfig cfg;
  cfg.filter.n_particles = 300;
  cfg.range = RangeMethodKind::kCddt;
  const Pose2 start{-4.0, -2.5, 0.0};

  auto run = [&](bool touch_scale) {
    SynPf pf{cfg, f.map, f.lidar};
    pf.initialize(start);
    if (touch_scale) pf.filter().set_squash_scale(1.0);
    Rng rng{23};
    Pose2 est{};
    for (int i = 0; i < 10; ++i) {
      OdometryDelta odom;
      odom.dt = 0.025;
      pf.on_odometry(odom);
      est = pf.on_scan(f.sim.scan(start, 0.025 * i, rng));
    }
    return est;
  };
  const Pose2 a = run(false);
  const Pose2 b = run(true);
  EXPECT_TRUE(bitwise_equal(a, b));
}

// ---------------------------------------------------------------------------
// SupervisedLocalizer: pass-through, blackout fallback, composition.
// ---------------------------------------------------------------------------

/// One short closed-loop trace on the oval, recorded once per test binary.
const SensorTrace& oval_trace() {
  static const SensorTrace trace = [] {
    const Track track = TrackGenerator::oval(8.0, 2.5);
    auto map = std::make_shared<const OccupancyGrid>(track.grid);
    ExperimentConfig cfg;
    cfg.laps = 1;
    cfg.max_sim_time = 10.0;
    SynPfConfig pfc;
    pfc.filter.n_particles = 300;
    pfc.range = RangeMethodKind::kCddt;
    SynPf pf{pfc, map, cfg.lidar};
    ExperimentRunner runner{track, cfg};
    SensorTrace t;
    runner.run(pf, &t);
    return t;
  }();
  return trace;
}

TEST(SupervisedLocalizer, PoliciesOffIsABitwiseNoOp) {
  const Track track = TrackGenerator::oval(8.0, 2.5);
  auto map = std::make_shared<const OccupancyGrid>(track.grid);
  SynPfConfig cfg;
  cfg.filter.n_particles = 300;
  cfg.range = RangeMethodKind::kCddt;

  SynPf bare{cfg, map, LidarConfig{}};
  const auto rb = oval_trace().replay(bare);

  recovery::SupervisedLocalizerConfig off;
  off.policy = recovery::RecoveryPolicyConfig::none();
  SynPf inner{cfg, map, LidarConfig{}};
  recovery::SupervisedLocalizer sup{inner, off, map, LidarConfig{}};
  sup.bind_filter(&inner.filter());
  expect_bitwise_identical(rb, oval_trace().replay(sup));
}

/// Minimal scripted localizer: dead-reckons odometry from the initialized
/// pose and counts the scans it is shown.
class StubLocalizer final : public Localizer {
 public:
  void initialize(const Pose2& pose) override { pose_ = pose; }
  void on_odometry(const OdometryDelta& odom) override {
    pose_ = (pose_ * odom.delta).normalized();
  }
  Pose2 on_scan(const LaserScan&) override {
    ++scans_seen;
    return pose_;
  }
  Pose2 pose() const override { return pose_; }
  std::string name() const override { return "stub"; }
  double mean_scan_update_ms() const override { return 0.0; }
  double total_busy_s() const override { return 0.0; }

  int scans_seen{0};

 private:
  Pose2 pose_{};
};

TEST(SupervisedLocalizer, BlackoutEngagesFallbackAndShieldsTheFilter) {
  PolicyFixture f;
  StubLocalizer stub;
  recovery::SupervisedLocalizer sup{stub, {}, f.map, f.lidar};
  const Pose2 start{-4.0, -2.5, 0.0};
  sup.initialize(start);

  LaserScan dead;
  dead.t = 0.0;
  dead.ranges.assign(static_cast<std::size_t>(f.lidar.n_beams), 0.0F);

  // Returnless scans engage the fallback and never reach the inner
  // localizer.
  sup.on_scan(dead);
  EXPECT_TRUE(sup.blackout_engaged());
  EXPECT_EQ(stub.scans_seen, 0);

  // Odometry keeps integrating into the fallback pose.
  OdometryDelta odom;
  odom.delta = Pose2{0.5, 0.0, 0.0};
  odom.dt = 0.025;
  odom.v = 0.5 / odom.dt;
  sup.on_odometry(odom);
  EXPECT_NEAR(sup.pose().x, start.x + 0.5, 1e-9);
  EXPECT_GT(sup.blackout_drift_m(), 0.0);

  // A live scan disengages and hands judgement back to the normal path.
  const LaserScan live = f.sim.scan(sup.pose(), 1.0, f.rng);
  sup.on_scan(live);
  EXPECT_FALSE(sup.blackout_engaged());
  EXPECT_EQ(stub.scans_seen, 1);
  EXPECT_DOUBLE_EQ(sup.blackout_drift_m(), 0.0);
}

TEST(SupervisedLocalizer, ComposesWithFaultInjectionInBothOrders) {
  const Track track = TrackGenerator::oval(8.0, 2.5);
  auto map = std::make_shared<const OccupancyGrid>(track.grid);
  const LidarConfig lidar{};
  SynPfConfig cfg;
  cfg.filter.n_particles = 200;
  cfg.range = RangeMethodKind::kCddt;

  // Canonical order: supervise *outside* the faults, so corruption hits
  // the filter upstream of detection exactly as a real sensor fault would.
  {
    SynPf pf{cfg, map, lidar};
    fault::FaultPipeline pipeline{0x7a017ULL, lidar};
    ASSERT_TRUE(pipeline.add("lidar_dropout", 0.3));
    fault::FaultedLocalizer faulted{pf, pipeline};
    recovery::SupervisedLocalizer sup{faulted, {}, map, lidar};
    sup.bind_filter(&pf.filter());
    const auto r = oval_trace().replay(sup);
    EXPECT_EQ(r.estimates.size(), oval_trace().scans().size());
    EXPECT_EQ(sup.name(), "SynPF+lidar_dropout+supervised");
  }
  // Reverse order: legal, but measures faults applied to an already
  // supervised stack.
  {
    SynPf pf{cfg, map, lidar};
    recovery::SupervisedLocalizer sup{pf, {}, map, lidar};
    sup.bind_filter(&pf.filter());
    fault::FaultPipeline pipeline{0x7a017ULL, lidar};
    ASSERT_TRUE(pipeline.add("lidar_dropout", 0.3));
    fault::FaultedLocalizer faulted{sup, pipeline};
    const auto r = oval_trace().replay(faulted);
    EXPECT_EQ(r.estimates.size(), oval_trace().scans().size());
    EXPECT_EQ(faulted.name(), "SynPF+supervised+lidar_dropout");
  }
}

// ---------------------------------------------------------------------------
// Closed-loop kidnap regression: the PR's acceptance claim. Mirrors the
// bench scenario — same track, filter config, and kidnap schedule.
// ---------------------------------------------------------------------------

struct KidnapFixture {
  Track track = TrackGenerator::test_track();
  std::shared_ptr<const OccupancyGrid> map =
      std::make_shared<const OccupancyGrid>(track.grid);
  ExperimentConfig exp;
  SynPfConfig cfg;

  KidnapFixture() {
    exp.laps = 1000000;  // run the clock out; crash or time ends the run
    exp.max_sim_time = 45.0;
    ExperimentConfig::KidnapSpec kidnap;
    kidnap.t = 12.0;
    kidnap.advance_frac = 0.25;
    exp.kidnaps.push_back(kidnap);
    cfg.range = RangeMethodKind::kCddt;
    cfg.filter.n_particles = 800;
    cfg.filter.n_threads = 1;
  }
};

TEST(KidnapRecovery, BareFilterStaysLostButSupervisedRelocalizes) {
  KidnapFixture f;

  // Nominal reference (no kidnap): sets the lateral-error yardstick.
  ExperimentConfig nominal = f.exp;
  nominal.kidnaps.clear();
  nominal.laps = 2;
  double nominal_lateral_cm = 0.0;
  {
    SynPf pf{f.cfg, f.map, f.exp.lidar};
    ExperimentRunner runner{f.track, nominal};
    const ExperimentResult r = runner.run(pf);
    ASSERT_FALSE(r.crashed);
    nominal_lateral_cm = r.lateral_mean_cm;
    ASSERT_GT(nominal_lateral_cm, 0.0);
  }

  // Bare SynPF: the kidnap defeats it — the divergence episode never
  // closes (the car crashes into a wall under wrong-pose steering).
  {
    SynPf pf{f.cfg, f.map, f.exp.lidar};
    ExperimentRunner runner{f.track, f.exp};
    const ExperimentResult r = runner.run(pf);
    EXPECT_EQ(r.kidnaps_applied, 1);
    EXPECT_GE(r.divergence_episodes, 1);
    EXPECT_FALSE(r.recovered);
  }

  // Supervised SynPF: detects the kidnap, relocalizes, finishes the run.
  {
    SynPf pf{f.cfg, f.map, f.exp.lidar};
    recovery::SupervisedLocalizer sup{pf, {}, f.map, f.exp.lidar};
    sup.bind_filter(&pf.filter());
    telemetry::Telemetry telemetry;
    ExperimentRunner runner{f.track, f.exp};
    const ExperimentResult r = runner.run(sup, nullptr, telemetry.sink());

    EXPECT_EQ(r.kidnaps_applied, 1);
    EXPECT_FALSE(r.crashed);
    EXPECT_TRUE(r.recovered);
    ASSERT_GE(r.recoveries, 1);
    // Relocalization is fast enough to matter in a race...
    EXPECT_LE(r.time_to_relocalize_mean_s, 2.0);
    // ...and the post-recovery line returns to the nominal accuracy band.
    EXPECT_GT(r.post_recovery_lateral_cm, 0.0);
    EXPECT_LE(r.post_recovery_lateral_cm, 1.5 * nominal_lateral_cm);

    // The recovery machinery actually ran: a confirmed divergence and at
    // least one applied action.
    const telemetry::Counter* diverged =
        telemetry.metrics.find_counter("recovery.to_diverged");
    ASSERT_NE(diverged, nullptr);
    EXPECT_GE(diverged->value(), 1u);
    const telemetry::Counter* inject =
        telemetry.metrics.find_counter("recovery.injections");
    const telemetry::Counter* reloc =
        telemetry.metrics.find_counter("recovery.global_relocs");
    const std::uint64_t actions = (inject != nullptr ? inject->value() : 0) +
                                  (reloc != nullptr ? reloc->value() : 0);
    EXPECT_GE(actions, 1u);
  }
}

}  // namespace
}  // namespace srl
