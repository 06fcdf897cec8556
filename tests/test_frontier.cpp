#include "eval/frontier/frontier_search.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "eval/frontier/frontier_json.hpp"
#include "eval/frontier/scenario_sampler.hpp"
#include "replay_fixture.hpp"

namespace srl::frontier {
namespace {

// ---------------------------------------------------------------------------
// Scenario index packing
// ---------------------------------------------------------------------------

TEST(ScenarioKey, PackUnpackRoundTripsEveryCoordinate) {
  for (const ScenarioKey key : {ScenarioKey{0, 0, 0, 0},
                                ScenarioKey{1024, 7, 2, 0},
                                ScenarioKey{513, 3, 1, 9},
                                ScenarioKey{1, 15, 3, (1 << 14) - 1}}) {
    const ScenarioKey back = ScenarioKey::unpack(key.pack());
    EXPECT_EQ(back.sev_step, key.sev_step);
    EXPECT_EQ(back.axis, key.axis);
    EXPECT_EQ(back.track_class, key.track_class);
    EXPECT_EQ(back.variant, key.variant);
  }
}

TEST(ScenarioKey, ProfileKeyClearsOnlySeverityBits) {
  const ScenarioKey a{100, 3, 1, 7};
  const ScenarioKey b{900, 3, 1, 7};
  EXPECT_EQ(a.profile_key(), b.profile_key());
  EXPECT_NE(a.pack(), b.pack());
  // A different axis must land on a different envelope stream.
  const ScenarioKey c{100, 4, 1, 7};
  EXPECT_NE(a.profile_key(), c.profile_key());
}

TEST(ScenarioKey, TrackKeyClearsSeverityAndAxisBits) {
  const ScenarioKey a{100, 3, 1, 7};
  const ScenarioKey b{900, 6, 1, 7};
  EXPECT_EQ(a.track_key(), b.track_key());
  // Class and variant still distinguish circuits.
  EXPECT_NE(a.track_key(), (ScenarioKey{100, 3, 2, 7}.track_key()));
  EXPECT_NE(a.track_key(), (ScenarioKey{100, 3, 1, 8}.track_key()));
}

// ---------------------------------------------------------------------------
// Sampler determinism & severity-coherence
// ---------------------------------------------------------------------------

bool scenarios_bitwise_equal(const SampledScenario& a,
                             const SampledScenario& b) {
  return bitwise_equal(a.severity, b.severity) &&
         std::memcmp(&a.profile, &b.profile, sizeof(a.profile)) == 0 &&
         bitwise_equal(a.length_scale, b.length_scale) &&
         bitwise_equal(a.spec.half_width, b.spec.half_width) &&
         a.n_waypoints == b.n_waypoints &&
         bitwise_equal(a.waypoint_radius, b.waypoint_radius) &&
         bitwise_equal(a.waypoint_jitter, b.waypoint_jitter);
}

TEST(ScenarioSampler, SampleIsAPureFunctionOfSeedAndIndex) {
  const std::uint32_t index = ScenarioKey{640, 4, 2, 3}.pack();
  const ScenarioSampler sampler{0xF407};
  const SampledScenario first = sampler.sample(index);
  // Unrelated samples in between must not perturb a re-derivation, and a
  // fresh sampler with the same seed must land on the same bits.
  (void)sampler.sample(ScenarioKey{1, 1, 0, 0}.pack());
  EXPECT_TRUE(scenarios_bitwise_equal(first, sampler.sample(index)));
  EXPECT_TRUE(
      scenarios_bitwise_equal(first, ScenarioSampler{0xF407}.sample(index)));
  // A different master seed is a different universe.
  EXPECT_FALSE(
      scenarios_bitwise_equal(first, ScenarioSampler{0xF408}.sample(index)));
}

TEST(ScenarioSampler, SeveritySweepKeepsEnvelopeShapeAndCircuitFixed) {
  const ScenarioSampler sampler{7};
  for (int track_class = 0; track_class < 3; ++track_class) {
    const SampledScenario lo =
        sampler.sample(ScenarioKey{64, 2, track_class, 1}.pack());
    const SampledScenario hi =
        sampler.sample(ScenarioKey{1024, 2, track_class, 1}.pack());
    // Only the severity (and the envelope level derived from it) moves.
    EXPECT_EQ(lo.profile.t_start, hi.profile.t_start);
    EXPECT_EQ(lo.profile.ramp_s, hi.profile.ramp_s);
    EXPECT_EQ(lo.profile.duration, hi.profile.duration);
    EXPECT_EQ(lo.profile.severity, lo.severity);
    EXPECT_EQ(hi.profile.severity, 1.0);
    // Circuit parameters are severity-independent.
    EXPECT_EQ(lo.spec.half_width, hi.spec.half_width);
    EXPECT_EQ(lo.length_scale, hi.length_scale);
    EXPECT_EQ(lo.n_waypoints, hi.n_waypoints);
  }
}

TEST(ScenarioSampler, AxesShareTheCircuitOfTheirTrackCell) {
  // track_key clears the axis bits: every fault axis of one {class, variant}
  // cell must race exactly the same circuit.
  const ScenarioSampler sampler{7};
  const SampledScenario slip = sampler.sample(ScenarioKey{512, 0, 0, 2}.pack());
  const SampledScenario noise =
      sampler.sample(ScenarioKey{512, 4, 0, 2}.pack());
  EXPECT_EQ(slip.spec.half_width, noise.spec.half_width);
  EXPECT_EQ(slip.length_scale, noise.length_scale);
  // But their envelopes come from per-axis streams.
  EXPECT_NE(slip.profile.t_start, noise.profile.t_start);
}

TEST(ScenarioSampler, SeverityGridIsDyadicAndExact) {
  const ScenarioSampler sampler{1};
  for (const int step : {0, 1, 3, 512, 767, 1024}) {
    const SampledScenario s =
        sampler.sample(ScenarioKey{step, 1, 0, 0}.pack());
    // Every grid severity is exact in binary FP: scaling back recovers the
    // integer step with no rounding.
    EXPECT_EQ(s.severity * kSeverityDenominator, static_cast<double>(step));
    // ... and survives the JSON number formatter bit-for-bit.
    const std::string text = json::format_number(s.severity);
    EXPECT_EQ(std::stod(text), s.severity);
  }
}

TEST(ScenarioSampler, BlackoutSeverityDialsTheOutageWindow) {
  // The blackout envelope is all-or-nothing, so the frontier walks outage
  // *duration*: level pinned to 1, window length scaling with severity.
  const ScenarioSampler sampler{7};
  const int axis = 7;  // "blackout"
  ASSERT_EQ(frontier_axes()[axis], "blackout");
  const SampledScenario half =
      sampler.sample(ScenarioKey{512, axis, 0, 0}.pack());
  const SampledScenario full =
      sampler.sample(ScenarioKey{1024, axis, 0, 0}.pack());
  EXPECT_EQ(half.profile.severity, 1.0);
  EXPECT_EQ(full.profile.severity, 1.0);
  EXPECT_GT(half.profile.duration, 0.0);
  EXPECT_EQ(half.profile.duration, 0.5 * full.profile.duration);
  // Severity 0 must stay a true no-op.
  const SampledScenario off = sampler.sample(ScenarioKey{0, axis, 0, 0}.pack());
  EXPECT_EQ(off.profile.severity, 0.0);
}

TEST(ScenarioSampler, OutOfRangeCoordinatesClampDeterministically) {
  const ScenarioSampler sampler{7};
  // Axis id 15 exceeds the 8 pinned axes; class id 3 exceeds the 3 classes.
  const SampledScenario s =
      sampler.sample(ScenarioKey{1024, 15, 3, 0}.pack());
  EXPECT_EQ(s.axis, frontier_axes().back());
  EXPECT_EQ(s.track_class, frontier_track_classes().back());
  EXPECT_LE(s.severity, 1.0);
}

TEST(ScenarioSampler, BuildTrackIsReproducibleAndClassShaped) {
  const ScenarioSampler sampler{0xF407};
  for (int track_class = 0; track_class < 3; ++track_class) {
    const SampledScenario s =
        sampler.sample(ScenarioKey{512, 0, track_class, 0}.pack());
    const Track t1 = sampler.build_track(s);
    const Track t2 = sampler.build_track(s);
    ASSERT_FALSE(t1.centerline.empty());
    ASSERT_EQ(t1.centerline.size(), t2.centerline.size());
    for (std::size_t i = 0; i < t1.centerline.size(); ++i) {
      EXPECT_EQ(t1.centerline[i].x, t2.centerline[i].x);
      EXPECT_EQ(t1.centerline[i].y, t2.centerline[i].y);
    }
  }
}

TEST(ScenarioSampler, ReplayRecipeRoundTrips) {
  const std::uint64_t seed = 0xF407;
  const std::uint32_t index = ScenarioKey{768, 5, 1, 3}.pack();
  const std::string recipe = ScenarioSampler::replay_recipe(seed, index);
  EXPECT_EQ(recipe.rfind("frontier:", 0), 0u);
  std::uint64_t seed_back = 0;
  std::uint32_t index_back = 0;
  ASSERT_TRUE(
      ScenarioSampler::parse_replay_recipe(recipe, seed_back, index_back));
  EXPECT_EQ(seed_back, seed);
  EXPECT_EQ(index_back, index);
  // Anything but exactly what replay_recipe writes is refused: trailing
  // bytes, a sign or "0x" on the seed, an index past 32 bits.
  for (const char* bad :
       {"oval:8,2.5", "frontier:", "frontier:00000000000000ff:5xyz",
        "frontier:-1:0", "frontier:0x00000000000000ff:1",
        "frontier:00000000000000ff:4294967301", "frontier:00000000000000ff:",
        "frontier:00000000000000ff:-5", "frontier:0000000000000ff:5",
        "oval:8,2.5xyz", "oval:inf,2.5"}) {
    EXPECT_FALSE(
        ScenarioSampler::parse_replay_recipe(bad, seed_back, index_back))
        << bad;
  }
  EXPECT_EQ(seed_back, seed);  // a refusal leaves the outputs alone
  EXPECT_EQ(index_back, index);
  ASSERT_TRUE(ScenarioSampler::parse_replay_recipe(
      ScenarioSampler::replay_recipe(~0ULL, 0xffffffffU), seed_back,
      index_back));
  EXPECT_EQ(seed_back, ~0ULL);
  EXPECT_EQ(index_back, 0xffffffffU);
}

// ---------------------------------------------------------------------------
// Bisection driver (synthetic oracles)
// ---------------------------------------------------------------------------

/// Oracle failing at severity >= threshold — the search must bracket it.
ScenarioEvaluator step_oracle(double threshold) {
  return [threshold](const std::string&, const SampledScenario& scenario) {
    FrontierEvaluation eval;
    eval.failed = scenario.severity >= threshold;
    eval.divergence_episodes = eval.failed ? 1 : 0;
    return eval;
  };
}

FrontierSearchConfig tiny_config() {
  FrontierSearchConfig config;
  config.localizers = {"SynPF"};
  config.axes = {0};
  config.track_classes = {0};
  config.bisect_iterations = 5;
  return config;
}

TEST(FrontierSearch, BisectionBracketsAKnownThreshold) {
  const double threshold = 0.37;  // not on the dyadic grid on purpose
  const FrontierResult result =
      run_frontier_search(tiny_config(), step_oracle(threshold));
  ASSERT_EQ(result.points.size(), 1u);
  const FrontierPoint& point = result.points[0];
  EXPECT_FALSE(point.censored);
  EXPECT_FALSE(point.degenerate);
  // The true threshold lies inside the final bracket and the reported
  // breaking severity is its failing edge.
  EXPECT_LE(point.bracket_lo, threshold);
  EXPECT_GE(point.bracket_hi, threshold);
  EXPECT_EQ(point.breaking_severity, point.bracket_hi);
  // After B bisections of the full grid the bracket is 1024/2^B steps wide.
  const double expected_width = 1024.0 / 32.0 / kSeverityDenominator;
  EXPECT_DOUBLE_EQ(point.bracket_hi - point.bracket_lo, expected_width);
  // The defining failure's replay key re-samples to a failing scenario.
  const SampledScenario defining =
      ScenarioSampler{result.seed}.sample(point.breaking_index);
  EXPECT_GE(defining.severity, threshold);
  EXPECT_EQ(defining.severity, point.breaking_severity);
}

TEST(FrontierSearch, BracketTightensWithMoreIterations) {
  for (const int iterations : {1, 3, 8}) {
    FrontierSearchConfig config = tiny_config();
    config.bisect_iterations = iterations;
    const FrontierResult result =
        run_frontier_search(config, step_oracle(0.37));
    ASSERT_EQ(result.points.size(), 1u);
    const double width =
        result.points[0].bracket_hi - result.points[0].bracket_lo;
    const double expected =
        1024.0 / static_cast<double>(1 << iterations) / kSeverityDenominator;
    EXPECT_DOUBLE_EQ(width, expected) << "iterations=" << iterations;
  }
}

TEST(FrontierSearch, SurvivorIsCensoredAfterOneProbe) {
  const FrontierResult result =
      run_frontier_search(tiny_config(), step_oracle(2.0));
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_TRUE(result.points[0].censored);
  EXPECT_FALSE(result.points[0].degenerate);
  // Censoring needs only the severity-1.0 bracket probe.
  ASSERT_EQ(result.points[0].evaluations.size(), 1u);
  EXPECT_EQ(result.points[0].evaluations[0].severity, 1.0);
  EXPECT_EQ(result.points[0].breaking_index, 0u);
}

TEST(FrontierSearch, CleanFailureIsDegenerate) {
  const FrontierResult result =
      run_frontier_search(tiny_config(), step_oracle(0.0));
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_TRUE(result.points[0].degenerate);
  EXPECT_EQ(result.points[0].breaking_severity, 0.0);
}

// A kind that names its own governor is raced closed loop like any other
// kind, not scored as unknown (which fails every probe and reads as
// degenerate).
TEST(FrontierSearch, GovernedKindIsNotDegenerate) {
  FrontierSearchConfig config = FrontierSearchConfig::smoke();
  config.localizers = {"SynPF+Governor"};
  config.axes = {0};  // odom_slip_ramp
  config.bisect_iterations = 0;
  config.experiment.max_sim_time = 20.0;
  const FrontierResult result = run_frontier_search(config);
  ASSERT_EQ(result.points.size(), 1u);
  const FrontierPoint& point = result.points[0];
  EXPECT_FALSE(point.degenerate);
  ASSERT_FALSE(point.evaluations.empty());
  EXPECT_FALSE(point.evaluations.back().failed);
}

TEST(FrontierSearch, ProbeSequenceIsDeterministicAndThreadInvariant) {
  FrontierSearchConfig config;
  config.localizers = {"SynPF", "CartoLite"};
  config.axes = {0, 1, 2, 3, 4};
  config.track_classes = {0, 1};
  config.bisect_iterations = 6;
  // Per-combination threshold so every cell walks a different path.
  const ScenarioEvaluator oracle = [](const std::string& localizer,
                                      const SampledScenario& scenario) {
    FrontierEvaluation eval;
    const double threshold =
        (localizer == "SynPF" ? 0.55 : 0.2) + 0.07 * scenario.key.axis;
    eval.failed = scenario.severity >= threshold;
    eval.lateral_mean_cm = 2.0 + 30.0 * scenario.severity;
    return eval;
  };
  config.search_threads = 1;
  const FrontierResult serial = run_frontier_search(config, oracle);
  config.search_threads = 8;
  const FrontierResult parallel = run_frontier_search(config, oracle);

  ASSERT_EQ(serial.points.size(), 20u);
  ASSERT_EQ(parallel.points.size(), serial.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    const FrontierPoint& a = serial.points[i];
    const FrontierPoint& b = parallel.points[i];
    EXPECT_EQ(a.cell(), b.cell());
    EXPECT_EQ(a.breaking_index, b.breaking_index);
    EXPECT_TRUE(bitwise_equal(a.bracket_lo, b.bracket_lo));
    EXPECT_TRUE(bitwise_equal(a.bracket_hi, b.bracket_hi));
    ASSERT_EQ(a.evaluations.size(), b.evaluations.size());
    for (std::size_t j = 0; j < a.evaluations.size(); ++j) {
      EXPECT_EQ(a.evaluations[j].index, b.evaluations[j].index);
      EXPECT_EQ(a.evaluations[j].failed, b.evaluations[j].failed);
      EXPECT_TRUE(bitwise_equal(a.evaluations[j].lateral_mean_cm,
                                b.evaluations[j].lateral_mean_cm));
    }
  }

  // The serialized artifact, headline included, is byte-identical too: the
  // CI frontier gate's `cmp` of two smoke runs rests on it.
  const auto artifact = [](const FrontierResult& result) {
    FrontierDocument doc;
    doc.result = result;
    doc.has_headline = compute_frontier_headline(result, "odom_slip_ramp",
                                                 "club", doc.headline);
    EXPECT_TRUE(doc.has_headline);
    return frontier_to_json(doc).dump();
  };
  EXPECT_EQ(artifact(serial), artifact(parallel));
}

TEST(FrontierSearch, HeadlineComparesTheTwoLocalizers) {
  FrontierSearchConfig config = tiny_config();
  config.localizers = {"SynPF", "CartoLite"};
  const ScenarioEvaluator oracle = [](const std::string& localizer,
                                      const SampledScenario& scenario) {
    FrontierEvaluation eval;
    eval.failed = scenario.severity >= (localizer == "SynPF" ? 0.8 : 0.3);
    return eval;
  };
  const FrontierResult result = run_frontier_search(config, oracle);
  FrontierHeadline headline;
  ASSERT_TRUE(compute_frontier_headline(result, "odom_slip_ramp", "club",
                                        headline));
  EXPECT_FALSE(headline.synpf_censored);
  EXPECT_FALSE(headline.carto_censored);
  EXPECT_GT(headline.synpf_breaking, headline.carto_breaking);
  EXPECT_TRUE(headline.synpf_exceeds());
  // Unknown axis/class: no headline.
  EXPECT_FALSE(
      compute_frontier_headline(result, "no_such_axis", "club", headline));
}

TEST(FrontierSearch, CensoredSynPfStillExceedsABrokenCarto) {
  FrontierHeadline headline;
  headline.synpf_censored = true;
  headline.carto_breaking = 0.5;
  EXPECT_TRUE(headline.synpf_exceeds());
  // Both censored: the comparison is inconclusive, not a win.
  headline.carto_censored = true;
  EXPECT_FALSE(headline.synpf_exceeds());
}

}  // namespace
}  // namespace srl::frontier
