/// \file test_replay_invariance.cpp
/// \brief The replay-invariance table (DESIGN.md §9): each localizer stack,
/// built by the one stack builder (eval/stack), replays a recorded drive
/// under every execution variant and must land on its own 1-lane reference
/// bit for bit.
///
/// Rows are stacks. Variants are everything that must never be a numeric
/// choice: a rerun, the worker-lane count, the SIMD backend, an attached
/// telemetry sink and an attached flight recorder. A `ContractMonitor`
/// watches the recordings and every replay, so a `SYNPF_CHECKED` build also
/// requires zero contract violations.

#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>

#include "common/simd.hpp"
#include "eval/stack.hpp"
#include "replay_fixture.hpp"
#include "telemetry/contract_monitor.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"

namespace srl {
namespace {

/// Seconds of simulated driving in each recorded trace.
constexpr double kSimTime = 15.0;

/// One stack of the table.
struct Row {
  const char* name;  ///< test-name stem; tests/CMakeLists.txt shards by it
  const char* kind;  ///< stack kind grammar (eval/stack.hpp)
  const char* fault;  ///< "kidnap" replays the kidnap drive
  double severity;
  double budget_ms;
};

// About two thirds of the nominal workload under 0.8 pressure walks the whole
// shedding ladder: beam stride, particle clamp, skipped resamples.
constexpr Row kGoverned{"SynPFGovernorPressure", "SynPF+Governor",
                        "compute_pressure", 0.8, 0.5};
constexpr Row kRows[] = {
    {"SynPF", "SynPF", "none", 0.0, 0.0},  // the bare filter comes first
    {"SynPFSlip", "SynPF", "odom_slip_ramp", 0.7, 0.0},
    {"SynPFRecoveryKidnap", "SynPF+Recovery", "kidnap", 0.0, 0.0},
    kGoverned,
};

enum class Attach { kNothing, kTelemetry, kRecorder };

/// One way of running a row. With two lane counts, both replays must match
/// the reference and the attachments must agree with each other.
struct Variant {
  const char* name;
  std::array<int, 2> lanes;  ///< 0 = no second replay
  std::optional<simd::Backend> backend;  ///< nullopt = ambient dispatch
  Attach attach;
};

const Variant kVariants[] = {
    {"Rerun", {1, 0}, std::nullopt, Attach::kNothing},
    {"Lanes2", {2, 0}, std::nullopt, Attach::kNothing},
    {"Lanes8", {8, 0}, std::nullopt, Attach::kNothing},
    {"Scalar", {1, 8}, simd::Backend::kScalar, Attach::kNothing},
    {"Avx2", {1, 8}, simd::Backend::kAvx2, Attach::kNothing},
    {"Telemetry", {1, 8}, std::nullopt, Attach::kTelemetry},
    {"Recorder", {1, 8}, std::nullopt, Attach::kRecorder},
};

StackSpec spec_of(const Row& row, int lanes) {
  StackSpec spec;
  EXPECT_TRUE(parse_stack_kind(row.kind, spec)) << row.kind;
  // The StackSpec default (CDDT) has no AVX2 kernel; the LUT has a gather
  // kernel that the SIMD variants must cover.
  spec.range = RangeMethodKind::kLut;
  spec.n_particles = 600;
  spec.pf_seed = 42;
  spec.threads = lanes;
  spec.fault = row.fault;
  spec.severity = row.severity;
  spec.budget_ms = row.budget_ms;
  return spec;
}

/// What a replay is judged on. Every row is a SynPF stack, so every replay
/// leaves a filter behind.
struct Replay {
  SensorTrace::ReplayResult result;
  FilterState filter;
};

void expect_bitwise_identical(const Replay& a, const Replay& b) {
  expect_bitwise_identical(a.result, b.result);
  expect_bitwise_identical(a.filter, b.filter);
}

/// Pins the SIMD backend for one scope; the ambient dispatch comes back on
/// exit, also when an assertion returns early.
class ScopedBackend {
 public:
  explicit ScopedBackend(std::optional<simd::Backend> backend) {
    if (backend) simd::force(*backend);
  }
  ~ScopedBackend() { simd::reset(); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;
};

/// The drives the table replays and the monitor that watches them, recorded
/// once per process. Members initialize in declaration order, so the
/// monitor is installed before the drives are recorded.
struct Recordings {
  telemetry::MetricsRegistry contracts;
  telemetry::ContractMonitor monitor{contracts};
  Track track = replay_oval();
  std::shared_ptr<const OccupancyGrid> map =
      std::make_shared<const OccupancyGrid>(track.grid);
  SensorTrace clean = record_drive(track, oval_lap(kSimTime));
  SensorTrace kidnap = record_drive(track, kidnap_lap(kSimTime));
  std::array<std::optional<Replay>, std::size(kRows)> references{};
};

Recordings& recordings() {
  static Recordings recorded;
  return recorded;
}

Replay replay(const Row& row, int lanes, telemetry::Sink sink = {}) {
  const Recordings& rec = recordings();
  const StackSpec spec = spec_of(row, lanes);
  const Stack stack = build_stack(spec, rec.map, LidarConfig{});
  const SensorTrace& trace = spec.fault == "kidnap" ? rec.kidnap : rec.clean;
  SensorTrace::ReplayResult result = trace.replay(*stack.top, sink);
  return {std::move(result), FilterState::of(*stack.filter)};
}

/// The row's 1-lane replay under the ambient SIMD dispatch, computed once.
const Replay& reference(std::size_t row) {
  std::optional<Replay>& ref = recordings().references[row];
  if (!ref) ref = replay(kRows[row], 1);
  return *ref;
}

/// Every test ends with zero contract violations since the recordings
/// started (checked builds count them; other builds compile contracts out).
class ReplayInvarianceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    EXPECT_EQ(recordings().monitor.violations(), 0U) << "contract violations";
  }
};

class ReplayInvariance
    : public ReplayInvarianceTest,
      public ::testing::WithParamInterface<std::tuple<std::size_t,
                                                      std::size_t>> {};

TEST_P(ReplayInvariance, MatchesTheOneLaneReference) {
  const auto [row_index, variant_index] = GetParam();
  const Row& row = kRows[row_index];
  const Variant& variant = kVariants[variant_index];
  if (variant.backend == simd::Backend::kAvx2 && !simd::cpu_has_avx2()) {
    GTEST_SKIP() << "host CPU lacks AVX2: the AVX2 kernels cannot be "
                    "cross-checked against the reference here";
  }
  const Replay& ref = reference(row_index);
  ASSERT_FALSE(ref.result.estimates.empty());
  ASSERT_GT(ref.filter.resamples, 0L)
      << "drive too benign to exercise resampling";

  const ScopedBackend backend{variant.backend};
  std::array<telemetry::Telemetry, 2> instruments;
  std::array<telemetry::FlightRecorder, 2> recorders;
  for (std::size_t k = 0; k < variant.lanes.size(); ++k) {
    const int lanes = variant.lanes[k];
    if (lanes == 0) break;
    SCOPED_TRACE(std::to_string(lanes) + " lanes");
    telemetry::Sink sink;
    if (variant.attach != Attach::kNothing) sink = instruments[k].sink();
    if (variant.attach == Attach::kRecorder) sink.recorder = &recorders[k];
    expect_bitwise_identical(ref, replay(row, lanes, sink));
  }

  if (variant.attach == Attach::kTelemetry) {
    telemetry::MetricsRegistry& one = instruments[0].metrics;
    telemetry::MetricsRegistry& eight = instruments[1].metrics;
    EXPECT_GT(one.counter("pf.updates").value(), 0U);
    EXPECT_EQ(one.counter("pf.resamples").value(),
              eight.counter("pf.resamples").value());
    EXPECT_EQ(one.counter("pf.updates").value(),
              eight.counter("pf.updates").value());
    EXPECT_TRUE(bitwise_equal(one.gauge("pf.ess").value(),
                              eight.gauge("pf.ess").value()));
  }
  if (variant.attach == Attach::kRecorder) {
    EXPECT_GT(recorders[0].ticks(), 0U);
    EXPECT_EQ(recorders[0].ticks(), recorders[1].ticks());
    EXPECT_EQ(recorders[0].estimate_hash(), recorders[1].estimate_hash());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table, ReplayInvariance,
    ::testing::Combine(::testing::Range<std::size_t>(0, std::size(kRows)),
                       ::testing::Range<std::size_t>(0, std::size(kVariants))),
    [](const ::testing::TestParamInfo<ReplayInvariance::ParamType>& info) {
      return std::string{kRows[std::get<0>(info.param)].name} + "_" +
             kVariants[std::get<1>(info.param)].name;
    });

/// Layers configured to do nothing must not move a bit: a governor with no
/// budget and no adaptive sizing is the bare filter, and a compute-pressure
/// stage at severity 0 decides exactly like no stage at all.
TEST_F(ReplayInvarianceTest, NeutralLayersAreBitwiseNoOps) {
  {
    SCOPED_TRACE("SynPF+Budget without a budget");
    const Row off{"", "SynPF+Budget", "none", 0.0, 0.0};
    expect_bitwise_identical(reference(0), replay(off, 1));
  }
  {
    SCOPED_TRACE("compute_pressure at severity 0");
    const Row zero{"", kGoverned.kind, kGoverned.fault, 0.0,
                   kGoverned.budget_ms};
    const Row none{"", kGoverned.kind, "none", 0.0, kGoverned.budget_ms};
    expect_bitwise_identical(replay(none, 1), replay(zero, 1));
  }
}

}  // namespace
}  // namespace srl
