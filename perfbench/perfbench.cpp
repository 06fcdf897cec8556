// Closed-loop benchmark binary. Runs one workload through the public eval
// API and prints one JSON document of raw measurements on stdout; run.py
// turns it into metrics. See README.md for the workloads and metrics.
//
//   perfbench[_traced] --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Races repeat identical passes (fresh set-up, same seeds). The first pass
// is an untimed reference: it records the ground truth and warms caches, and
// every timed pass must reproduce its results and per-scan estimates bit for
// bit. The number of timed passes follows from `seconds` and a fixed nominal
// pass length, never from the measured speed, so a faster program does not
// get more samples. Timed passes also record, for every window of
// kStealWindow scans, the host's steal share and a host-speed probe, so
// run.py can take the race timings over the windows the host disturbed
// least.
// `--trace 1` (perfbench_traced only) adds one pass with layer spans.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/timer.hpp"
#include "core/synpf.hpp"
#include "eval/experiment.hpp"
#include "eval/scenario_matrix.hpp"
#include "gridmap/track_generator.hpp"
#include "range/range_method.hpp"
#include "sensor/scanline_layout.hpp"
#include "slam/probability_grid.hpp"
#include "slam/pure_localization.hpp"
#include "spans.hpp"

namespace {

using perfbench::Layer;
using perfbench::Span;
using srl::json::Value;

#ifdef PERFBENCH_TRACED
constexpr bool kTracedBuild = true;
#else
constexpr bool kTracedBuild = false;
#endif

// Set-up samples per run; setup_s is their median. A sample is the mean of
// a batch of set-ups, so a set-up of a few tens of ms is timed over a batch
// long enough to average out its page-fault and cache noise.
constexpr std::size_t kSetupSamples = 6;
// The grid's set-up is the track build alone.
constexpr std::size_t kGridSetupBatch = 12;
// Nominal wall of one smoke-grid pass; sets the grid's pass count.
constexpr double kGridNominalPassSeconds = 25.0;
// Scans per steal window of a timed race pass: about 0.17 s of SynPF loop,
// 17 ticks of the 100 Hz /proc/stat clock per CPU.
constexpr std::size_t kStealWindow = 50;
// Every n-th scan of the traced SynPF pass copies the cloud for the range
// probe.
constexpr std::size_t kSnapshotEvery = 40;

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0.0};
  bool trace{false};
};

bool parse_options(int argc, char** argv, Options& out) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      out.workload = value;
      have[0] = true;
    } else if (key == "--seed") {
      out.seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      out.seconds = std::strtod(value.c_str(), &end);
      have[2] = end != value.c_str() && *end == '\0' && out.seconds > 0.0;
    } else if (key == "--trace") {
      out.trace = value == "1";
      have[3] = value == "0" || value == "1";
    } else {
      return false;
    }
  }
  return argc == 9 && have[0] && have[1] && have[2] && have[3];
}

// Stream tags of the seeds derived from the one workload seed.
constexpr std::uint64_t kFilterSeedStream = 0xF17E5EEDULL;
constexpr std::uint64_t kFaultSeedStream = 0xFA0175EEDULL;

Value number(double x) { return Value::number(x); }

Value numbers(const std::vector<double>& xs) {
  Value out = Value::array();
  for (const double x : xs) out.push_back(number(x));
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Output checks

struct Checks {
  Value list = Value::array();

  void add(const std::string& name, bool ok, const std::string& detail) {
    Value check = Value::object();
    check.set("name", Value::string(name));
    check.set("ok", Value::boolean(ok));
    check.set("detail", Value::string(detail));
    list.push_back(std::move(check));
  }
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](double x, double y) { return same_bits(x, y); });
}

bool same_bits(const srl::Pose2& a, const srl::Pose2& b) {
  return same_bits(a.x, b.x) && same_bits(a.y, b.y) &&
         same_bits(a.theta, b.theta);
}

// Name of the first deterministic ExperimentResult field that differs, or
// "" when all match. Wall-clock fields (latency, load) are left out.
std::string result_diff(const srl::ExperimentResult& a,
                        const srl::ExperimentResult& b) {
#define PERFBENCH_FIELD(f) \
  if (!same_bits(a.f, b.f)) return #f;
#define PERFBENCH_EXACT(f) \
  if (a.f != b.f) return #f;
  PERFBENCH_FIELD(lap_times)
  PERFBENCH_FIELD(lap_lateral_mean_cm)
  PERFBENCH_FIELD(lap_time_mean)
  PERFBENCH_FIELD(lap_time_std)
  PERFBENCH_FIELD(lateral_mean_cm)
  PERFBENCH_FIELD(lateral_std_cm)
  PERFBENCH_FIELD(scan_alignment)
  PERFBENCH_FIELD(pose_rmse_m)
  PERFBENCH_FIELD(pose_lat_rmse_m)
  PERFBENCH_FIELD(pose_long_rmse_m)
  PERFBENCH_FIELD(heading_rmse_rad)
  PERFBENCH_FIELD(mean_abs_slip)
  PERFBENCH_FIELD(odom_drift_m_per_lap)
  PERFBENCH_EXACT(crashed)
  PERFBENCH_FIELD(sim_time)
  PERFBENCH_EXACT(completed)
  PERFBENCH_EXACT(kidnaps_applied)
  PERFBENCH_EXACT(divergence_episodes)
  PERFBENCH_EXACT(recoveries)
  PERFBENCH_FIELD(time_to_relocalize_s)
  PERFBENCH_FIELD(time_to_relocalize_mean_s)
  PERFBENCH_FIELD(time_to_relocalize_max_s)
  PERFBENCH_FIELD(post_divergence_lateral_cm)
  PERFBENCH_FIELD(post_recovery_lateral_cm)
  PERFBENCH_FIELD(final_pose_error_m)
  PERFBENCH_EXACT(recovered)
#undef PERFBENCH_FIELD
#undef PERFBENCH_EXACT
  return "";
}

// ---------------------------------------------------------------------------
// Races

struct RaceSpec {
  bool synpf;  // SynPF at paper defaults, else CartoLite
  double mu;
  int laps;    // timed laps per pass
  // Timed passes: `seconds` / nominal_pass_s, rounded up, and at least
  // min_passes. nominal_pass_s is about one pass's wall on a 4-vCPU Xeon,
  // but a fixed constant, so the pass count never depends on the measured
  // speed.
  double nominal_pass_s;
  std::size_t min_passes;
  std::size_t setup_batch;  // set-ups timed per set-up sample
};

std::size_t pass_count(double seconds, double nominal_pass_s,
                       std::size_t min_passes) {
  const auto passes =
      static_cast<std::size_t>(std::ceil(seconds / nominal_pass_s));
  return std::max(min_passes, passes);
}

// The VM's CPU time so far, over all CPUs, in clock ticks: the part the
// hypervisor gave to other guests (steal) and the total. Zero when
// /proc/stat cannot be read.
struct CpuTicks {
  double steal{0.0};
  double total{0.0};
};

CpuTicks cpu_ticks() {
  std::ifstream stat{"/proc/stat"};
  std::string label;  // "cpu", the sum over all CPUs
  stat >> label;
  CpuTicks ticks;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    double value = 0.0;
    if (!(stat >> value)) return {};
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

// Wall time (ms) of a fixed piece of work that is not the program's, about
// 1 ms: a probe of how fast the host runs this thread right now. Dependent
// loads from a 256 KiB table and integer mixing, so it slows when the core
// or its caches are shared with a busy neighbour, as the program does.
double host_probe_ms() {
  constexpr std::uint32_t kMask = (1u << 16) - 1;
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(kMask + 1);
    for (std::uint32_t i = 0; i <= kMask; ++i) t[i] = (i * 2654435761u) & kMask;
    return t;
  }();
  const srl::Stopwatch watch;
  std::uint32_t at = 0;
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < 100000; ++i) {
    at = table[(at + i) & kMask];
    acc = (acc ^ at) * 0x9E3779B97F4A7C15ULL;
  }
  volatile std::uint64_t sink = acc;
  (void)sink;
  return watch.elapsed_ms();
}

// Steal share of the VM's CPU time between two readings: the part the
// hypervisor gave to other guests. Zero when /proc/stat could not be read.
double steal_share(const CpuTicks& before, const CpuTicks& after) {
  const double total = after.total - before.total;
  return total > 0.0 ? (after.steal - before.steal) / total : 0.0;
}

// Runs `runs` timed passes. `pass()` runs one pass and returns its record;
// every record gains the pass's steal share, for the report.
template <class Pass>
Value timed_passes(std::size_t runs, Pass&& pass) {
  Value out = Value::array();
  for (std::size_t i = 0; i < runs; ++i) {
    const CpuTicks before = cpu_ticks();
    Value record = pass();
    record.set("steal_share", number(steal_share(before, cpu_ticks())));
    out.push_back(std::move(record));
  }
  return out;
}

srl::ExperimentConfig race_config(const RaceSpec& spec, std::uint64_t seed) {
  srl::ExperimentConfig config;
  config.mu = spec.mu;
  config.laps = spec.laps;
  config.seed = seed;
  return config;
}

srl::SynPfConfig synpf_config(std::uint64_t seed) {
  // Paper defaults: 1500 particles, 60 boxed beams, LUT, default lanes.
  srl::SynPfConfig config;
  config.seed = srl::splitmix64(seed ^ kFilterSeedStream);
  return config;
}

// One set-up: everything a race needs before the first tick.
struct RaceSetup {
  srl::Track track;
  std::shared_ptr<const srl::OccupancyGrid> map;
  std::unique_ptr<srl::Localizer> localizer;
  std::unique_ptr<srl::ExperimentRunner> runner;  // refers to `track`
  double track_s{0.0};
  double backend_s{0.0};
  double runner_s{0.0};
};

std::unique_ptr<RaceSetup> set_up_race(const RaceSpec& spec,
                                       std::uint64_t seed) {
  auto setup = std::make_unique<RaceSetup>();
  const srl::ExperimentConfig config = race_config(spec, seed);
  srl::Stopwatch watch;
  setup->track = srl::TrackGenerator::test_track();
  setup->map = std::make_shared<const srl::OccupancyGrid>(setup->track.grid);
  setup->track_s = watch.elapsed_s();
  watch.restart();
  if (spec.synpf) {
    setup->localizer = std::make_unique<srl::SynPf>(synpf_config(seed),
                                                    setup->map, config.lidar);
  } else {
    setup->localizer = std::make_unique<srl::CartoLocalizer>(
        srl::PureLocalizationOptions{}, setup->map, config.lidar);
  }
  setup->backend_s = watch.elapsed_s();
  watch.restart();
  setup->runner = std::make_unique<srl::ExperimentRunner>(setup->track, config);
  setup->runner_s = watch.elapsed_s();
  return setup;
}

// One set-up sample: a batch of `batch` set-ups, timed part by part; the
// sample is the mean per set-up. Returns the batch's last set-up.
std::unique_ptr<RaceSetup> sample_setup(const RaceSpec& spec,
                                        std::uint64_t seed, Value& samples) {
  double track_s = 0.0;
  double backend_s = 0.0;
  double runner_s = 0.0;
  std::unique_ptr<RaceSetup> setup;
  for (std::size_t i = 0; i < spec.setup_batch; ++i) {
    setup.reset();
    setup = set_up_race(spec, seed);
    track_s += setup->track_s;
    backend_s += setup->backend_s;
    runner_s += setup->runner_s;
  }
  const auto n = static_cast<double>(spec.setup_batch);
  Value sample = Value::object();
  sample.set("track_s", number(track_s / n));
  sample.set("backend_s", number(backend_s / n));
  sample.set("runner_s", number(runner_s / n));
  samples.push_back(std::move(sample));
  return setup;
}

// Decorator the runner drives instead of the localizer: times every
// on_scan from outside, keeps each estimate for the bitwise checks, reads
// the host's CPU ticks and runs the host probe every kStealWindow scans when
// metering, and opens the localizer spans when a recorder is installed.
class ProbedLocalizer final : public srl::Localizer {
 public:
  explicit ProbedLocalizer(srl::Localizer& inner)
      : inner_{inner}, synpf_{dynamic_cast<srl::SynPf*>(&inner)} {}

  void initialize(const srl::Pose2& pose) override {
    Span span{Layer::kLocInit};
    inner_.initialize(pose);
  }
  void on_odometry(const srl::OdometryDelta& odom) override {
    Span span{Layer::kLocOdometry};
    inner_.on_odometry(odom);
  }
  srl::Pose2 on_scan(const srl::LaserScan& scan) override {
    if (metering_ && estimates_.size() % kStealWindow == 0) {
      marks_.push_back({cpu_ticks(), clock_.elapsed_s(), scan.t});
      probe_ms_.push_back(host_probe_ms());
    }
    srl::Pose2 estimate;
    {
      Span span{Layer::kLocScan};
      const srl::Stopwatch watch;
      estimate = inner_.on_scan(scan);
      update_ms_.push_back(watch.elapsed_ms());
    }
    estimates_.push_back(estimate);
    if (snapshots_ != nullptr && synpf_ != nullptr &&
        estimates_.size() % kSnapshotEvery == 0) {
      Span span{Layer::kCloudSnapshot};
      const srl::ParticleCloud& cloud = synpf_->filter().cloud();
      std::vector<srl::Pose2> poses(cloud.size());
      for (std::size_t i = 0; i < cloud.size(); ++i) poses[i] = cloud.pose(i);
      snapshots_->push_back(std::move(poses));
    }
    return estimate;
  }
  srl::Pose2 pose() const override { return inner_.pose(); }
  std::string name() const override { return inner_.name(); }
  double mean_scan_update_ms() const override {
    return inner_.mean_scan_update_ms();
  }
  double total_busy_s() const override { return inner_.total_busy_s(); }

  // Copy the SynPF cloud every kSnapshotEvery scans into `out`.
  void keep_snapshots(std::vector<std::vector<srl::Pose2>>* out) {
    snapshots_ = out;
  }
  void meter_host() { metering_ = true; }
  // Time spent in host probes, s.
  double probe_s() const {
    return std::accumulate(probe_ms_.begin(), probe_ms_.end(), 0.0) * 1e-3;
  }
  // Every window of kStealWindow scans (the last one may be shorter), from
  // its first on_scan to the next window's, or to the end of the pass at
  // simulated time `sim_end_s`: its steal share, loop wall (less its host
  // probe), simulated time and host probe, as four arrays.
  Value windows(double sim_end_s) const {
    std::vector<Mark> marks = marks_;
    marks.push_back({cpu_ticks(), clock_.elapsed_s(), sim_end_s});
    std::vector<double> steal;
    std::vector<double> wall_s;
    std::vector<double> sim_s;
    for (std::size_t i = 0; i + 1 < marks.size(); ++i) {
      steal.push_back(steal_share(marks[i].ticks, marks[i + 1].ticks));
      wall_s.push_back(marks[i + 1].wall_s - marks[i].wall_s -
                       probe_ms_[i] * 1e-3);
      sim_s.push_back(marks[i + 1].sim_s - marks[i].sim_s);
    }
    Value out = Value::object();
    out.set("steal_share", numbers(steal));
    out.set("wall_s", numbers(wall_s));
    out.set("sim_s", numbers(sim_s));
    out.set("probe_ms", numbers(probe_ms_));
    return out;
  }
  const std::vector<double>& update_ms() const { return update_ms_; }
  const std::vector<srl::Pose2>& estimates() const { return estimates_; }

 private:
  srl::Localizer& inner_;
  srl::SynPf* synpf_;
  std::vector<double> update_ms_;
  std::vector<srl::Pose2> estimates_;
  std::vector<std::vector<srl::Pose2>>* snapshots_{nullptr};
  struct Mark {
    CpuTicks ticks;
    double wall_s;
    double sim_s;
  };
  bool metering_{false};
  srl::Stopwatch clock_;
  std::vector<Mark> marks_;
  std::vector<double> probe_ms_;
};

struct PassOutcome {
  srl::ExperimentResult result;
  std::vector<double> update_ms;
  std::vector<srl::Pose2> estimates;
  Value windows;  // metered passes only
  double wall_s{0.0};
};

PassOutcome run_pass(RaceSetup& setup, srl::SensorTrace* record,
                     std::vector<std::vector<srl::Pose2>>* snapshots,
                     bool meter = false) {
  ProbedLocalizer probed{*setup.localizer};
  probed.keep_snapshots(snapshots);
  if (meter) probed.meter_host();
  PassOutcome out;
  const srl::Stopwatch watch;
  {
    Span loop{Layer::kLoop};
    out.result = setup.runner->run(probed, record);
  }
  out.wall_s = watch.elapsed_s() - probed.probe_s();
  if (meter) out.windows = probed.windows(out.result.sim_time);
  out.update_ms = probed.update_ms();
  out.estimates = probed.estimates();
  return out;
}

// "" when `pass` reproduces `reference` bit for bit, else what differs.
std::string pass_diff(const PassOutcome& reference, const PassOutcome& pass) {
  const std::string field = result_diff(reference.result, pass.result);
  if (!field.empty()) return "ExperimentResult." + field;
  if (reference.estimates.size() != pass.estimates.size()) {
    return "scan count";
  }
  for (std::size_t i = 0; i < pass.estimates.size(); ++i) {
    if (!same_bits(reference.estimates[i], pass.estimates[i])) {
      return "estimate of scan " + std::to_string(i);
    }
  }
  return "";
}

Value span_json(const perfbench::SpanRecorder& recorder) {
  Value names = Value::array();
  for (int i = 0; i < static_cast<int>(Layer::kCount); ++i) {
    names.push_back(Value::string(layer_name(static_cast<Layer>(i))));
  }
  const std::vector<perfbench::SpanRecord>& spans = recorder.spans();
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  Value records = Value::array();
  for (const perfbench::SpanRecord& s : spans) {
    Value r = Value::array();
    r.push_back(number(static_cast<double>(s.layer)));
    r.push_back(number(s.parent));
    r.push_back(number(static_cast<double>(s.start_ns - origin)));
    r.push_back(number(static_cast<double>(s.end_ns - origin)));
    records.push_back(std::move(r));
  }
  Value out = Value::object();
  out.set("names", std::move(names));
  out.set("records", std::move(records));
  out.set("range_queries",
          number(static_cast<double>(recorder.range_queries())));
  return out;
}

// Side probe of the range layer: one beam fan (RangeMethod::ranges_from) per
// snapshotted particle, through a backend built like SynPF's own. Returns
// microseconds per fan, one value per snapshot.
std::vector<double> probe_fans(
    const srl::RangeMethod& backend, const srl::LidarConfig& lidar,
    const srl::SynPfConfig& config,
    const std::vector<std::vector<srl::Pose2>>& snapshots) {
  const std::vector<double> angles = srl::layout_angles(
      lidar, srl::boxed_layout(lidar, config.beams, config.boxed_aspect));
  std::vector<float> out(angles.size());
  std::vector<double> fan_us;
  for (const std::vector<srl::Pose2>& poses : snapshots) {
    const srl::Stopwatch watch;
    for (const srl::Pose2& pose : poses) {
      backend.ranges_from(pose * lidar.mount, angles, out);
    }
    fan_us.push_back(watch.elapsed_us() / static_cast<double>(poses.size()));
  }
  return fan_us;
}

Value race_traced(const RaceSpec& spec, const Options& options,
                  const PassOutcome& reference, Checks& checks) {
  std::unique_ptr<RaceSetup> setup = set_up_race(spec, options.seed);
  const srl::ExperimentConfig config = race_config(spec, options.seed);

  perfbench::SpanRecorder recorder;
  std::vector<std::vector<srl::Pose2>> snapshots;
  perfbench::active_recorder = &recorder;
  const PassOutcome traced = run_pass(*setup, nullptr, &snapshots);
  perfbench::active_recorder = nullptr;

  const std::string diff = pass_diff(reference, traced);
  checks.add("traced_pass_bitwise", diff.empty(),
             diff.empty() ? "traced pass reproduces the untraced reference"
                          : "traced pass differs: " + diff);

  std::vector<Layer> expected = {Layer::kVehicleStep, Layer::kOdometry,
                                 Layer::kLidarScan,   Layer::kPursuit,
                                 Layer::kLocScan,     Layer::kLocOdometry};
  if (spec.synpf) {
    expected.insert(expected.end(),
                    {Layer::kPredict, Layer::kCorrect, Layer::kEstimate});
  }
  std::string missing;
  for (const Layer layer : expected) {
    const bool seen = std::any_of(
        recorder.spans().begin(), recorder.spans().end(),
        [layer](const perfbench::SpanRecord& s) { return s.layer == layer; });
    if (!seen) missing += std::string(missing.empty() ? "" : ", ") +
                          perfbench::layer_name(layer);
  }
  checks.add("layer_spans_recorded", missing.empty(),
             missing.empty() ? "every wrapped layer recorded spans"
                             : "no spans for: " + missing);

  Value out = Value::object();
  out.set("wall_s", number(traced.wall_s));
  out.set("sim_s", number(traced.result.sim_time));
  out.set("scans", number(static_cast<double>(traced.estimates.size())));
  out.set("spans", span_json(recorder));

  if (spec.synpf) {
    const srl::SynPfConfig pf_config = synpf_config(options.seed);
    srl::RangeMethodOptions range_options = pf_config.range_options;
    range_options.max_range = config.lidar.max_range;  // as SynPf does
    const srl::Stopwatch watch;
    const std::unique_ptr<srl::RangeMethod> backend =
        srl::make_range_method(pf_config.range, setup->map, range_options);
    out.set("lut_build_s", number(watch.elapsed_s()));
    out.set("fan_us",
            numbers(probe_fans(*backend, config.lidar, pf_config, snapshots)));
    // The filter is fresh, so its count is this pass's resamples.
    out.set("resamples",
            number(static_cast<double>(static_cast<srl::SynPf&>(
                                           *setup->localizer)
                                           .filter()
                                           .resample_count())));
  } else {
    const srl::PureLocalizationOptions carto_options{};
    const srl::Stopwatch watch;
    const srl::ProbabilityGrid field = srl::ProbabilityGrid::likelihood_field(
        *setup->map, carto_options.likelihood_sigma);
    out.set("field_build_s", number(watch.elapsed_s()));
    out.set("global_period", number(carto_options.global_period));
    out.set("global_fixes",
            number(static_cast<double>(
                static_cast<srl::CartoLocalizer&>(*setup->localizer)
                    .global_fixes())));
  }
  return out;
}

Value run_race(const RaceSpec& spec, const Options& options, Checks& checks,
               Value& provenance) {
  const srl::ExperimentConfig config = race_config(spec, options.seed);
  Value setups = Value::array();
  auto set_up = [&] { return sample_setup(spec, options.seed, setups); };

  // Reference pass: records the ground truth, warms caches; untimed.
  srl::SensorTrace truth;
  PassOutcome reference;
  {
    std::unique_ptr<RaceSetup> setup = set_up();
    reference = run_pass(*setup, &truth, nullptr);
    if (spec.synpf) {
      auto& synpf = static_cast<srl::SynPf&>(*setup->localizer);
      provenance.set("filter_threads", number(synpf.filter().threads()));
    }
  }
  // A scan succeeds when its estimate lies within divergence_open_m of the
  // true pose (success_pct). `failed` counts only scans with no result: no
  // finite estimate, or lost to a crash (see README.md).
  long diverged = 0;
  long non_finite = 0;
  for (std::size_t i = 0; i < reference.estimates.size(); ++i) {
    const srl::Pose2& est = reference.estimates[i];
    const srl::Pose2& real = truth.scans()[i].truth;
    if (!std::isfinite(est.x) || !std::isfinite(est.y) ||
        !std::isfinite(est.theta)) {
      ++non_finite;
    } else if (std::hypot(est.x - real.x, est.y - real.y) >
               config.divergence_open_m) {
      ++diverged;
    }
  }
  // Scans a crash prevented, up to the run's time limit.
  const double lost =
      reference.result.crashed
          ? std::ceil((config.max_sim_time - reference.result.sim_time) *
                      config.lidar_rate_hz)
          : 0.0;
  const double scans = static_cast<double>(reference.estimates.size());

  // Timed passes.
  const std::size_t n_timed =
      pass_count(options.seconds, spec.nominal_pass_s, spec.min_passes);
  std::string mismatch;
  bool completed = reference.result.completed;
  Value passes = timed_passes(n_timed, [&] {
    std::unique_ptr<RaceSetup> setup = set_up();
    const PassOutcome pass = run_pass(*setup, nullptr, nullptr, true);
    completed = completed && pass.result.completed;
    if (mismatch.empty()) mismatch = pass_diff(reference, pass);
    Value p = Value::object();
    p.set("wall_s", number(pass.wall_s));
    p.set("sim_s", number(pass.result.sim_time));
    p.set("update_ms", numbers(pass.update_ms));
    p.set("windows", pass.windows);
    return p;
  });
  while (setups.size() < kSetupSamples) set_up();

  checks.add("race_completed", completed,
             completed ? "every pass finished all laps without a crash"
                       : "a pass crashed or did not finish its laps");
  checks.add("passes_bitwise", mismatch.empty(),
             mismatch.empty()
                 ? "every timed pass reproduces the reference pass"
                 : "a timed pass differs from the reference: " + mismatch);

  const auto n_passes = static_cast<double>(n_timed);
  Value out = Value::object();
  out.set("attempted", number((scans + lost) * n_passes));
  out.set("failed",
          number((static_cast<double>(non_finite) + lost) * n_passes));
  out.set("ops", number(scans + lost));
  out.set("ops_ok", number(scans - static_cast<double>(diverged + non_finite)));
  out.set("setups", std::move(setups));
  out.set("passes", std::move(passes));
  out.set("steal_window", number(static_cast<double>(kStealWindow)));
  Value result = Value::object();
  result.set("lateral_mean_cm", number(reference.result.lateral_mean_cm));
  result.set("pose_rmse_m", number(reference.result.pose_rmse_m));
  result.set("lap_times", numbers(reference.result.lap_times));
  result.set("scans", number(scans));
  result.set("diverged_scans", number(static_cast<double>(diverged)));
  out.set("result", std::move(result));
  if (options.trace) {
    out.set("traced", race_traced(spec, options, reference, checks));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Robustness grid

srl::ScenarioMatrixConfig grid_config(std::uint64_t seed) {
  srl::ScenarioMatrixConfig config = srl::ScenarioMatrix::smoke_config();
  config.seed = seed;
  config.fault_seed = srl::splitmix64(seed ^ kFaultSeedStream);
  config.blackbox_dir.clear();  // recorder off: no disk writes in the loop
  return config;
}

Value run_grid(const Options& options, Checks& checks, Value& provenance) {
  const srl::ScenarioMatrixConfig config = grid_config(options.seed);
  // Half the set-up samples before the grid passes, half after, so that
  // setup_s spans the run rather than its first seconds.
  Value setups = Value::array();
  srl::Track track;
  auto set_up = [&](std::size_t samples) {
    for (std::size_t k = 0; k < samples; ++k) {
      double track_s = 0.0;
      for (std::size_t i = 0; i < kGridSetupBatch; ++i) {
        const srl::Stopwatch watch;
        track = srl::TrackGenerator::test_track();
        track_s += watch.elapsed_s();
      }
      Value setup = Value::object();
      setup.set("track_s", number(track_s / kGridSetupBatch));
      setups.push_back(std::move(setup));
    }
  };
  set_up(kSetupSamples / 2);
  const srl::ScenarioMatrix matrix{config};
  const int lanes = srl::resolve_thread_count(config.matrix_threads);
  provenance.set("matrix_lanes", number(lanes));

  const std::size_t n_timed =
      pass_count(options.seconds, kGridNominalPassSeconds, 1);
  std::vector<srl::ScenarioCell> first;
  std::string mismatch;
  Value passes = timed_passes(n_timed, [&] {
    const srl::Stopwatch watch;
    std::vector<srl::ScenarioCell> cells = matrix.run(track);
    const double wall_s = watch.elapsed_s();
    double sim_s = 0.0;
    std::vector<double> p50_ms;
    std::vector<double> p99_ms;
    for (const srl::ScenarioCell& cell : cells) {
      sim_s += cell.result.sim_time;
      p50_ms.push_back(cell.result.update_p50_ms);
      p99_ms.push_back(cell.result.update_p99_ms);
    }
    if (first.empty()) {
      first = std::move(cells);
    } else {
      for (std::size_t i = 0; i < cells.size() && mismatch.empty(); ++i) {
        const std::string field = result_diff(first[i].result, cells[i].result);
        if (!field.empty()) {
          mismatch = "cell " + std::to_string(i) + " " + field;
        }
      }
    }
    Value p = Value::object();
    p.set("wall_s", number(wall_s));
    p.set("sim_s", number(sim_s));
    p.set("cell_p50_ms", numbers(p50_ms));
    p.set("cell_p99_ms", numbers(p99_ms));
    return p;
  });
  set_up(kSetupSamples - kSetupSamples / 2);
  checks.add("grid_passes_bitwise", mismatch.empty(),
             mismatch.empty() ? "every grid pass reproduces the first"
                              : "grid passes differ: " + mismatch);

  Value cells = Value::array();
  for (const srl::ScenarioCell& cell : first) {
    Value c = Value::object();
    c.set("localizer", Value::string(cell.localizer));
    c.set("scenario", Value::string(cell.scenario.label()));
    c.set("sim_s", number(cell.result.sim_time));
    c.set("crashed", Value::boolean(cell.result.crashed));
    c.set("recovered", Value::boolean(cell.result.recovered));
    c.set("lateral_mean_cm", number(cell.result.lateral_mean_cm));
    c.set("pose_rmse_m", number(cell.result.pose_rmse_m));
    cells.push_back(std::move(c));
  }

  // A cell succeeds when it neither crashed nor stayed unrecovered
  // (success_pct). `failed` counts only cells that produced no run at all.
  const auto empty = static_cast<double>(
      std::count_if(first.begin(), first.end(), [](const srl::ScenarioCell& c) {
        return c.result.sim_time <= 0.0;
      }));
  const auto ok = static_cast<double>(
      std::count_if(first.begin(), first.end(), [](const srl::ScenarioCell& c) {
        return !c.result.crashed && c.result.recovered;
      }));
  const auto n_passes = static_cast<double>(n_timed);
  Value out = Value::object();
  out.set("attempted", number(static_cast<double>(first.size()) * n_passes));
  out.set("failed", number(empty * n_passes));
  out.set("ops", number(static_cast<double>(first.size())));
  out.set("ops_ok", number(ok));
  out.set("setups", std::move(setups));
  out.set("passes", std::move(passes));
  out.set("cells", std::move(cells));

  if (options.trace) {
    // Each cell again, alone, as a one-cell matrix on this thread.
    Value reruns = Value::array();
    std::string rerun_mismatch;
    for (const srl::ScenarioCell& cell : first) {
      srl::ScenarioMatrixConfig one = config;
      one.localizers = {cell.localizer};
      one.scenarios = {cell.scenario};
      one.matrix_threads = 1;
      const srl::Stopwatch watch;
      const std::vector<srl::ScenarioCell> alone =
          srl::ScenarioMatrix{one}.run(track);
      Value r = Value::object();
      r.set("localizer", Value::string(cell.localizer));
      r.set("wall_s", number(watch.elapsed_s()));
      reruns.push_back(std::move(r));
      const std::string field = result_diff(cell.result, alone.at(0).result);
      if (!field.empty() && rerun_mismatch.empty()) {
        rerun_mismatch = cell.localizer + " " + cell.scenario.label() + " " +
                         field;
      }
    }
    checks.add("cell_reruns_bitwise", rerun_mismatch.empty(),
               rerun_mismatch.empty()
                   ? "every one-cell rerun reproduces its grid cell"
                   : "one-cell rerun differs: " + rerun_mismatch);
    Value traced = Value::object();
    traced.set("reruns", std::move(reruns));
    out.set("traced", std::move(traced));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_options(argc, argv, options)) {
    std::cerr << "usage: " << argv[0]
              << " --workload <synpf_race|carto_slip_race|robustness_grid>"
                 " --seed <n> --seconds <s> --trace <0|1>\n";
    return 2;
  }
  if (options.trace && !kTracedBuild) {
    std::cerr << "perfbench: --trace 1 needs the perfbench_traced binary\n";
    return 2;
  }

  Value provenance = Value::object();
  provenance.set("simd_backend",
                 Value::string(srl::simd::name(srl::simd::active())));
  provenance.set("default_lanes", number(srl::resolve_thread_count(0)));
  provenance.set("nproc", number(std::thread::hardware_concurrency()));
  provenance.set("build_type", Value::string(PERFBENCH_BUILD_TYPE));
  provenance.set("seed", number(static_cast<double>(options.seed)));
  Value overrides = Value::array();
  for (const char* knob : {"SRL_SIMD", "SRL_THREADS", "SRL_BUDGET_MS",
                           "SRL_FAST"}) {
    if (const char* value = std::getenv(knob)) {
      std::cerr << "perfbench: warning: " << knob << "=" << value
                << " is set; these numbers are not the default "
                   "configuration\n";
      overrides.push_back(Value::string(std::string(knob) + "=" + value));
    }
  }
  provenance.set("env_overrides", std::move(overrides));

  Checks checks;
  Value body;
  if (options.workload == "synpf_race") {
    body = run_race({.synpf = true,
                     .mu = 0.76,
                     .laps = 2,
                     .nominal_pass_s = 3.6,
                     .min_passes = 5,
                     .setup_batch = 1},
                    options, checks, provenance);
  } else if (options.workload == "carto_slip_race") {
    body = run_race({.synpf = false,
                     .mu = 0.55,
                     .laps = 3,
                     .nominal_pass_s = 5.0,
                     .min_passes = 5,
                     .setup_batch = 8},
                    options, checks, provenance);
  } else if (options.workload == "robustness_grid") {
    body = run_grid(options, checks, provenance);
  } else {
    std::cerr << "perfbench: unknown workload '" << options.workload << "'\n";
    return 2;
  }

  body.set("workload", Value::string(options.workload));
  body.set("trace", Value::boolean(options.trace));
  body.set("peak_rss_mb", number(peak_rss_mb()));
  body.set("provenance", std::move(provenance));
  body.set("checks", std::move(checks.list));
  std::cout << body.dump(0) << '\n';
  return 0;
}
