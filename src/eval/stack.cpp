#include "eval/stack.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string_view>
#include <utility>

#include "common/fingerprint.hpp"
#include "eval/frontier/scenario_sampler.hpp"
#include "slam/pure_localization.hpp"

namespace srl {

namespace {

constexpr std::string_view kSynPfName = "SynPF";
constexpr std::string_view kCartoLiteName = "CartoLite";
constexpr std::string_view kRecoverySuffix = "+Recovery";
constexpr std::string_view kGovernorSuffix = "+Governor";
constexpr std::string_view kBudgetSuffix = "+Budget";
constexpr const char* kGovernName = "govern";
constexpr const char* kEnforceName = "enforce";

bool strip_suffix(std::string& kind, std::string_view suffix) {
  const bool found = kind.size() > suffix.size() && kind.ends_with(suffix);
  if (found) kind.resize(kind.size() - suffix.size());
  return found;
}

/// Strict member reader for a recipe that arrived from outside the program.
/// Every member is optional, but a present one must be well formed; the
/// first malformed one sets `error` and turns later reads into no-ops.
struct RecipeReader {
  const json::Value& recipe;
  std::string error{};

  const json::Value* find(const char* key) const {
    return error.empty() ? recipe.find(key) : nullptr;
  }
  void reject(const char* key, const char* what) {
    error = std::string{key} + " must be " + what;
  }
  /// Absent or empty keeps `out`.
  void text(const char* key, std::string& out) {
    const json::Value* f = find(key);
    if (f == nullptr) return;
    if (!f->is_string()) return reject(key, "a string");
    if (!f->as_string().empty()) out = f->as_string();
  }
  void count(const char* key, int& out) {
    const json::Value* f = find(key);
    if (f == nullptr) return;
    const double d = f->as_double(-1.0);
    if (!(d >= 1.0) || d > INT_MAX || d != std::floor(d)) {
      return reject(key, "a positive integer");
    }
    out = static_cast<int>(d);
  }
  void number(const char* key, double& out, double min, const char* what) {
    const json::Value* f = find(key);
    if (f == nullptr) return;
    const double d = f->as_double(std::nan(""));
    if (!std::isfinite(d) || d < min) return reject(key, what);
    out = d;
  }
  void seed(const char* key, std::uint64_t& out) {
    const json::Value* f = find(key);
    if (f == nullptr) return;
    const std::optional<std::uint64_t> v = seed_from_json(*f);
    if (v.has_value()) {
      out = *v;
    } else {
      reject(key, "a hex string or a non-negative integer");
    }
  }
};

/// The fault pipeline `spec` describes. A frontier track recipe names a
/// sampled fault envelope (phase/ramp/window), rebuilt from the replay key;
/// otherwise the canonical fault is applied unless it is the clean baseline
/// or a kidnap.
std::unique_ptr<fault::FaultPipeline> build_pipeline(const StackSpec& spec,
                                                     const LidarConfig& lidar) {
  auto pipeline =
      std::make_unique<fault::FaultPipeline>(spec.fault_seed, lidar);
  std::uint64_t seed = 0;
  std::uint32_t index = 0;
  if (frontier::ScenarioSampler::parse_replay_recipe(spec.track, seed, index)) {
    const frontier::SampledScenario scenario =
        frontier::ScenarioSampler{seed}.sample(index);
    if (scenario.severity > 0.0) {
      pipeline->add(fault::make_injector(scenario.axis, scenario.profile));
    }
  } else if (spec.fault != "kidnap" &&
             (spec.fault != "none" || spec.severity != 0.0)) {
    pipeline->add(spec.fault, spec.severity);
  }
  return pipeline;
}

}  // namespace

bool parse_stack_kind(const std::string& kind, StackSpec& out) {
  std::string rest = kind;
  const GovernorMode governor =
      strip_suffix(rest, kGovernorSuffix)  ? GovernorMode::kGovern
      : strip_suffix(rest, kBudgetSuffix) ? GovernorMode::kEnforce
                                          : GovernorMode::kNone;
  const bool recovery = strip_suffix(rest, kRecoverySuffix);
  if (rest != kSynPfName && rest != kCartoLiteName) return false;
  out.base = rest == kSynPfName ? BaseLocalizer::kSynPf
                                : BaseLocalizer::kCartoLite;
  out.recovery = recovery;
  out.governor = governor;
  return true;
}

std::string stack_kind(const StackSpec& spec) {
  std::string kind{spec.base == BaseLocalizer::kSynPf ? kSynPfName
                                                      : kCartoLiteName};
  if (spec.recovery) kind += kRecoverySuffix;
  if (spec.governor == GovernorMode::kGovern) kind += kGovernorSuffix;
  if (spec.governor == GovernorMode::kEnforce) kind += kBudgetSuffix;
  return kind;
}

std::optional<std::uint64_t> seed_from_json(const json::Value& v) {
  if (v.is_string()) return parse_hex(v.as_string());
  const double d = v.as_double(-1.0);
  if (d >= 0.0 && d < 18446744073709551616.0 && d == std::floor(d)) {
    return static_cast<std::uint64_t>(d);
  }
  return std::nullopt;
}

json::Value stack_spec_to_json(const StackSpec& spec) {
  json::Value v = json::Value::object();
  v.set("track", json::Value::string(spec.track));
  v.set("localizer", json::Value::string(stack_kind(spec)));
  v.set("n_particles",
        json::Value::number(static_cast<double>(spec.n_particles)));
  v.set("threads", json::Value::number(static_cast<double>(spec.threads)));
  v.set("range", json::Value::string(to_string(spec.range)));
  v.set("beams", json::Value::number(static_cast<double>(spec.beams)));
  v.set("pf_seed", json::Value::string(to_hex(spec.pf_seed)));
  v.set("fault", json::Value::string(spec.fault));
  v.set("severity", json::Value::number(spec.severity));
  v.set("fault_seed", json::Value::string(to_hex(spec.fault_seed)));
  // Governor members only for governed stacks, so ungoverned recipes read
  // exactly as they did before the governor existed.
  if (spec.governor != GovernorMode::kNone) {
    const bool shed = spec.governor == GovernorMode::kGovern;
    v.set("governor", json::Value::string(shed ? kGovernName : kEnforceName));
    v.set("budget_ms", json::Value::number(spec.budget_ms));
  }
  return v;
}

bool stack_spec_from_json(const json::Value& v, StackSpec& out,
                          std::string* error) {
  const auto fail = [error](std::string reason) {
    if (error != nullptr) *error = std::move(reason);
    return false;
  };
  if (!v.is_object()) return fail("stack recipe must be an object");
  RecipeReader read{v};
  std::string kind;
  read.text("localizer", kind);
  StackSpec spec;
  if (read.error.empty() && !parse_stack_kind(kind, spec)) {
    read.error = "unknown localizer kind: \"" + kind + "\"";
  }
  std::string range = to_string(spec.range);
  std::string governor;
  read.text("track", spec.track);
  read.count("n_particles", spec.n_particles);
  read.count("threads", spec.threads);
  read.text("range", range);
  read.count("beams", spec.beams);
  read.seed("pf_seed", spec.pf_seed);
  read.text("fault", spec.fault);
  read.number("severity", spec.severity, -HUGE_VAL, "a finite number");
  read.seed("fault_seed", spec.fault_seed);
  read.text("governor", governor);
  read.number("budget_ms", spec.budget_ms, 0.0, "a non-negative number");
  if (!read.error.empty()) return fail(read.error);

  const RangeMethodKind backends[] = {
      RangeMethodKind::kBresenham, RangeMethodKind::kRayMarching,
      RangeMethodKind::kCddt, RangeMethodKind::kLut};
  const auto* backend = std::find_if(
      std::begin(backends), std::end(backends),
      [&range](RangeMethodKind kind) { return to_string(kind) == range; });
  if (backend == std::end(backends)) {
    return fail("unknown range backend: \"" + range + "\"");
  }
  spec.range = *backend;

  // Older frontier boxes name a bare kind plus this member (the enforcer on
  // the compute_pressure axis), so it may add the governor the kind omits,
  // but never contradict one the kind names.
  if (!governor.empty()) {
    GovernorMode mode = GovernorMode::kNone;
    if (governor == kGovernName) mode = GovernorMode::kGovern;
    if (governor == kEnforceName) mode = GovernorMode::kEnforce;
    if (mode == GovernorMode::kNone) {
      return fail("unknown governor mode: \"" + governor + "\"");
    }
    if (spec.governor != GovernorMode::kNone && spec.governor != mode) {
      return fail("governor \"" + governor + "\" contradicts kind \"" + kind +
                  "\"");
    }
    spec.governor = mode;
  }
  out = std::move(spec);
  return true;
}

std::optional<Track> track_from_recipe(const std::string& recipe) {
  if (recipe == "test_track") return TrackGenerator::test_track();
  if (recipe == "hairpin") return TrackGenerator::hairpin();
  const std::string oval_prefix = "oval:";
  if (recipe.compare(0, oval_prefix.size(), oval_prefix) == 0) {
    double straight = 0.0;
    double radius = 0.0;
    if (std::sscanf(recipe.c_str() + oval_prefix.size(), "%lf,%lf", &straight,
                    &radius) == 2 &&
        straight > 0.0 && radius > 0.0) {
      return TrackGenerator::oval(straight, radius);
    }
  }
  std::uint64_t seed = 0;
  std::uint32_t index = 0;
  if (frontier::ScenarioSampler::parse_replay_recipe(recipe, seed, index)) {
    const frontier::ScenarioSampler sampler{seed};
    return sampler.build_track(sampler.sample(index));
  }
  return std::nullopt;
}

Stack build_stack(const StackSpec& spec,
                  const std::shared_ptr<const OccupancyGrid>& map,
                  const LidarConfig& lidar) {
  Stack stack;
  stack.pipeline = build_pipeline(spec, lidar);
  if (spec.base == BaseLocalizer::kSynPf) {
    SynPfConfig cfg;
    cfg.range = spec.range;
    cfg.beams = spec.beams;
    cfg.seed = spec.pf_seed;
    cfg.filter.n_particles = spec.n_particles;
    cfg.filter.n_threads = spec.threads;
    auto pf = std::make_unique<SynPf>(cfg, map, lidar);
    stack.filter = &pf->filter();
    stack.base = std::move(pf);
  } else {
    stack.base = std::make_unique<CartoLocalizer>(PureLocalizationOptions{},
                                                  map, lidar);
  }
  stack.faulted =
      std::make_unique<fault::FaultedLocalizer>(*stack.base, *stack.pipeline);
  stack.top = stack.faulted.get();

  // Supervise *outside* the faults, so sensor corruption reaches the filter
  // upstream of divergence detection.
  if (spec.recovery) {
    stack.supervisor = std::make_unique<recovery::SupervisedLocalizer>(
        *stack.top, recovery::SupervisedLocalizerConfig{}, map, lidar);
    stack.supervisor->bind_filter(stack.filter);
    stack.top = stack.supervisor.get();
  }

  if (spec.governor != GovernorMode::kNone) {
    governor::GovernorConfig gcfg;
    gcfg.budget_ms = spec.budget_ms;
    gcfg.shed = spec.governor == GovernorMode::kGovern;
    gcfg.adaptive = gcfg.shed;  // the enforcer keeps the workload fixed
    // Knobless localizers (no bound filter) are accounted at the pinned
    // nominal cost; ignored once a filter is bound.
    gcfg.nominal_cost_units = governor::kCartoNominalCostUnits;
    stack.governor =
        std::make_unique<governor::GovernedLocalizer>(*stack.top, gcfg);
    stack.governor->bind_filter(stack.filter);
    stack.governor->bind_pressure(stack.pipeline.get());
    stack.governor->bind_supervisor(stack.supervisor.get());
    stack.top = stack.governor.get();
  }
  return stack;
}

StackRun run_stack(const StackSpec& spec, const Track& track,
                   const std::shared_ptr<const OccupancyGrid>& map,
                   const ExperimentConfig& experiment, telemetry::Sink sink,
                   const StackRecording& recording) {
  StackRun run;
  run.stack = build_stack(spec, map, experiment.lidar);

  telemetry::EventLog empty_journal;
  std::unique_ptr<telemetry::FlightRecorder> recorder;
  if (!recording.dump_dir.empty()) {
    telemetry::FlightRecorderConfig rcfg;
    rcfg.dump_dir = recording.dump_dir;
    rcfg.label = recording.label;
    recorder = std::make_unique<telemetry::FlightRecorder>(
        rcfg, sink.events != nullptr ? sink.events : &empty_journal);
    json::Value provenance = json::Value::object();
    provenance.set("stack", stack_spec_to_json(spec));
    for (const auto& [key, value] : recording.provenance.members()) {
      provenance.set(key, value);
    }
    recorder->set_provenance(std::move(provenance));

    // Per-tick enrichment over the live stack. Pure observers all the way
    // down, so attaching it cannot change any estimate; health signals come
    // from the filter's cached per-update block, not O(n) passes of its own.
    ParticleFilter* pf = run.stack.filter;
    const recovery::SupervisedLocalizer* sup = run.stack.supervisor.get();
    const fault::FaultedLocalizer* flt = run.stack.faulted.get();
    recorder->set_tick_probe([pf, sup, flt, top_k = rcfg.top_k](
                                 telemetry::TickSnapshot& snap) {
      if (pf != nullptr) {
        snap.ess_fraction = pf->health().ess_fraction;
        snap.weight_entropy = pf->health().weight_entropy;
        snap.injection_prob = pf->recovery_injection_prob();
        snap.digest.clear();
        for (const Particle& p : pf->top_particles(top_k)) {
          snap.digest.push_back(p.pose.x);
          snap.digest.push_back(p.pose.y);
          snap.digest.push_back(p.pose.theta);
          snap.digest.push_back(p.weight);
        }
      }
      if (sup != nullptr) {
        snap.health_state = static_cast<int>(sup->state());
        snap.latch_mask = sup->detector().latch_mask();
        snap.alignment = sup->last_alignment();
      }
      snap.fault_level = flt->last_fault_level();
    });
    sink.recorder = recorder.get();
  }

  ExperimentRunner runner{track, experiment};
  run.result = runner.run(*run.stack.top, nullptr, sink);
  if (recorder != nullptr) run.blackboxes = recorder->dump_paths();
  return run;
}

}  // namespace srl
