#pragma once

/// \file stack.hpp
/// \brief The localizer stack under test, described once: kind grammar,
/// black-box rebuild recipe, the one builder of the decorator chain, and the
/// closed-loop runner of the matrix and the frontier (DESIGN.md §10, §12).
///
/// Harnesses fill a `StackSpec`, build the run from it and stamp the same spec
/// into their black boxes; `replay_blackbox` rebuilds with the same
/// `build_stack`, so a recipe cannot drift from its run. A new localizer
/// column touches only this module.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/synpf.hpp"
#include "eval/experiment.hpp"
#include "fault/faulted_localizer.hpp"
#include "fault/pipeline.hpp"
#include "governor/governor.hpp"
#include "gridmap/track_generator.hpp"
#include "recovery/supervised_localizer.hpp"
#include "telemetry/flight_recorder.hpp"

namespace srl {

/// The unwrapped localizer at the bottom of the stack.
enum class BaseLocalizer { kSynPf, kCartoLite };

/// Compute governor (src/governor): none, shedding, or budget enforcer.
enum class GovernorMode { kNone, kGovern, kEnforce };

/// Everything that determines a localizer stack and its fault scenario.
struct StackSpec {
  BaseLocalizer base{BaseLocalizer::kSynPf};
  bool recovery{false};  ///< SupervisedLocalizer outside the faults
  GovernorMode governor{GovernorMode::kNone};
  double budget_ms{0.0};  ///< per-update budget; governed stacks only
  int n_particles{1200};
  int threads{1};  ///< filter worker lanes
  RangeMethodKind range{RangeMethodKind::kCddt};
  int beams{SynPfConfig{}.beams};
  std::uint64_t pf_seed{SynPfConfig{}.seed};
  /// Canonical fault (fault/injector.hpp factory name) at `severity`.
  /// "none" at severity 0 and "kidnap" add no pipeline stage: a kidnap
  /// corrupts the truth, not the sensors.
  std::string fault{"none"};
  double severity{0.0};
  std::uint64_t fault_seed{0x7a017ULL};
  /// Track recipe: "test_track", "hairpin", "oval:<straight>,<radius>", or a
  /// frontier replay key "frontier:<seed>:<index>". The frontier key also
  /// names the sampled fault envelope, which then replaces `fault`.
  std::string track{"test_track"};

  bool operator==(const StackSpec&) const = default;
};

/// Kind grammar `Base[+Recovery][+Governor|+Budget]` with Base "SynPF" or
/// "CartoLite". `+Governor` is shedding mode, `+Budget` the enforcer. Sets
/// `base`, `recovery` and `governor` of `out` and leaves every other field;
/// false (and `out` untouched) for anything outside the grammar.
bool parse_stack_kind(const std::string& kind, StackSpec& out);
/// The kind of `spec` in the grammar above: the inverse of the parse.
std::string stack_kind(const StackSpec& spec);

/// A 64-bit seed as a black box stores it: a `to_hex` string
/// (common/fingerprint.hpp), or the plain JSON number older boxes wrote when
/// integral and in range; nullopt for anything else.
std::optional<std::uint64_t> seed_from_json(const json::Value& v);

/// Black-box `provenance.stack` form. Seeds are hex strings so all 64 bits
/// survive; the reader also accepts the older numeric form.
json::Value stack_spec_to_json(const StackSpec& spec);
/// Parse a recipe that arrived from outside the program. Rejects unknown
/// kinds, range backends and governor modes, non-integral or non-positive
/// counts and negative budgets; on rejection returns false with the reason
/// in `error` (when non-null).
bool stack_spec_from_json(const json::Value& v, StackSpec& out,
                          std::string* error = nullptr);

/// Rasterize the track `recipe` names (see StackSpec::track); nullopt for an
/// unknown recipe.
std::optional<Track> track_from_recipe(const std::string& recipe);

/// A built stack: Governed(Supervised(Faulted(base))), each wrapper present
/// only when the spec names it, over the fault pipeline the spec describes.
/// Every layer lives on the heap, so the stack can be moved as a whole.
struct Stack {
  std::unique_ptr<fault::FaultPipeline> pipeline;
  std::unique_ptr<Localizer> base;
  ParticleFilter* filter{nullptr};  ///< SynPF's filter; null for CartoLite
  std::unique_ptr<fault::FaultedLocalizer> faulted;
  std::unique_ptr<recovery::SupervisedLocalizer> supervisor;
  std::unique_ptr<governor::GovernedLocalizer> governor;
  Localizer* top{nullptr};  ///< outermost layer: the one to drive
};

/// The one builder of the decorator chain: faults inside, supervision
/// outside, the governor outermost (it reads the supervisor's health and can
/// veto the whole update before any inner layer runs).
Stack build_stack(const StackSpec& spec,
                  const std::shared_ptr<const OccupancyGrid>& map,
                  const LidarConfig& lidar);

/// Flight-recorder settings of one closed-loop run.
struct StackRecording {
  std::string dump_dir{};  ///< empty = recorder off (bitwise no-op)
  std::string label{"run"};  ///< dump filename stem
  json::Value provenance{json::Value::object()};  ///< stamped after "stack"
};

struct StackRun {
  Stack stack;  ///< the raced stack, for per-run statistics
  ExperimentResult result;
  std::vector<std::string> blackboxes;  ///< dumped artifact paths
};

/// Build `spec`'s stack over `map` (track `track`, sensors from
/// `experiment.lidar`) and race it closed loop. `sink` is the caller's own
/// telemetry. With `recording.dump_dir` set a flight recorder rides along,
/// stamped with `spec` as its rebuild recipe; it journals `sink.events`, or
/// an empty journal when the sink has none.
StackRun run_stack(const StackSpec& spec, const Track& track,
                   const std::shared_ptr<const OccupancyGrid>& map,
                   const ExperimentConfig& experiment, telemetry::Sink sink,
                   const StackRecording& recording = {});

}  // namespace srl
