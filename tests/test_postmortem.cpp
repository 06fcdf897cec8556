#include "eval/postmortem.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/fingerprint.hpp"
#include "eval/frontier/frontier_search.hpp"
#include "eval/scenario_matrix.hpp"
#include "eval/stack.hpp"
#include "gridmap/track_generator.hpp"
#include "replay_fixture.hpp"
#include "telemetry/flight_recorder.hpp"

namespace srl {
namespace {

// ------------------------------------------------------ recorder unit tests

TEST(FlightRecorder, RingKeepsMostRecentWindow) {
  telemetry::FlightRecorderConfig cfg;
  cfg.window = 8;
  telemetry::FlightRecorder rec{cfg};
  for (int i = 0; i < 20; ++i) {
    telemetry::TickSnapshot snap;
    snap.tick = static_cast<std::uint64_t>(i);
    snap.t = 0.1 * i;
    snap.est_x = static_cast<double>(i);
    rec.record_tick(snap);
  }
  EXPECT_EQ(rec.ticks(), 20u);
  const std::vector<telemetry::TickSnapshot> window = rec.window();
  ASSERT_EQ(window.size(), 8u);
  // Chronological order, most recent 8 of the 20.
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i].tick, 12u + i);
  }
}

TEST(FlightRecorder, EstimateHashIsOrderSensitive) {
  auto hash_of = [](std::initializer_list<double> xs) {
    telemetry::FlightRecorder rec;
    for (const double x : xs) {
      telemetry::TickSnapshot snap;
      snap.est_x = x;
      rec.record_tick(snap);
    }
    return rec.estimate_hash();
  };
  EXPECT_EQ(hash_of({1.0, 2.0}), hash_of({1.0, 2.0}));
  EXPECT_NE(hash_of({1.0, 2.0}), hash_of({2.0, 1.0}));
  EXPECT_NE(hash_of({1.0}), hash_of({1.0, 1.0}));
}

TEST(FlightRecorder, TickProbeEnrichesSnapshots) {
  telemetry::FlightRecorder rec;
  rec.set_tick_probe([](telemetry::TickSnapshot& snap) {
    snap.ess_fraction = 0.5;
    snap.digest = {1.0, 2.0, 3.0, 4.0};
  });
  rec.record_tick({});
  const auto window = rec.window();
  ASSERT_EQ(window.size(), 1u);
  EXPECT_DOUBLE_EQ(window[0].ess_fraction, 0.5);
  EXPECT_EQ(window[0].digest.size(), 4u);
}

TEST(FlightRecorder, DumpBudgetAndPaths) {
  telemetry::FlightRecorderConfig cfg;
  cfg.max_dumps = 2;
  cfg.dump_dir =
      (std::filesystem::path{::testing::TempDir()} / "srl_bb_budget").string();
  cfg.label = "budget";
  telemetry::FlightRecorder rec{cfg};
  EXPECT_TRUE(rec.can_dump());
  EXPECT_EQ(rec.next_dump_path("divergence"),
            cfg.dump_dir + "/budget-divergence-0.json");
  ASSERT_TRUE(rec.dump(rec.next_dump_path("divergence"), "divergence", 1.0,
                       json::Value::object()));
  ASSERT_TRUE(rec.dump(rec.next_dump_path("crash"), "crash", 2.0,
                       json::Value::object()));
  EXPECT_FALSE(rec.can_dump());
  EXPECT_EQ(rec.next_dump_path("crash"), "");
  EXPECT_EQ(rec.dump_paths().size(), 2u);
  std::filesystem::remove_all(cfg.dump_dir);
}

TEST(FlightRecorder, TraceSidecarPathSwapsExtension) {
  EXPECT_EQ(telemetry::FlightRecorder::trace_sidecar_path("a/b/run-0.json"),
            "a/b/run-0.srlt");
}

// ------------------------------------------- end-to-end postmortem pipeline

// One supervised SynPF cell kidnapped mid-run: the divergence episode must
// dump a black box, and the black box must replay bitwise at 1 and 8
// filter lanes. This is the CI smoke for the whole record -> dump -> replay
// contract.
class PostmortemPipeline : public ::testing::Test {
 protected:
  static ScenarioMatrixConfig base_config() {
    ScenarioMatrixConfig config;
    config.localizers = {"SynPF+Recovery"};
    config.scenarios = {{"kidnap", 1.0}};
    config.n_particles = 400;
    config.experiment.laps = 1000000;  // kidnap cells run the clock out
    config.experiment.max_sim_time = 18.0;
    config.experiment.profile.scale = 0.5;
    config.kidnap_time = 6.0;
    config.track_name = "oval:8,2.5";
    return config;
  }
  static Track track() { return TrackGenerator::oval(8.0, 2.5); }
};

TEST_F(PostmortemPipeline, KidnapDumpsAndReplaysBitwise) {
  const std::string dir =
      (std::filesystem::path{::testing::TempDir()} / "srl_bb_e2e").string();
  std::filesystem::remove_all(dir);

  ScenarioMatrixConfig config = base_config();
  config.blackbox_dir = dir;
  const ScenarioMatrix matrix{config};
  const std::vector<ScenarioCell> cells = matrix.run(track());
  ASSERT_EQ(cells.size(), 1u);
  const ScenarioCell& cell = cells[0];

  // The kidnap must have opened a divergence episode and dumped a box.
  EXPECT_GE(cell.divergence_episodes, 1);
  ASSERT_FALSE(cell.blackboxes.empty());
  EXPECT_GT(cell.events_total, 0u);
  EXPECT_GT(cell.events_error, 0u);  // experiment.divergence_open is error

  const std::optional<Blackbox> box = load_blackbox(cell.blackboxes.front());
  ASSERT_TRUE(box.has_value());
  EXPECT_EQ(box->reason, "divergence");
  ASSERT_TRUE(box->has_stack);
  EXPECT_EQ(stack_kind(box->stack), "SynPF+Recovery");
  EXPECT_EQ(box->stack.track, "oval:8,2.5");
  ASSERT_TRUE(box->has_trace);
  EXPECT_GT(box->ticks, 0u);
  EXPECT_FALSE(box->events.empty());

  // The rendered timeline mentions the kidnap and the divergence.
  const std::string timeline = render_timeline(*box);
  EXPECT_NE(timeline.find("experiment.kidnap"), std::string::npos);
  EXPECT_NE(timeline.find("experiment.divergence_open"), std::string::npos);

  // Bitwise replay at the recorded lane count and at 8 lanes.
  const PostmortemReplay r1 = replay_blackbox(*box);
  ASSERT_TRUE(r1.ok) << r1.error;
  EXPECT_TRUE(r1.bitwise_match) << r1.error;
  EXPECT_EQ(r1.ticks, box->ticks);
  EXPECT_EQ(r1.estimate_hash, box->estimate_hash);

  const PostmortemReplay r8 = replay_blackbox(*box, 8);
  ASSERT_TRUE(r8.ok) << r8.error;
  EXPECT_TRUE(r8.bitwise_match) << r8.error;

  std::filesystem::remove_all(dir);
}

// A box from outside the program whose recorded hash is malformed is
// refused at load with a reason, not replayed into a spurious MISMATCH.
// The sim seed travels as hex, and the numeric form older boxes wrote
// still loads.
TEST_F(PostmortemPipeline, MalformedEstimateHashIsRefusedWithAReason) {
  const std::string dir =
      (std::filesystem::path{::testing::TempDir()} / "srl_bb_bad_hash")
          .string();
  std::filesystem::remove_all(dir);
  ScenarioMatrixConfig config = base_config();
  config.blackbox_dir = dir;
  const std::vector<ScenarioCell> cells = ScenarioMatrix{config}.run(track());
  ASSERT_EQ(cells.size(), 1u);
  ASSERT_FALSE(cells[0].blackboxes.empty());
  const std::string path = cells[0].blackboxes.front();

  std::optional<json::Value> doc = json::Value::load(path);
  ASSERT_TRUE(doc.has_value());
  const std::optional<Blackbox> sound = load_blackbox(path);
  ASSERT_TRUE(sound.has_value());
  EXPECT_EQ(sound->load_error, "");
  EXPECT_EQ(json::str(*doc, "sim_seed"), to_hex(sound->sim_seed));

  doc->set("sim_seed",
           json::Value::number(static_cast<double>(sound->sim_seed)));
  ASSERT_TRUE(doc->save(path));
  const std::optional<Blackbox> older = load_blackbox(path);
  ASSERT_TRUE(older.has_value());
  EXPECT_EQ(older->load_error, "");
  EXPECT_EQ(older->sim_seed, sound->sim_seed);

  doc->set("estimate_hash", json::Value::string("not-a-hash"));
  ASSERT_TRUE(doc->save(path));
  const std::optional<Blackbox> box = load_blackbox(path);
  ASSERT_TRUE(box.has_value());
  EXPECT_NE(box->load_error.find("estimate_hash"), std::string::npos)
      << box->load_error;
  EXPECT_NE(render_timeline(*box).find(box->load_error), std::string::npos);
  const PostmortemReplay replay = replay_blackbox(*box);
  EXPECT_FALSE(replay.ok);
  EXPECT_EQ(replay.error, box->load_error);
  std::filesystem::remove_all(dir);
}

TEST_F(PostmortemPipeline, RecorderOffIsBitwiseNoOp) {
  const std::string dir =
      (std::filesystem::path{::testing::TempDir()} / "srl_bb_noop").string();
  std::filesystem::remove_all(dir);

  ScenarioMatrixConfig on_cfg = base_config();
  on_cfg.blackbox_dir = dir;
  ScenarioMatrixConfig off_cfg = base_config();
  off_cfg.blackbox_dir.clear();

  const std::vector<ScenarioCell> on = ScenarioMatrix{on_cfg}.run(track());
  const std::vector<ScenarioCell> off = ScenarioMatrix{off_cfg}.run(track());
  ASSERT_EQ(on.size(), 1u);
  ASSERT_EQ(off.size(), 1u);

  // Recorder on vs off: every physics-derived metric identical to the bit.
  EXPECT_TRUE(bitwise_equal(on[0].result.lateral_mean_cm,
                            off[0].result.lateral_mean_cm));
  EXPECT_TRUE(bitwise_equal(on[0].result.lateral_std_cm,
                            off[0].result.lateral_std_cm));
  EXPECT_TRUE(
      bitwise_equal(on[0].result.pose_rmse_m, off[0].result.pose_rmse_m));
  EXPECT_TRUE(bitwise_equal(on[0].result.scan_alignment,
                            off[0].result.scan_alignment));
  EXPECT_EQ(on[0].result.crashed, off[0].result.crashed);
  EXPECT_EQ(on[0].divergence_episodes, off[0].divergence_episodes);
  EXPECT_EQ(on[0].recoveries, off[0].recoveries);

  // The journal runs either way (events are sink-level, not recorder-level);
  // only the black-box artifacts require the recorder.
  EXPECT_EQ(on[0].events_total, off[0].events_total);
  EXPECT_EQ(off[0].blackboxes.size(), 0u);
  EXPECT_FALSE(on[0].blackboxes.empty());

  std::filesystem::remove_all(dir);
}

// Replays `path` at its recorded lane count and at 4 lanes.
void expect_replays_bitwise(const std::string& path) {
  const std::optional<Blackbox> box = load_blackbox(path);
  ASSERT_TRUE(box.has_value()) << path;
  ASSERT_TRUE(box->has_stack) << path;
  for (const int threads : {0, 4}) {
    const PostmortemReplay replay = replay_blackbox(*box, threads);
    ASSERT_TRUE(replay.ok) << path << ": " << replay.error;
    EXPECT_TRUE(replay.bitwise_match)
        << path << " at " << threads << " lanes: " << replay.error;
  }
}

// A governed CartoLite has no filter to bind, so its governor accounts the
// pinned nominal cost per update. At 0.5 ms every update is over budget;
// a replay that forgot the nominal cost would run budget-blind.
TEST(PostmortemReplay, GovernedCartoLiteMatrixBoxReplaysBitwise) {
  const std::string dir =
      (std::filesystem::path{::testing::TempDir()} / "srl_bb_carto_budget")
          .string();
  std::filesystem::remove_all(dir);
  ScenarioMatrixConfig config;
  config.localizers = {"CartoLite+Budget"};
  config.scenarios = {{"compute_pressure", 0.8}};
  config.budget_ms = 0.5;
  config.experiment.laps = 2;
  config.experiment.max_sim_time = 60.0;
  config.track_name = "oval:8,2.5";
  config.blackbox_dir = dir;
  const std::vector<ScenarioCell> cells =
      ScenarioMatrix{config}.run(TrackGenerator::oval(8.0, 2.5));
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_GT(cells[0].deadline_misses, 0u);
  ASSERT_FALSE(cells[0].blackboxes.empty());
  for (const std::string& path : cells[0].blackboxes) {
    expect_replays_bitwise(path);
  }
  std::filesystem::remove_all(dir);
}

// The frontier races a bare kind inside a budget enforcer on the
// compute_pressure axis; its defining-failure box must rebuild that
// governor, sampled envelope and all.
TEST(PostmortemReplay, FrontierDefiningFailureBoxReplaysBitwise) {
  const std::string dir =
      (std::filesystem::path{::testing::TempDir()} / "srl_bb_frontier")
          .string();
  std::filesystem::remove_all(dir);
  frontier::FrontierSearchConfig config =
      frontier::FrontierSearchConfig::smoke();
  config.localizers = {"CartoLite"};
  config.axes = {8};  // compute_pressure
  config.bisect_iterations = 0;
  config.blackbox_dir = dir;
  const frontier::FrontierResult result = frontier::run_frontier_search(config);
  ASSERT_EQ(result.points.size(), 1u);
  const frontier::FrontierPoint& point = result.points[0];
  ASSERT_FALSE(point.censored);
  ASSERT_FALSE(point.blackboxes.empty());
  for (const std::string& path : point.blackboxes) {
    expect_replays_bitwise(dir + "/" + path);
    // The defining-failure re-run journals, so the box carries the
    // episode's event timeline.
    const std::optional<Blackbox> box = load_blackbox(dir + "/" + path);
    ASSERT_TRUE(box.has_value());
    EXPECT_FALSE(box->events.empty());
    EXPECT_GT(box->events_total, 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(StackSpec, JsonRoundTrip) {
  StackSpec spec;
  spec.track = "oval:8,2.5";
  spec.recovery = true;
  spec.n_particles = 777;
  spec.threads = 4;
  spec.range = RangeMethodKind::kLut;
  spec.beams = 42;
  spec.pf_seed = 99;
  spec.fault = "lidar_dropout";
  spec.severity = 0.5;
  spec.fault_seed = 0xabcdefULL;

  StackSpec governed = spec;
  governed.base = BaseLocalizer::kCartoLite;
  governed.governor = GovernorMode::kEnforce;
  governed.budget_ms = 0.5;
  // A seed above 2^53: a JSON double would round its low bits away.
  StackSpec wide_seed = spec;
  wide_seed.fault_seed = 0x9E3779B97F4A7C15ULL;
  wide_seed.pf_seed = ~0ULL;

  for (const StackSpec& in : {spec, governed, wide_seed}) {
    StackSpec back;
    std::string error;
    ASSERT_TRUE(stack_spec_from_json(stack_spec_to_json(in), back, &error))
        << error;
    EXPECT_EQ(back, in) << stack_spec_to_json(in).dump(0);
  }
}

TEST(StackSpec, ReadsNumericSeedsOfOlderBoxes) {
  json::Value v = stack_spec_to_json(StackSpec{});
  v.set("pf_seed", json::Value::number(99.0));
  v.set("fault_seed", json::Value::number(static_cast<double>(0x7a017)));
  StackSpec back;
  ASSERT_TRUE(stack_spec_from_json(v, back));
  EXPECT_EQ(back.pf_seed, 99u);
  EXPECT_EQ(back.fault_seed, 0x7a017u);
}

// Older frontier boxes name a bare kind plus a separate governor member.
TEST(StackSpec, GovernorMemberAddsTheGovernorABareKindOmits) {
  json::Value v = stack_spec_to_json(StackSpec{});
  v.set("localizer", json::Value::string("CartoLite"));
  v.set("governor", json::Value::string("enforce"));
  v.set("budget_ms", json::Value::number(2.0));
  StackSpec back;
  ASSERT_TRUE(stack_spec_from_json(v, back));
  EXPECT_EQ(stack_kind(back), "CartoLite+Budget");
  EXPECT_EQ(back.budget_ms, 2.0);
}

TEST(StackSpec, KindGrammarRoundTripsEveryConfiguredKind) {
  std::vector<std::string> kinds = ScenarioMatrix::smoke_config().localizers;
  for (const auto& list :
       {ScenarioMatrix::full_config().localizers,
        frontier::FrontierSearchConfig::smoke().localizers,
        // bench_budget_sweep's grid
        std::vector<std::string>{"SynPF+Governor", "SynPF+Budget",
                                 "CartoLite+Budget"}}) {
    kinds.insert(kinds.end(), list.begin(), list.end());
  }
  for (const std::string& kind : kinds) {
    StackSpec spec;
    ASSERT_TRUE(parse_stack_kind(kind, spec)) << kind;
    EXPECT_EQ(stack_kind(spec), kind);
  }

  // parse(print(s)) == s over the whole grammar.
  for (const BaseLocalizer base :
       {BaseLocalizer::kSynPf, BaseLocalizer::kCartoLite}) {
    for (const bool recovery : {false, true}) {
      for (const GovernorMode governor :
           {GovernorMode::kNone, GovernorMode::kGovern,
            GovernorMode::kEnforce}) {
        StackSpec spec;
        spec.base = base;
        spec.recovery = recovery;
        spec.governor = governor;
        StackSpec back;
        ASSERT_TRUE(parse_stack_kind(stack_kind(spec), back));
        EXPECT_EQ(back, spec) << stack_kind(spec);
      }
    }
  }

  StackSpec untouched;
  for (const char* bad :
       {"", "SynPF+", "+Recovery", "synpf", "SynPF+Budget+Recovery",
        "SynPF+Governor+Budget", "SynPF+Recovery+Recovery", "AMCL"}) {
    EXPECT_FALSE(parse_stack_kind(bad, untouched)) << bad;
  }
  EXPECT_EQ(untouched, StackSpec{});
}

TEST(StackSpec, FromJsonRejectsBadRecipesWithAReason) {
  struct Row {
    const char* key;
    json::Value value;
    const char* reason;  ///< substring of the reported error
  };
  const std::vector<Row> rows = {
      {"localizer", json::Value::string("AMCL"), "unknown localizer kind"},
      {"localizer", json::Value::number(1.0), "localizer must be a string"},
      {"n_particles", json::Value::number(0.0), "n_particles"},
      {"n_particles", json::Value::number(-5.0), "n_particles"},
      {"n_particles", json::Value::number(12.5), "n_particles"},
      {"n_particles", json::Value::number(1e12), "n_particles"},
      {"n_particles", json::Value::string("800"), "n_particles"},
      {"threads", json::Value::number(0.0), "threads"},
      {"beams", json::Value::number(3e9), "beams"},
      {"range", json::Value::string("raymarch"), "unknown range backend"},
      {"governor", json::Value::string("shed"), "unknown governor mode"},
      {"governor", json::Value::string("govern"), "contradicts kind"},
      {"budget_ms", json::Value::number(-1.0), "budget_ms"},
      {"severity", json::Value::string("high"), "severity"},
      {"pf_seed", json::Value::number(-1.0), "pf_seed"},
      {"pf_seed", json::Value::number(0.5), "pf_seed"},
      {"fault_seed", json::Value::string("0xZZ"), "fault_seed"},
      {"fault_seed", json::Value::string("0x1234567890abcdef0"), "fault_seed"},
      {"track", json::Value::string("frontier:00000000000000ff:5xyz"),
       "unknown track recipe"},
      {"track", json::Value::string("frontier:-1:0"), "unknown track recipe"},
      {"track", json::Value::string("frontier:0x00000000000000ff:1"),
       "unknown track recipe"},
      {"track", json::Value::string("frontier:00000000000000ff:4294967301"),
       "unknown track recipe"},
      {"track", json::Value::string("oval:8,2.5xyz"), "unknown track recipe"},
      {"track", json::Value::string("oval:inf,2.5"), "unknown track recipe"},
      {"track", json::Value::string("oval:8,-2.5"), "unknown track recipe"},
      {"track", json::Value::string("circuit"), "unknown track recipe"},
  };
  StackSpec enforced;
  enforced.governor = GovernorMode::kEnforce;
  enforced.budget_ms = 2.0;
  for (const Row& row : rows) {
    json::Value v = stack_spec_to_json(enforced);
    v.set(row.key, row.value);
    StackSpec out;
    std::string error;
    EXPECT_FALSE(stack_spec_from_json(v, out, &error))
        << row.key << "=" << row.value.dump(0);
    EXPECT_NE(error.find(row.reason), std::string::npos)
        << row.key << ": got \"" << error << "\"";
    EXPECT_EQ(out, StackSpec{}) << row.key;
  }

  std::string error;
  StackSpec out;
  EXPECT_FALSE(stack_spec_from_json(json::Value::array(), out, &error));
  EXPECT_FALSE(error.empty());
  json::Value no_kind = stack_spec_to_json(StackSpec{});
  no_kind.set("localizer", json::Value::string(""));
  EXPECT_FALSE(stack_spec_from_json(no_kind, out, &error));
}

TEST(Blackbox, LoadRejectsWrongSchemaAndMissingFile) {
  EXPECT_FALSE(load_blackbox("/nonexistent/srl/box.json").has_value());
  const std::string path =
      (std::filesystem::path{::testing::TempDir()} / "srl_bad_schema.json")
          .string();
  json::Value v = json::Value::object();
  v.set("schema", json::Value::string("srl.other/9"));
  ASSERT_TRUE(v.save(path));
  EXPECT_FALSE(load_blackbox(path).has_value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace srl
