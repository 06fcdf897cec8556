#include "eval/bench_compare.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>

#include "common/json.hpp"
#include "eval/benchmark_json.hpp"
#include "eval/frontier/frontier_json.hpp"
#include "eval/throughput_json.hpp"

namespace srl {
namespace {

BenchDocument make_doc() {
  BenchDocument doc;
  doc.provenance.compiler = "testc 1.0";
  doc.provenance.build = "release";
  doc.provenance.git_sha = "deadbeef";
  doc.provenance.seed = 1234;
  doc.provenance.fault_seed = 0x7a017ULL;
  doc.provenance.laps = 2;
  doc.provenance.n_particles = 800;
  doc.provenance.fast_mode = true;

  FaultTraceFingerprint fp;
  fp.fault = "odom_slip_ramp";
  fp.severity = 1.0;
  fp.trace_hash = 0xfeedfacecafebeefULL;  // exercises the full 64-bit width
  fp.n_scans = 400;
  fp.n_odometry = 1000;
  doc.fault_traces.push_back(fp);

  auto cell = [](const char* localizer, const char* fault, double severity,
                 double lateral_cm, double p99_ms, bool crashed) {
    ScenarioCell c;
    c.localizer = localizer;
    c.scenario.fault = fault;
    c.scenario.severity = severity;
    c.result.lateral_mean_cm = lateral_cm;
    c.result.update_p99_ms = p99_ms;
    c.result.crashed = crashed;
    c.ess_fraction_p50 = 0.31;
    return c;
  };
  doc.cells.push_back(cell("SynPF", "none", 0.0, 4.5, 6.0, false));
  doc.cells.push_back(cell("SynPF", "odom_slip_ramp", 1.0, 5.0, 6.5, false));
  doc.cells.push_back(cell("CartoLite", "none", 0.0, 8.0, 9.0, false));
  doc.cells.push_back(cell("CartoLite", "odom_slip_ramp", 1.0, 0.0, 9.0, true));

  ScenarioCell kidnap = cell("SynPF+Recovery", "kidnap", 1.0, 5.2, 6.8, false);
  kidnap.has_recovery = true;
  kidnap.recovery_success = true;
  kidnap.kidnaps = 1;
  kidnap.divergence_episodes = 1;
  kidnap.recoveries = 1;
  kidnap.time_to_reloc_mean_s = 0.4;
  kidnap.time_to_reloc_max_s = 0.4;
  kidnap.post_divergence_lateral_cm = 5.0;
  kidnap.reinjections = 1;
  kidnap.global_relocs = 1;
  kidnap.recovery_transitions = 4;
  doc.cells.push_back(kidnap);

  doc.has_headline = true;
  doc.headline.fault = "odom_slip_ramp";
  doc.headline.severity = 1.0;
  doc.headline.synpf_baseline_cm = 4.5;
  doc.headline.synpf_faulted_cm = 5.0;
  doc.headline.synpf_degradation = 5.0 / 4.5;
  doc.headline.carto_baseline_cm = 8.0;
  doc.headline.carto_crashed = true;
  doc.headline.carto_degradation = HeadlineComparison::kCrashDegradation;
  return doc;
}

TEST(BenchJson, RoundTripsThroughDisk) {
  const BenchDocument doc = make_doc();
  const std::string path = ::testing::TempDir() + "bench_roundtrip.json";
  ASSERT_TRUE(write_bench_json(path, doc));

  const std::optional<BenchDocument> back = read_bench_json(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->provenance.compiler, "testc 1.0");
  EXPECT_EQ(back->provenance.seed, 1234u);
  EXPECT_EQ(back->provenance.fault_seed, 0x7a017ULL);
  EXPECT_TRUE(back->provenance.fast_mode);
  ASSERT_EQ(back->fault_traces.size(), 1u);
  EXPECT_EQ(back->fault_traces[0].trace_hash, 0xfeedfacecafebeefULL);
  ASSERT_EQ(back->cells.size(), 5u);
  EXPECT_DOUBLE_EQ(back->cells[1].result.lateral_mean_cm, 5.0);
  EXPECT_TRUE(back->cells[3].result.crashed);
  // The v2 writer emits the recovery block for every cell, so read-back
  // always carries an opinion (the in-memory default is "no opinion").
  EXPECT_TRUE(back->cells[1].has_recovery);
  EXPECT_TRUE(back->cells[4].has_recovery);
  EXPECT_TRUE(back->cells[4].recovery_success);
  EXPECT_EQ(back->cells[4].kidnaps, 1);
  EXPECT_EQ(back->cells[4].recoveries, 1);
  EXPECT_DOUBLE_EQ(back->cells[4].time_to_reloc_mean_s, 0.4);
  EXPECT_EQ(back->cells[4].global_relocs, 1u);
  ASSERT_TRUE(back->has_headline);
  EXPECT_TRUE(back->headline.carto_crashed);
  EXPECT_TRUE(back->headline.synpf_flat());
  std::remove(path.c_str());
}

TEST(BenchJson, AcceptsSchemaV1WithoutRecoveryBlocks) {
  // A committed baseline from before the recovery schema bump must still
  // parse; its cells carry no recovery opinion.
  json::Value root = bench_to_json(make_doc());
  root.set("schema", json::Value::string(kBenchRobustnessSchemaV1));
  const std::optional<BenchDocument> doc = bench_from_json(root);
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->cells.size(), 5u);
  // The v2 writer emitted recovery blocks, so has_recovery survives — the
  // schema string alone must not reject or strip them.
  EXPECT_TRUE(doc->cells[4].has_recovery);
}

TEST(BenchJson, CellWithoutRecoveryBlockParsesAsNoOpinion) {
  json::Value root = bench_to_json(make_doc());
  const json::Value* cells = root.find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->size(), 5u);
  // Rebuild the cells array with the recovery keys stripped from the
  // kidnap cell, as a v1 writer would have emitted it.
  const auto is_recovery_key = [](const std::string& key) {
    for (const char* k :
         {"recovery_success", "kidnaps", "divergence_episodes", "recoveries",
          "time_to_reloc_mean_s", "time_to_reloc_max_s",
          "post_divergence_lateral_cm", "reinjections", "global_relocs",
          "recovery_transitions"}) {
      if (key == k) return true;
    }
    return false;
  };
  json::Value stripped_cells = json::Value::array();
  for (std::size_t i = 0; i < cells->size(); ++i) {
    const json::Value& cell = *cells->at(i);
    if (i != 4) {
      stripped_cells.push_back(cell);
      continue;
    }
    json::Value stripped = json::Value::object();
    for (const auto& [key, value] : cell.members()) {
      if (!is_recovery_key(key)) stripped.set(key, value);
    }
    stripped_cells.push_back(stripped);
  }
  root.set("cells", stripped_cells);
  const std::optional<BenchDocument> doc = bench_from_json(root);
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(doc->cells[4].has_recovery);
  EXPECT_TRUE(doc->cells[4].recovery_success);  // default: no regression
}

TEST(BenchJson, RejectsForeignSchema) {
  json::Value root = json::Value::object();
  root.set("schema", json::Value::string("someone/elses/2"));
  root.set("cells", json::Value::array());
  EXPECT_FALSE(bench_from_json(root).has_value());
}

TEST(BenchCompare, SelfCompareIsCleanEvenAtZeroTolerance) {
  const BenchDocument doc = make_doc();
  CompareThresholds strict;
  strict.lateral_tol_frac = 0.0;
  strict.lateral_slack_cm = 0.0;
  strict.p99_tol_frac = 0.0;
  strict.p99_slack_ms = 0.0;
  strict.require_hash_match = true;
  const CompareReport report = compare_bench(doc, doc, strict);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.cells_compared, 5);
  EXPECT_EQ(report.hashes_compared, 1);
}

TEST(BenchCompare, PerturbationBeyondThresholdNamesTheMetric) {
  const BenchDocument baseline = make_doc();
  BenchDocument candidate = make_doc();
  // 4.5 -> 9.0 cm: past the default 10% + 1 cm allowance.
  candidate.cells[0].result.lateral_mean_cm = 9.0;
  const CompareReport report = compare_bench(baseline, candidate, {});
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].cell, "SynPF/none@0");
  EXPECT_EQ(report.failures[0].metric, "lateral_mean_cm");
  EXPECT_DOUBLE_EQ(report.failures[0].candidate, 9.0);
  EXPECT_NE(report.failures[0].describe().find("lateral_mean_cm"),
            std::string::npos);
}

TEST(BenchCompare, WithinThresholdPasses) {
  const BenchDocument baseline = make_doc();
  BenchDocument candidate = make_doc();
  candidate.cells[0].result.lateral_mean_cm = 4.9;  // < 4.5 * 1.1 + 1.0
  candidate.cells[0].result.update_p99_ms = 11.0;   // < 6.0 * 2.0 + 2.0
  EXPECT_TRUE(compare_bench(baseline, candidate, {}).ok());
}

TEST(BenchCompare, MissingCellIsARegression) {
  const BenchDocument baseline = make_doc();
  BenchDocument candidate = make_doc();
  candidate.cells.pop_back();
  const CompareReport report = compare_bench(baseline, candidate, {});
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].metric, "missing_cell");
}

TEST(BenchCompare, NewCrashIsARegressionUnlessAllowed) {
  const BenchDocument baseline = make_doc();
  BenchDocument candidate = make_doc();
  candidate.cells[1].result.crashed = true;
  CompareThresholds thresholds;
  const CompareReport report = compare_bench(baseline, candidate, thresholds);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].metric, "crashed");
  EXPECT_EQ(report.failures[0].cell, "SynPF/odom_slip_ramp@1");

  thresholds.allow_new_crashes = true;
  EXPECT_TRUE(compare_bench(baseline, candidate, thresholds).ok());
}

TEST(BenchCompare, LostRecoveryIsARegression) {
  const BenchDocument baseline = make_doc();
  BenchDocument candidate = make_doc();
  candidate.cells[4].recovery_success = false;
  const CompareReport report = compare_bench(baseline, candidate, {});
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].cell, "SynPF+Recovery/kidnap@1");
  EXPECT_EQ(report.failures[0].metric, "recovery_success");

  CompareThresholds off;
  off.gate_recovery = false;
  EXPECT_TRUE(compare_bench(baseline, candidate, off).ok());
}

TEST(BenchCompare, CrashedCandidateAlsoLosesRecovery) {
  // A crash in a recovery cell is both a crash regression and a lost
  // recovery: the gate must not be masked by the crash path.
  const BenchDocument baseline = make_doc();
  BenchDocument candidate = make_doc();
  candidate.cells[4].result.crashed = true;
  candidate.cells[4].recovery_success = false;
  const CompareReport report = compare_bench(baseline, candidate, {});
  bool saw_recovery = false;
  for (const CompareFailure& f : report.failures) {
    if (f.metric == "recovery_success") saw_recovery = true;
  }
  EXPECT_TRUE(saw_recovery);
  EXPECT_FALSE(report.ok());
}

TEST(BenchCompare, TimeToRelocalizeGateBindsPastTolerance) {
  const BenchDocument baseline = make_doc();
  BenchDocument candidate = make_doc();
  // Limit: 0.4 * (1 + 0.5) + 0.5 = 1.1 s.
  candidate.cells[4].time_to_reloc_mean_s = 1.0;
  EXPECT_TRUE(compare_bench(baseline, candidate, {}).ok());

  candidate.cells[4].time_to_reloc_mean_s = 2.0;
  const CompareReport report = compare_bench(baseline, candidate, {});
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].metric, "time_to_reloc_mean_s");
  EXPECT_DOUBLE_EQ(report.failures[0].limit, 1.1);
}

TEST(BenchCompare, SchemaV1BaselineSkipsRecoveryGates) {
  // A baseline parsed from a pre-recovery document carries no recovery
  // block; the candidate's recovery state cannot "regress" from it.
  BenchDocument baseline = make_doc();
  baseline.cells[4].has_recovery = false;
  BenchDocument candidate = make_doc();
  candidate.cells[4].recovery_success = false;
  candidate.cells[4].time_to_reloc_mean_s = 99.0;
  EXPECT_TRUE(compare_bench(baseline, candidate, {}).ok());
}

TEST(BenchCompare, HashMismatchFailsOnlyWhenRequired) {
  const BenchDocument baseline = make_doc();
  BenchDocument candidate = make_doc();
  candidate.fault_traces[0].trace_hash ^= 1;  // one bit: still a regression
  EXPECT_TRUE(compare_bench(baseline, candidate, {}).ok());

  CompareThresholds thresholds;
  thresholds.require_hash_match = true;
  const CompareReport report = compare_bench(baseline, candidate, thresholds);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].metric, "trace_hash");
  EXPECT_EQ(report.failures[0].cell, "fault_traces/odom_slip_ramp@1");
}

// ---------------------------------------------------------------------------
// Frontier artifact (`srl.frontier/1`) round-trip & regression gate
// ---------------------------------------------------------------------------

frontier::FrontierDocument make_frontier_doc() {
  frontier::FrontierDocument doc;
  doc.provenance.compiler = "testc 1.0";
  doc.provenance.build = "release";
  doc.fast_mode = true;
  doc.result.seed = 0xF407;
  doc.result.fault_seed = 0x7a017ULL;
  doc.result.bisect_iterations = 5;
  doc.result.n_particles = 800;

  auto point = [](const char* localizer, const char* axis, double lo,
                  double hi, bool censored) {
    frontier::FrontierPoint p;
    p.localizer = localizer;
    p.axis = axis;
    p.track_class = "club";
    p.censored = censored;
    p.bracket_lo = lo;
    p.bracket_hi = hi;
    p.breaking_severity = censored ? 0.0 : hi;
    p.breaking_index = censored ? 0u : 0x1234u;
    p.track_length_m = 42.5;
    p.track_max_abs_curvature = 0.385;
    frontier::FrontierEvaluation eval;
    eval.index = 0x1234u;
    eval.severity = hi;
    eval.failed = !censored;
    eval.lateral_mean_cm = 7.25;
    eval.final_pose_error_m = 1.5;
    p.evaluations.push_back(eval);
    if (!censored) p.blackboxes.push_back("blackbox/frontier_0.json");
    return p;
  };
  doc.result.points.push_back(
      point("SynPF", "odom_slip_ramp", 0.875, 0.90625, false));
  doc.result.points.push_back(
      point("CartoLite", "odom_slip_ramp", 0.25, 0.28125, false));
  doc.result.points.push_back(point("SynPF", "lidar_dropout", 1.0, 1.0, true));

  doc.has_headline = true;
  doc.headline.axis = "odom_slip_ramp";
  doc.headline.track_class = "club";
  doc.headline.synpf_breaking = 0.90625;
  doc.headline.synpf_bracket_width = 0.03125;
  doc.headline.carto_breaking = 0.28125;
  doc.headline.carto_bracket_width = 0.03125;
  return doc;
}

TEST(FrontierJson, RoundTripsThroughDisk) {
  const frontier::FrontierDocument doc = make_frontier_doc();
  const std::string path = ::testing::TempDir() + "frontier_roundtrip.json";
  ASSERT_TRUE(frontier::write_frontier_json(path, doc));

  const std::optional<frontier::FrontierDocument> back =
      frontier::read_frontier_json(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->result.seed, 0xF407u);
  EXPECT_EQ(back->result.fault_seed, 0x7a017ULL);
  EXPECT_EQ(back->result.bisect_iterations, 5);
  ASSERT_EQ(back->result.points.size(), 3u);
  // Dyadic severities survive the writer bit-for-bit — the determinism
  // self-compare depends on this.
  EXPECT_EQ(back->result.points[0].bracket_lo, 0.875);
  EXPECT_EQ(back->result.points[0].bracket_hi, 0.90625);
  EXPECT_EQ(back->result.points[0].breaking_index, 0x1234u);
  EXPECT_TRUE(back->result.points[2].censored);
  ASSERT_EQ(back->result.points[0].evaluations.size(), 1u);
  EXPECT_EQ(back->result.points[0].evaluations[0].lateral_mean_cm, 7.25);
  ASSERT_EQ(back->result.points[0].blackboxes.size(), 1u);
  ASSERT_TRUE(back->has_headline);
  EXPECT_EQ(back->headline.synpf_breaking, 0.90625);
  std::remove(path.c_str());
}

TEST(FrontierJson, RejectsForeignSchema) {
  json::Value root = frontier::frontier_to_json(make_frontier_doc());
  root.set("schema", json::Value::string("someone/elses/1"));
  EXPECT_FALSE(frontier::frontier_from_json(root).has_value());
}

TEST(FrontierCompare, SelfCompareIsCleanEvenInExactMode) {
  const frontier::FrontierDocument doc = make_frontier_doc();
  frontier::FrontierCompareThresholds exact;
  exact.require_identical = true;
  const CompareReport report = frontier::compare_frontier(doc, doc, exact);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.cells_compared, 3);
}

TEST(FrontierCompare, GateFiresWhenTheFrontierRecedes) {
  // The synthetic regression the CI gate must catch: SynPF's slip frontier
  // dropping from 0.90625 to 0.5 means the stack now breaks at a severity
  // it used to survive.
  const frontier::FrontierDocument baseline = make_frontier_doc();
  frontier::FrontierDocument candidate = make_frontier_doc();
  candidate.result.points[0].breaking_severity = 0.5;
  candidate.result.points[0].bracket_hi = 0.5;
  const CompareReport report =
      frontier::compare_frontier(baseline, candidate, {});
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].cell, "SynPF/odom_slip_ramp/club#0");
  EXPECT_EQ(report.failures[0].metric, "breaking_severity");
  EXPECT_DOUBLE_EQ(report.failures[0].candidate, 0.5);

  // A generous severity tolerance absorbs the drop.
  frontier::FrontierCompareThresholds loose;
  loose.severity_tol = 0.5;
  EXPECT_TRUE(frontier::compare_frontier(baseline, candidate, loose).ok());
}

TEST(FrontierCompare, LosingACensoredPointIsARegression) {
  // Censored compares as severity 2.0: a candidate that now fails inside
  // the range regressed from "never breaks" to "breaks at 0.9".
  const frontier::FrontierDocument baseline = make_frontier_doc();
  frontier::FrontierDocument candidate = make_frontier_doc();
  candidate.result.points[2].censored = false;
  candidate.result.points[2].breaking_severity = 0.9;
  const CompareReport report =
      frontier::compare_frontier(baseline, candidate, {});
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].metric, "breaking_severity");
  EXPECT_DOUBLE_EQ(report.failures[0].baseline, frontier::kCensoredBreaking);
}

TEST(FrontierCompare, ImprovementIsNotARegression) {
  const frontier::FrontierDocument baseline = make_frontier_doc();
  frontier::FrontierDocument candidate = make_frontier_doc();
  candidate.result.points[1].breaking_severity = 0.75;
  candidate.result.points[1].bracket_hi = 0.75;
  EXPECT_TRUE(frontier::compare_frontier(baseline, candidate, {}).ok());
}

TEST(FrontierCompare, MissingPointIsARegression) {
  const frontier::FrontierDocument baseline = make_frontier_doc();
  frontier::FrontierDocument candidate = make_frontier_doc();
  candidate.result.points.pop_back();
  const CompareReport report =
      frontier::compare_frontier(baseline, candidate, {});
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].metric, "missing_point");
}

// ---------------------------------------------------------------------------
// Throughput artifact (`srl.bench_throughput/1`) round-trip & perf gate
// ---------------------------------------------------------------------------

ThroughputDocument make_throughput_doc() {
  ThroughputDocument doc;
  doc.provenance.compiler = "testc 1.0";
  doc.provenance.build = "release";
  doc.provenance.git_sha = "deadbeef";
  doc.provenance.seed = 1234;
  doc.provenance.fast_mode = true;
  doc.simd_active = "avx2";
  doc.avx2_available = true;
  doc.n_scans = 40;
  doc.determinism_hash = 0x94a6b6be30b22475ULL;

  auto cell = [](const char* stage, const char* simd, int threads,
                 double mean_ms, double rate) {
    ThroughputCell c;
    c.stage = stage;
    c.simd = simd;
    c.particles = 1500;
    c.threads = threads;
    c.beams = 60;
    c.mean_ms = mean_ms;
    c.items_per_sec = rate;
    c.hash = 0xfeedfacecafebeefULL;  // exercises the full 64-bit width
    return c;
  };
  doc.cells.push_back(cell("weight", "scalar", 1, 0.10, 9.0e8));
  doc.cells.push_back(cell("weight", "avx2", 1, 0.05, 1.8e9));
  doc.cells.push_back(cell("update", "scalar", 1, 3.0, 3.0e7));
  doc.cells.push_back(cell("update", "avx2", 4, 2.5, 3.6e7));
  return doc;
}

TEST(ThroughputJson, RoundTripsThroughDisk) {
  const ThroughputDocument doc = make_throughput_doc();
  const std::string path = ::testing::TempDir() + "throughput_roundtrip.json";
  ASSERT_TRUE(write_throughput_json(path, doc));

  const std::optional<ThroughputDocument> back = read_throughput_json(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->provenance.compiler, "testc 1.0");
  EXPECT_EQ(back->simd_active, "avx2");
  EXPECT_TRUE(back->avx2_available);
  EXPECT_EQ(back->n_scans, 40);
  // Hashes travel as hex strings precisely so the full 64 bits survive the
  // double-typed JSON number path.
  EXPECT_EQ(back->determinism_hash, 0x94a6b6be30b22475ULL);
  ASSERT_EQ(back->cells.size(), 4u);
  EXPECT_EQ(back->cells[1].key(), "weight simd=avx2 n=1500 t=1");
  EXPECT_EQ(back->cells[1].hash, 0xfeedfacecafebeefULL);
  EXPECT_DOUBLE_EQ(back->cells[1].items_per_sec, 1.8e9);
  EXPECT_EQ(back->cells[3].threads, 4);
  std::remove(path.c_str());
}

TEST(ThroughputJson, RejectsForeignSchema) {
  json::Value root = throughput_to_json(make_throughput_doc());
  root.set("schema", json::Value::string("someone/elses/1"));
  EXPECT_FALSE(throughput_from_json(root).has_value());
}

TEST(ThroughputCompare, SelfCompareIsCleanInStructuralHashMode) {
  const ThroughputDocument doc = make_throughput_doc();
  ThroughputThresholds strict;
  strict.structural_only = true;
  strict.require_hash_match = true;
  const CompareReport report = compare_throughput(doc, doc, strict);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.cells_compared, 4);
  EXPECT_EQ(report.hashes_compared, 4);
  EXPECT_TRUE(report.notes.empty());
}

TEST(ThroughputCompare, RateCollapseFailsPastTolerance) {
  const ThroughputDocument baseline = make_throughput_doc();
  ThroughputDocument candidate = make_throughput_doc();
  // 1.8e9 -> 3e8: below the default floor 1.8e9 * (1 - 0.5) = 9e8.
  candidate.cells[1].items_per_sec = 3.0e8;
  const CompareReport report = compare_throughput(baseline, candidate, {});
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].cell, "weight simd=avx2 n=1500 t=1");
  EXPECT_EQ(report.failures[0].metric, "items_per_sec");
  EXPECT_DOUBLE_EQ(report.failures[0].limit, 9.0e8);

  // A drop that stays above the floor passes.
  candidate.cells[1].items_per_sec = 1.0e9;
  EXPECT_TRUE(compare_throughput(baseline, candidate, {}).ok());
}

TEST(ThroughputCompare, ImprovementIsANoteNeverAFailure) {
  const ThroughputDocument baseline = make_throughput_doc();
  ThroughputDocument candidate = make_throughput_doc();
  candidate.cells[0].items_per_sec = 9.0e9;  // 10x: past the 1.5x note bar
  const CompareReport report = compare_throughput(baseline, candidate, {});
  EXPECT_TRUE(report.ok());
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("weight simd=scalar n=1500 t=1"),
            std::string::npos);
  EXPECT_NE(report.notes[0].find("refreshing the baseline"),
            std::string::npos);
}

TEST(ThroughputCompare, MissingCellIsARegression) {
  const ThroughputDocument baseline = make_throughput_doc();
  ThroughputDocument candidate = make_throughput_doc();
  candidate.cells.erase(candidate.cells.begin());  // drop a *scalar* cell
  const CompareReport report = compare_throughput(baseline, candidate, {});
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].metric, "missing_cell");
  EXPECT_EQ(report.failures[0].cell, "weight simd=scalar n=1500 t=1");
}

TEST(ThroughputCompare, ScalarOnlyHostSkipsAvx2CellsWithANote) {
  // A baseline recorded on an AVX2 box gated against a scalar-only runner:
  // the avx2 rows are skipped loudly, the scalar rows still gate.
  const ThroughputDocument baseline = make_throughput_doc();
  ThroughputDocument candidate = make_throughput_doc();
  candidate.avx2_available = false;
  candidate.simd_active = "scalar";
  std::vector<ThroughputCell> scalar_cells;
  for (const ThroughputCell& c : candidate.cells) {
    if (c.simd != "avx2") scalar_cells.push_back(c);
  }
  candidate.cells = scalar_cells;
  const CompareReport report = compare_throughput(baseline, candidate, {});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.cells_compared, 2);
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("lacks AVX2"), std::string::npos);

  // But a host that *claims* AVX2 and still lacks the rows regressed.
  candidate.avx2_available = true;
  EXPECT_FALSE(compare_throughput(baseline, candidate, {}).ok());
}

TEST(ThroughputCompare, BeamsMismatchIsStructural) {
  // Rates over different work units are not comparable: a beams change is
  // a grid change, caught even when the rate happens to look fine.
  const ThroughputDocument baseline = make_throughput_doc();
  ThroughputDocument candidate = make_throughput_doc();
  candidate.cells[2].beams = 30;
  candidate.cells[2].items_per_sec = baseline.cells[2].items_per_sec;
  const CompareReport report = compare_throughput(baseline, candidate, {});
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].metric, "beams");
}

TEST(ThroughputCompare, HashMismatchFailsOnlyWhenRequired) {
  const ThroughputDocument baseline = make_throughput_doc();
  ThroughputDocument candidate = make_throughput_doc();
  candidate.cells[1].hash ^= 1;  // one bit: still a determinism break
  EXPECT_TRUE(compare_throughput(baseline, candidate, {}).ok());

  ThroughputThresholds thresholds;
  thresholds.require_hash_match = true;
  const CompareReport report =
      compare_throughput(baseline, candidate, thresholds);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].metric, "estimate_hash");
  EXPECT_EQ(report.failures[0].cell, "weight simd=avx2 n=1500 t=1");
}

TEST(FrontierCompare, ExactModeCatchesProbeSequenceDrift) {
  // Same frontier, different path: tolerant mode passes, the determinism
  // self-compare must not.
  const frontier::FrontierDocument baseline = make_frontier_doc();
  frontier::FrontierDocument candidate = make_frontier_doc();
  candidate.result.points[0].evaluations[0].lateral_mean_cm += 1e-9;
  EXPECT_TRUE(frontier::compare_frontier(baseline, candidate, {}).ok());

  frontier::FrontierCompareThresholds exact;
  exact.require_identical = true;
  const CompareReport report =
      frontier::compare_frontier(baseline, candidate, exact);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].metric, "probe_sequence");
}


// ---------------------------------------------------------------------------
// Every artifact schema against the shared codec
// ---------------------------------------------------------------------------

#ifndef SRL_REPO_ROOT
#define SRL_REPO_ROOT "."
#endif

std::string read_bytes(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

/// read_* then *_to_json for one schema.
using Reserialize =
    std::function<std::optional<json::Value>(const std::string& path)>;
template <typename Doc>
Reserialize via(std::optional<Doc> (*read)(const std::string&),
                json::Value (*write)(const Doc&)) {
  return [read, write](const std::string& path) -> std::optional<json::Value> {
    const std::optional<Doc> doc = read(path);
    if (!doc.has_value()) return std::nullopt;
    return write(*doc);
  };
}

// The committed artifacts pin every writer: reading one and writing it back
// must reproduce the file byte for byte.
TEST(CommittedArtifacts, ReserializeByteForByte) {
  const struct {
    const char* path;
    Reserialize reserialize;
  } rows[] = {
      {"bench/baselines/BENCH_robustness.baseline.json",
       via(read_bench_json, bench_to_json)},
      {"bench/baselines/BENCH_frontier.baseline.json",
       via(frontier::read_frontier_json, frontier::frontier_to_json)},
      {"bench/baselines/BENCH_throughput.baseline.json",
       via(read_throughput_json, throughput_to_json)},
      {"BENCH_robustness.json", via(read_bench_json, bench_to_json)},
  };
  const std::string out = ::testing::TempDir() + "srl_artifact_roundtrip.json";
  for (const auto& row : rows) {
    const std::string path = std::string{SRL_REPO_ROOT} + "/" + row.path;
    const std::string committed = read_bytes(path);
    ASSERT_FALSE(committed.empty()) << path;
    const std::optional<json::Value> back = row.reserialize(path);
    ASSERT_TRUE(back.has_value()) << path;
    ASSERT_TRUE(back->save(out));
    EXPECT_TRUE(read_bytes(out) == committed) << path;
  }
  std::remove(out.c_str());
}

/// `root` with `key` set to the string `text` — on the root when `parent`
/// is null, else inside member `parent` (an object, or an array's first
/// element).
json::Value with_text(json::Value root, const char* parent, const char* key,
                      const char* text) {
  if (parent == nullptr) {
    root.set(key, json::Value::string(text));
    return root;
  }
  json::Value inner = *root.find(parent);
  if (inner.is_object()) {
    inner.set(key, json::Value::string(text));
  } else {
    json::Value items = json::Value::array();
    for (std::size_t i = 0; i < inner.size(); ++i) {
      json::Value item = *inner.at(i);
      if (i == 0) item.set(key, json::Value::string(text));
      items.push_back(std::move(item));
    }
    inner = std::move(items);
  }
  root.set(parent, std::move(inner));
  return root;
}

// 64-bit members are read with the strict codec: a hash or seed that is not
// "0x" plus 1-16 hex digits rejects the whole document.
TEST(ArtifactReaders, RejectMalformed64BitMembers) {
  const auto bench = [](const json::Value& v) {
    return bench_from_json(v).has_value();
  };
  const auto throughput = [](const json::Value& v) {
    return throughput_from_json(v).has_value();
  };
  const auto frontier_reads = [](const json::Value& v) {
    return frontier::frontier_from_json(v).has_value();
  };
  const struct {
    json::Value doc;
    std::function<bool(const json::Value&)> reads;
    const char* parent;
    const char* key;
  } rows[] = {
      {bench_to_json(make_doc()), bench, "fault_traces", "trace_hash"},
      {throughput_to_json(make_throughput_doc()), throughput, nullptr,
       "determinism_hash"},
      {throughput_to_json(make_throughput_doc()), throughput, "cells", "hash"},
      {frontier::frontier_to_json(make_frontier_doc()), frontier_reads,
       "provenance", "scenario_seed"},
      {frontier::frontier_to_json(make_frontier_doc()), frontier_reads,
       "provenance", "fault_seed"},
  };
  for (const auto& row : rows) {
    EXPECT_TRUE(row.reads(row.doc)) << row.key;
    for (const char* bad :
         {"feedface", "123", "0x", "0x1g", "0xfeedfacecafebeefa", ""}) {
      EXPECT_FALSE(row.reads(with_text(row.doc, row.parent, row.key, bad)))
          << row.key << "=\"" << bad << '"';
    }
  }
}

}  // namespace
}  // namespace srl
