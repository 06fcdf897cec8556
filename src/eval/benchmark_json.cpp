#include "eval/benchmark_json.hpp"

#include "common/fingerprint.hpp"

namespace srl {

json::Value bench_to_json(const BenchDocument& doc) {
  json::Value root = json::Value::object();
  root.set("schema", json::Value::string(kBenchRobustnessSchema));

  json::Value provenance = json::Value::object();
  doc.provenance.write(provenance);
  provenance.set("seed",
                 json::Value::number(static_cast<double>(doc.provenance.seed)));
  provenance.set("fault_seed", json::Value::number(static_cast<double>(
                                   doc.provenance.fault_seed)));
  provenance.set("laps", json::Value::number(doc.provenance.laps));
  provenance.set("n_particles",
                 json::Value::number(doc.provenance.n_particles));
  provenance.set("matrix_threads",
                 json::Value::number(doc.provenance.matrix_threads));
  provenance.set("fast_mode", json::Value::boolean(doc.provenance.fast_mode));
  // Schema v3: recorder provenance. Informational (the compare gate never
  // reads it), so wall-clock numbers here cannot fail a bitwise self-diff.
  provenance.set("recorder", json::Value::boolean(doc.provenance.recorder));
  provenance.set("recorder_wall_s",
                 json::Value::number(doc.provenance.recorder_wall_s));
  provenance.set("baseline_wall_s",
                 json::Value::number(doc.provenance.baseline_wall_s));
  provenance.set("recorder_overhead_pct",
                 json::Value::number(doc.provenance.recorder_overhead_pct));
  root.set("provenance", std::move(provenance));

  json::Value traces = json::Value::array();
  for (const FaultTraceFingerprint& fp : doc.fault_traces) {
    json::Value t = json::Value::object();
    t.set("fault", json::Value::string(fp.fault));
    t.set("severity", json::Value::number(fp.severity));
    t.set("trace_hash", json::Value::string(to_hex(fp.trace_hash)));
    t.set("n_scans",
          json::Value::number(static_cast<double>(fp.n_scans)));
    t.set("n_odometry",
          json::Value::number(static_cast<double>(fp.n_odometry)));
    traces.push_back(std::move(t));
  }
  root.set("fault_traces", std::move(traces));

  json::Value cells = json::Value::array();
  for (const ScenarioCell& cell : doc.cells) {
    json::Value c = json::Value::object();
    c.set("localizer", json::Value::string(cell.localizer));
    c.set("fault", json::Value::string(cell.scenario.fault));
    c.set("severity", json::Value::number(cell.scenario.severity));
    c.set("lateral_mean_cm", json::Value::number(cell.result.lateral_mean_cm));
    c.set("lateral_std_cm", json::Value::number(cell.result.lateral_std_cm));
    c.set("scan_alignment", json::Value::number(cell.result.scan_alignment));
    c.set("pose_rmse_m", json::Value::number(cell.result.pose_rmse_m));
    c.set("heading_rmse_rad",
          json::Value::number(cell.result.heading_rmse_rad));
    c.set("lap_time_mean_s", json::Value::number(cell.result.lap_time_mean));
    c.set("update_p50_ms", json::Value::number(cell.result.update_p50_ms));
    c.set("update_p99_ms", json::Value::number(cell.result.update_p99_ms));
    c.set("update_max_ms", json::Value::number(cell.result.update_max_ms));
    c.set("load_percent", json::Value::number(cell.result.load_percent));
    c.set("ess_fraction_p50", json::Value::number(cell.ess_fraction_p50));
    c.set("ess_fraction_min", json::Value::number(cell.ess_fraction_min));
    c.set("resamples",
          json::Value::number(static_cast<double>(cell.resamples)));
    c.set("pose_jump_alarms",
          json::Value::number(static_cast<double>(cell.pose_jump_alarms)));
    c.set("stage_p50_ms", json::Value::number(cell.stage_p50_ms));
    c.set("stage_p99_ms", json::Value::number(cell.stage_p99_ms));
    c.set("crashed", json::Value::boolean(cell.result.crashed));
    c.set("completed", json::Value::boolean(cell.result.completed));
    // Schema v2: recovery block. `recovery_success` doubles as the
    // presence marker the reader keys `has_recovery` on.
    c.set("recovery_success", json::Value::boolean(cell.recovery_success));
    c.set("kidnaps", json::Value::number(static_cast<double>(cell.kidnaps)));
    c.set("divergence_episodes",
          json::Value::number(static_cast<double>(cell.divergence_episodes)));
    c.set("recoveries",
          json::Value::number(static_cast<double>(cell.recoveries)));
    c.set("time_to_reloc_mean_s",
          json::Value::number(cell.time_to_reloc_mean_s));
    c.set("time_to_reloc_max_s", json::Value::number(cell.time_to_reloc_max_s));
    c.set("post_divergence_lateral_cm",
          json::Value::number(cell.post_divergence_lateral_cm));
    c.set("reinjections",
          json::Value::number(static_cast<double>(cell.reinjections)));
    c.set("global_relocs",
          json::Value::number(static_cast<double>(cell.global_relocs)));
    c.set("recovery_transitions",
          json::Value::number(static_cast<double>(cell.recovery_transitions)));
    // Schema v3: event-journal summary + black-box artifacts.
    json::Value events = json::Value::object();
    events.set("total",
               json::Value::number(static_cast<double>(cell.events_total)));
    events.set("warn",
               json::Value::number(static_cast<double>(cell.events_warn)));
    events.set("error",
               json::Value::number(static_cast<double>(cell.events_error)));
    events.set("critical",
               json::Value::number(static_cast<double>(cell.events_critical)));
    events.set("dropped",
               json::Value::number(static_cast<double>(cell.events_dropped)));
    c.set("events", std::move(events));
    json::Value boxes = json::Value::array();
    for (const std::string& box : cell.blackboxes) {
      boxes.push_back(json::Value::string(box));
    }
    c.set("blackboxes", std::move(boxes));
    // Schema v4: compute-governor block, present only on governed cells so
    // ungoverned documents stay byte-compatible with v3 modulo the schema
    // string. Costs are virtual work units — deterministic, gate-safe.
    if (cell.governed) {
      json::Value g = json::Value::object();
      g.set("mode", json::Value::string(cell.governor_shed ? "govern"
                                                           : "enforce"));
      g.set("budget_ms", json::Value::number(cell.budget_ms));
      g.set("updates", json::Value::number(
                           static_cast<double>(cell.governor_updates)));
      g.set("deadline_misses",
            json::Value::number(static_cast<double>(cell.deadline_misses)));
      g.set("shed_beam_updates",
            json::Value::number(static_cast<double>(cell.shed_beam_updates)));
      g.set("shed_particle_updates",
            json::Value::number(
                static_cast<double>(cell.shed_particle_updates)));
      g.set("skipped_resamples",
            json::Value::number(
                static_cast<double>(cell.skipped_resamples)));
      g.set("resizes", json::Value::number(
                           static_cast<double>(cell.governor_resizes)));
      g.set("mean_particles",
            json::Value::number(cell.governor_mean_particles));
      g.set("min_particles", json::Value::number(static_cast<double>(
                                 cell.governor_min_particles)));
      g.set("mean_beams", json::Value::number(cell.governor_mean_beams));
      g.set("cost_units_p50", json::Value::number(cell.governor_cost_p50));
      g.set("cost_units_p99", json::Value::number(cell.governor_cost_p99));
      c.set("governor", std::move(g));
    }
    cells.push_back(std::move(c));
  }
  root.set("cells", std::move(cells));

  if (doc.has_headline) {
    json::Value h = json::Value::object();
    h.set("fault", json::Value::string(doc.headline.fault));
    h.set("severity", json::Value::number(doc.headline.severity));
    h.set("synpf_baseline_cm",
          json::Value::number(doc.headline.synpf_baseline_cm));
    h.set("synpf_faulted_cm",
          json::Value::number(doc.headline.synpf_faulted_cm));
    h.set("synpf_degradation",
          json::Value::number(doc.headline.synpf_degradation));
    h.set("synpf_crashed", json::Value::boolean(doc.headline.synpf_crashed));
    h.set("carto_baseline_cm",
          json::Value::number(doc.headline.carto_baseline_cm));
    h.set("carto_faulted_cm",
          json::Value::number(doc.headline.carto_faulted_cm));
    h.set("carto_degradation",
          json::Value::number(doc.headline.carto_degradation));
    h.set("carto_crashed", json::Value::boolean(doc.headline.carto_crashed));
    h.set("synpf_flat", json::Value::boolean(doc.headline.synpf_flat()));
    root.set("headline", std::move(h));
  }

  if (doc.has_governor_headline) {
    const GovernorHeadline& gh = doc.governor_headline;
    json::Value h = json::Value::object();
    h.set("severity", json::Value::number(gh.severity));
    h.set("budget_ms", json::Value::number(gh.budget_ms));
    h.set("governed_baseline_cm",
          json::Value::number(gh.governed_baseline_cm));
    h.set("governed_pressured_cm",
          json::Value::number(gh.governed_pressured_cm));
    h.set("governed_degradation",
          json::Value::number(gh.governed_degradation));
    h.set("governed_crashed", json::Value::boolean(gh.governed_crashed));
    h.set("governed_misses",
          json::Value::number(static_cast<double>(gh.governed_misses)));
    h.set("governed_shed_updates",
          json::Value::number(static_cast<double>(gh.governed_shed_updates)));
    h.set("enforcer_pressured_cm",
          json::Value::number(gh.enforcer_pressured_cm));
    h.set("enforcer_crashed", json::Value::boolean(gh.enforcer_crashed));
    h.set("enforcer_misses",
          json::Value::number(static_cast<double>(gh.enforcer_misses)));
    h.set("graceful", json::Value::boolean(gh.graceful()));
    root.set("governor_headline", std::move(h));
  }
  return root;
}

bool write_bench_json(const std::string& path, const BenchDocument& doc) {
  return bench_to_json(doc).save(path);
}

std::optional<BenchDocument> bench_from_json(const json::Value& root) {
  if (!root.is_object()) return std::nullopt;
  const std::string schema = str(root, "schema");
  if (schema != kBenchRobustnessSchema && schema != kBenchRobustnessSchemaV3 &&
      schema != kBenchRobustnessSchemaV2 && schema != kBenchRobustnessSchemaV1) {
    return std::nullopt;
  }

  BenchDocument doc;
  if (const json::Value* p = root.find("provenance");
      p != nullptr && p->is_object()) {
    static_cast<BuildInfo&>(doc.provenance) = BuildInfo::read(*p);
    doc.provenance.seed = static_cast<std::uint64_t>(num(*p, "seed"));
    doc.provenance.fault_seed =
        static_cast<std::uint64_t>(num(*p, "fault_seed"));
    doc.provenance.laps = static_cast<int>(num(*p, "laps"));
    doc.provenance.n_particles = static_cast<int>(num(*p, "n_particles"));
    doc.provenance.matrix_threads =
        static_cast<int>(num(*p, "matrix_threads"));
    doc.provenance.fast_mode = flag(*p, "fast_mode");
    doc.provenance.recorder = flag(*p, "recorder");
    doc.provenance.recorder_wall_s = num(*p, "recorder_wall_s");
    doc.provenance.baseline_wall_s = num(*p, "baseline_wall_s");
    doc.provenance.recorder_overhead_pct = num(*p, "recorder_overhead_pct");
  }

  if (const json::Value* traces = root.find("fault_traces");
      traces != nullptr && traces->is_array()) {
    for (std::size_t i = 0; i < traces->size(); ++i) {
      const json::Value& t = *traces->at(i);
      if (!t.is_object()) return std::nullopt;
      FaultTraceFingerprint fp;
      fp.fault = str(t, "fault");
      fp.severity = num(t, "severity");
      const std::optional<std::uint64_t> hash =
          parse_hex(str(t, "trace_hash"));
      if (!hash.has_value()) return std::nullopt;
      fp.trace_hash = *hash;
      fp.n_scans = static_cast<std::uint64_t>(num(t, "n_scans"));
      fp.n_odometry = static_cast<std::uint64_t>(num(t, "n_odometry"));
      doc.fault_traces.push_back(std::move(fp));
    }
  }

  const json::Value* cells = root.find("cells");
  if (cells == nullptr || !cells->is_array()) return std::nullopt;
  for (std::size_t i = 0; i < cells->size(); ++i) {
    const json::Value& c = *cells->at(i);
    if (!c.is_object()) return std::nullopt;
    ScenarioCell cell;
    cell.localizer = str(c, "localizer");
    cell.scenario.fault = str(c, "fault");
    cell.scenario.severity = num(c, "severity");
    cell.result.lateral_mean_cm = num(c, "lateral_mean_cm");
    cell.result.lateral_std_cm = num(c, "lateral_std_cm");
    cell.result.scan_alignment = num(c, "scan_alignment");
    cell.result.pose_rmse_m = num(c, "pose_rmse_m");
    cell.result.heading_rmse_rad = num(c, "heading_rmse_rad");
    cell.result.lap_time_mean = num(c, "lap_time_mean_s");
    cell.result.update_p50_ms = num(c, "update_p50_ms");
    cell.result.update_p99_ms = num(c, "update_p99_ms");
    cell.result.update_max_ms = num(c, "update_max_ms");
    cell.result.load_percent = num(c, "load_percent");
    cell.ess_fraction_p50 = num(c, "ess_fraction_p50");
    cell.ess_fraction_min = num(c, "ess_fraction_min");
    cell.resamples = static_cast<std::uint64_t>(num(c, "resamples"));
    cell.pose_jump_alarms =
        static_cast<std::uint64_t>(num(c, "pose_jump_alarms"));
    cell.stage_p50_ms = num(c, "stage_p50_ms");
    cell.stage_p99_ms = num(c, "stage_p99_ms");
    cell.result.crashed = flag(c, "crashed");
    cell.result.completed = flag(c, "completed");
    // v1 documents have no recovery block: leave has_recovery false so the
    // compare gates know not to judge recovery against this baseline.
    cell.has_recovery = c.find("recovery_success") != nullptr;
    if (cell.has_recovery) {
      cell.recovery_success = flag(c, "recovery_success");
      cell.kidnaps = static_cast<int>(num(c, "kidnaps"));
      cell.divergence_episodes =
          static_cast<int>(num(c, "divergence_episodes"));
      cell.recoveries = static_cast<int>(num(c, "recoveries"));
      cell.time_to_reloc_mean_s = num(c, "time_to_reloc_mean_s");
      cell.time_to_reloc_max_s = num(c, "time_to_reloc_max_s");
      cell.post_divergence_lateral_cm = num(c, "post_divergence_lateral_cm");
      cell.reinjections = static_cast<std::uint64_t>(num(c, "reinjections"));
      cell.global_relocs =
          static_cast<std::uint64_t>(num(c, "global_relocs"));
      cell.recovery_transitions =
          static_cast<std::uint64_t>(num(c, "recovery_transitions"));
    }
    // v3 event summary (zeros when absent).
    if (const json::Value* events = c.find("events");
        events != nullptr && events->is_object()) {
      cell.events_total = static_cast<std::uint64_t>(num(*events, "total"));
      cell.events_warn = static_cast<std::uint64_t>(num(*events, "warn"));
      cell.events_error = static_cast<std::uint64_t>(num(*events, "error"));
      cell.events_critical =
          static_cast<std::uint64_t>(num(*events, "critical"));
      cell.events_dropped =
          static_cast<std::uint64_t>(num(*events, "dropped"));
    }
    if (const json::Value* boxes = c.find("blackboxes");
        boxes != nullptr && boxes->is_array()) {
      for (std::size_t b = 0; b < boxes->size(); ++b) {
        cell.blackboxes.push_back(boxes->at(b)->as_string());
      }
    }
    // v4 governor block (governed == false when absent).
    if (const json::Value* g = c.find("governor");
        g != nullptr && g->is_object()) {
      cell.governed = true;
      cell.governor_shed = str(*g, "mode") == "govern";
      cell.budget_ms = num(*g, "budget_ms");
      cell.governor_updates = static_cast<std::uint64_t>(num(*g, "updates"));
      cell.deadline_misses =
          static_cast<std::uint64_t>(num(*g, "deadline_misses"));
      cell.shed_beam_updates =
          static_cast<std::uint64_t>(num(*g, "shed_beam_updates"));
      cell.shed_particle_updates =
          static_cast<std::uint64_t>(num(*g, "shed_particle_updates"));
      cell.skipped_resamples =
          static_cast<std::uint64_t>(num(*g, "skipped_resamples"));
      cell.governor_resizes = static_cast<std::uint64_t>(num(*g, "resizes"));
      cell.governor_mean_particles = num(*g, "mean_particles");
      cell.governor_min_particles =
          static_cast<int>(num(*g, "min_particles"));
      cell.governor_mean_beams = num(*g, "mean_beams");
      cell.governor_cost_p50 = num(*g, "cost_units_p50");
      cell.governor_cost_p99 = num(*g, "cost_units_p99");
    }
    doc.cells.push_back(std::move(cell));
  }

  if (const json::Value* h = root.find("headline");
      h != nullptr && h->is_object()) {
    doc.has_headline = true;
    doc.headline.fault = str(*h, "fault");
    doc.headline.severity = num(*h, "severity");
    doc.headline.synpf_baseline_cm = num(*h, "synpf_baseline_cm");
    doc.headline.synpf_faulted_cm = num(*h, "synpf_faulted_cm");
    doc.headline.synpf_degradation = num(*h, "synpf_degradation");
    doc.headline.synpf_crashed = flag(*h, "synpf_crashed");
    doc.headline.carto_baseline_cm = num(*h, "carto_baseline_cm");
    doc.headline.carto_faulted_cm = num(*h, "carto_faulted_cm");
    doc.headline.carto_degradation = num(*h, "carto_degradation");
    doc.headline.carto_crashed = flag(*h, "carto_crashed");
  }

  if (const json::Value* h = root.find("governor_headline");
      h != nullptr && h->is_object()) {
    doc.has_governor_headline = true;
    GovernorHeadline& gh = doc.governor_headline;
    gh.severity = num(*h, "severity");
    gh.budget_ms = num(*h, "budget_ms");
    gh.governed_baseline_cm = num(*h, "governed_baseline_cm");
    gh.governed_pressured_cm = num(*h, "governed_pressured_cm");
    gh.governed_degradation = num(*h, "governed_degradation");
    gh.governed_crashed = flag(*h, "governed_crashed");
    gh.governed_misses = static_cast<std::uint64_t>(num(*h, "governed_misses"));
    gh.governed_shed_updates =
        static_cast<std::uint64_t>(num(*h, "governed_shed_updates"));
    gh.enforcer_pressured_cm = num(*h, "enforcer_pressured_cm");
    gh.enforcer_crashed = flag(*h, "enforcer_crashed");
    gh.enforcer_misses = static_cast<std::uint64_t>(num(*h, "enforcer_misses"));
  }
  return doc;
}

std::optional<BenchDocument> read_bench_json(const std::string& path) {
  std::optional<json::Value> root = json::Value::load(path);
  if (!root.has_value()) return std::nullopt;
  return bench_from_json(*root);
}

}  // namespace srl
