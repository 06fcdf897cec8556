#include "eval/frontier/frontier_json.hpp"

#include "common/fingerprint.hpp"

namespace srl::frontier {

namespace {

json::Value evaluation_to_json(const FrontierEvaluation& eval) {
  json::Value v = json::Value::object();
  v.set("index", json::Value::number(static_cast<double>(eval.index)));
  v.set("severity", json::Value::number(eval.severity));
  v.set("failed", json::Value::boolean(eval.failed));
  v.set("crashed", json::Value::boolean(eval.crashed));
  v.set("divergence_episodes",
        json::Value::number(static_cast<double>(eval.divergence_episodes)));
  v.set("recoveries",
        json::Value::number(static_cast<double>(eval.recoveries)));
  v.set("lateral_mean_cm", json::Value::number(eval.lateral_mean_cm));
  v.set("final_pose_error_m", json::Value::number(eval.final_pose_error_m));
  return v;
}

FrontierEvaluation evaluation_from_json(const json::Value& v) {
  FrontierEvaluation eval;
  eval.index = static_cast<std::uint32_t>(num(v, "index"));
  eval.severity = num(v, "severity");
  eval.failed = flag(v, "failed");
  eval.crashed = flag(v, "crashed");
  eval.divergence_episodes =
      static_cast<int>(num(v, "divergence_episodes"));
  eval.recoveries = static_cast<int>(num(v, "recoveries"));
  eval.lateral_mean_cm = num(v, "lateral_mean_cm");
  eval.final_pose_error_m = num(v, "final_pose_error_m");
  return eval;
}

json::Value point_to_json(const FrontierPoint& point) {
  json::Value v = json::Value::object();
  v.set("localizer", json::Value::string(point.localizer));
  v.set("axis", json::Value::string(point.axis));
  v.set("track_class", json::Value::string(point.track_class));
  v.set("variant", json::Value::number(static_cast<double>(point.variant)));
  v.set("censored", json::Value::boolean(point.censored));
  v.set("degenerate", json::Value::boolean(point.degenerate));
  v.set("breaking_severity", json::Value::number(point.breaking_severity));
  v.set("bracket_lo", json::Value::number(point.bracket_lo));
  v.set("bracket_hi", json::Value::number(point.bracket_hi));
  v.set("breaking_index",
        json::Value::number(static_cast<double>(point.breaking_index)));
  v.set("track_length_m", json::Value::number(point.track_length_m));
  v.set("track_max_abs_curvature",
        json::Value::number(point.track_max_abs_curvature));
  json::Value evals = json::Value::array();
  for (const FrontierEvaluation& eval : point.evaluations) {
    evals.push_back(evaluation_to_json(eval));
  }
  v.set("evaluations", std::move(evals));
  json::Value boxes = json::Value::array();
  for (const std::string& path : point.blackboxes) {
    boxes.push_back(json::Value::string(path));
  }
  v.set("blackboxes", std::move(boxes));
  return v;
}

FrontierPoint point_from_json(const json::Value& v) {
  FrontierPoint point;
  point.localizer = str(v, "localizer");
  point.axis = str(v, "axis");
  point.track_class = str(v, "track_class");
  point.variant = static_cast<int>(num(v, "variant"));
  point.censored = flag(v, "censored");
  point.degenerate = flag(v, "degenerate");
  point.breaking_severity = num(v, "breaking_severity");
  point.bracket_lo = num(v, "bracket_lo");
  point.bracket_hi = num(v, "bracket_hi");
  point.breaking_index =
      static_cast<std::uint32_t>(num(v, "breaking_index"));
  point.track_length_m = num(v, "track_length_m");
  point.track_max_abs_curvature = num(v, "track_max_abs_curvature");
  if (const json::Value* evals = v.find("evaluations");
      evals != nullptr && evals->is_array()) {
    for (std::size_t i = 0; i < evals->size(); ++i) {
      point.evaluations.push_back(evaluation_from_json(*evals->at(i)));
    }
  }
  if (const json::Value* boxes = v.find("blackboxes");
      boxes != nullptr && boxes->is_array()) {
    for (std::size_t i = 0; i < boxes->size(); ++i) {
      point.blackboxes.push_back(boxes->at(i)->as_string());
    }
  }
  return point;
}

double effective_breaking(const FrontierPoint& point) {
  return point.censored ? kCensoredBreaking : point.breaking_severity;
}

bool same_cell(const FrontierPoint& a, const FrontierPoint& b) {
  return a.localizer == b.localizer && a.axis == b.axis &&
         a.track_class == b.track_class && a.variant == b.variant;
}

}  // namespace

json::Value frontier_to_json(const FrontierDocument& doc) {
  json::Value root = json::Value::object();
  root.set("schema", json::Value::string(kFrontierSchema));

  json::Value prov = json::Value::object();
  doc.provenance.write(prov);
  prov.set("fast_mode", json::Value::boolean(doc.fast_mode));
  prov.set("scenario_seed", json::Value::string(to_hex(doc.result.seed)));
  prov.set("fault_seed", json::Value::string(to_hex(doc.result.fault_seed)));
  prov.set("bisect_iterations",
           json::Value::number(
               static_cast<double>(doc.result.bisect_iterations)));
  prov.set("n_particles",
           json::Value::number(static_cast<double>(doc.result.n_particles)));
  prov.set("variant",
           json::Value::number(static_cast<double>(doc.result.variant)));
  root.set("provenance", std::move(prov));

  json::Value points = json::Value::array();
  for (const FrontierPoint& point : doc.result.points) {
    points.push_back(point_to_json(point));
  }
  root.set("points", std::move(points));

  if (doc.has_headline) {
    json::Value h = json::Value::object();
    h.set("axis", json::Value::string(doc.headline.axis));
    h.set("track_class", json::Value::string(doc.headline.track_class));
    h.set("synpf_breaking", json::Value::number(doc.headline.synpf_breaking));
    h.set("synpf_bracket_width",
          json::Value::number(doc.headline.synpf_bracket_width));
    h.set("synpf_censored", json::Value::boolean(doc.headline.synpf_censored));
    h.set("carto_breaking", json::Value::number(doc.headline.carto_breaking));
    h.set("carto_bracket_width",
          json::Value::number(doc.headline.carto_bracket_width));
    h.set("carto_censored", json::Value::boolean(doc.headline.carto_censored));
    h.set("synpf_exceeds", json::Value::boolean(doc.headline.synpf_exceeds()));
    root.set("headline", std::move(h));
  }
  return root;
}

bool write_frontier_json(const std::string& path,
                         const FrontierDocument& doc) {
  return frontier_to_json(doc).save(path);
}

std::optional<FrontierDocument> frontier_from_json(const json::Value& root) {
  if (!root.is_object()) return std::nullopt;
  if (str(root, "schema") != kFrontierSchema) return std::nullopt;

  FrontierDocument doc;
  if (const json::Value* prov = root.find("provenance"); prov != nullptr) {
    doc.provenance = BuildInfo::read(*prov);
    doc.fast_mode = flag(*prov, "fast_mode");
    const std::optional<std::uint64_t> seed =
        parse_hex(str(*prov, "scenario_seed"));
    const std::optional<std::uint64_t> fault_seed =
        parse_hex(str(*prov, "fault_seed"));
    if (!seed.has_value() || !fault_seed.has_value()) return std::nullopt;
    doc.result.seed = *seed;
    doc.result.fault_seed = *fault_seed;
    doc.result.bisect_iterations =
        static_cast<int>(num(*prov, "bisect_iterations"));
    doc.result.n_particles = static_cast<int>(num(*prov, "n_particles"));
    doc.result.variant = static_cast<int>(num(*prov, "variant"));
  }
  const json::Value* points = root.find("points");
  if (points == nullptr || !points->is_array()) return std::nullopt;
  for (std::size_t i = 0; i < points->size(); ++i) {
    doc.result.points.push_back(point_from_json(*points->at(i)));
  }
  if (const json::Value* h = root.find("headline"); h != nullptr) {
    doc.has_headline = true;
    doc.headline.axis = str(*h, "axis");
    doc.headline.track_class = str(*h, "track_class");
    doc.headline.synpf_breaking = num(*h, "synpf_breaking");
    doc.headline.synpf_bracket_width = num(*h, "synpf_bracket_width");
    doc.headline.synpf_censored = flag(*h, "synpf_censored");
    doc.headline.carto_breaking = num(*h, "carto_breaking");
    doc.headline.carto_bracket_width = num(*h, "carto_bracket_width");
    doc.headline.carto_censored = flag(*h, "carto_censored");
  }
  return doc;
}

std::optional<FrontierDocument> read_frontier_json(const std::string& path) {
  const std::optional<json::Value> root = json::Value::load(path);
  if (!root.has_value()) return std::nullopt;
  return frontier_from_json(*root);
}

CompareReport compare_frontier(const FrontierDocument& baseline,
                               const FrontierDocument& candidate,
                               const FrontierCompareThresholds& thresholds) {
  CompareReport report;

  if (thresholds.require_identical &&
      candidate.result.points.size() != baseline.result.points.size()) {
    report.failures.push_back(CompareFailure{
        "points", "count",
        static_cast<double>(baseline.result.points.size()),
        static_cast<double>(candidate.result.points.size()),
        static_cast<double>(baseline.result.points.size())});
  }

  for (const FrontierPoint& base : baseline.result.points) {
    const FrontierPoint* cand = nullptr;
    for (const FrontierPoint& p : candidate.result.points) {
      if (same_cell(base, p)) {
        cand = &p;
        break;
      }
    }
    if (cand == nullptr) {
      report.failures.push_back(CompareFailure{base.cell(), "missing_point",
                                               effective_breaking(base), 0.0,
                                               effective_breaking(base)});
      continue;
    }
    ++report.cells_compared;

    const double base_breaking = effective_breaking(base);
    const double cand_breaking = effective_breaking(*cand);
    const double limit = base_breaking - thresholds.severity_tol;
    if (cand_breaking < limit) {
      report.failures.push_back(CompareFailure{base.cell(),
                                               "breaking_severity",
                                               base_breaking, cand_breaking,
                                               limit});
    }

    if (!thresholds.require_identical) continue;
    // Determinism leg: every probe — order, replay key, verdict — and the
    // resulting bracket must match bit for bit.
    const bool bracket_same =
        base.censored == cand->censored &&
        base.degenerate == cand->degenerate &&
        base.bracket_lo == cand->bracket_lo &&
        base.bracket_hi == cand->bracket_hi &&
        base.breaking_index == cand->breaking_index;
    bool probes_same = base.evaluations.size() == cand->evaluations.size();
    for (std::size_t i = 0; probes_same && i < base.evaluations.size(); ++i) {
      const FrontierEvaluation& a = base.evaluations[i];
      const FrontierEvaluation& b = cand->evaluations[i];
      probes_same = a.index == b.index && a.failed == b.failed &&
                    a.crashed == b.crashed &&
                    a.lateral_mean_cm == b.lateral_mean_cm &&
                    a.final_pose_error_m == b.final_pose_error_m;
    }
    if (!bracket_same || !probes_same) {
      report.failures.push_back(CompareFailure{base.cell(), "probe_sequence",
                                               base_breaking, cand_breaking,
                                               base_breaking});
    }
  }
  return report;
}

}  // namespace srl::frontier
