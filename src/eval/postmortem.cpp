#include "eval/postmortem.hpp"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>

#include "common/fingerprint.hpp"
#include "telemetry/flight_recorder.hpp"

namespace srl {

std::optional<Blackbox> load_blackbox(const std::string& path) {
  const std::optional<json::Value> doc = json::Value::load(path);
  if (!doc.has_value() || !doc->is_object()) return std::nullopt;
  if (json::str(*doc, "schema") != telemetry::kBlackboxSchema) {
    return std::nullopt;
  }

  Blackbox box;
  box.path = path;
  box.reason = json::str(*doc, "reason");
  box.label = json::str(*doc, "label");
  box.t = json::num(*doc, "t");
  box.ticks = static_cast<std::uint64_t>(json::num(*doc, "ticks"));
  // The first defect found is the one reported.
  const auto refuse = [&box](std::string reason) {
    if (box.load_error.empty()) box.load_error = std::move(reason);
  };
  const std::optional<std::uint64_t> hash =
      parse_hex(json::str(*doc, "estimate_hash"));
  if (hash.has_value()) {
    box.estimate_hash = *hash;
  } else {
    refuse("estimate_hash must be a hex string");
  }
  if (const json::Value* seed = doc->find("sim_seed"); seed != nullptr) {
    const std::optional<std::uint64_t> v = seed_from_json(*seed);
    if (v.has_value()) {
      box.sim_seed = *v;
    } else {
      refuse("sim_seed must be a hex string or a non-negative integer");
    }
  }
  box.sim_rng_state = json::str(*doc, "sim_rng_state");
  box.crashed = json::flag(*doc, "crashed");

  if (const json::Value* sp = doc->find("start_pose");
      sp != nullptr && sp->is_array() && sp->size() == 3) {
    box.start_pose = Pose2{sp->at(0)->as_double(), sp->at(1)->as_double(),
                           sp->at(2)->as_double()};
  }
  if (const json::Value* prov = doc->find("provenance"); prov != nullptr) {
    box.provenance = *prov;
    if (const json::Value* stack = prov->find("stack"); stack != nullptr) {
      std::string reason;
      box.has_stack = stack_spec_from_json(*stack, box.stack, &reason);
      if (!box.has_stack) refuse("invalid stack recipe: " + reason);
    }
  }
  if (const json::Value* snaps = doc->find("snapshots");
      snaps != nullptr && snaps->is_array()) {
    box.snapshots = *snaps;
  }
  if (const json::Value* events = doc->find("events");
      events != nullptr && events->is_array()) {
    for (std::size_t i = 0; i < events->size(); ++i) {
      std::optional<telemetry::Event> event =
          telemetry::event_from_json(*events->at(i));
      if (event.has_value()) box.events.push_back(std::move(*event));
    }
  }
  box.events_total = static_cast<std::uint64_t>(
      json::num(*doc, "events_total", static_cast<double>(box.events.size())));
  box.events_dropped =
      static_cast<std::uint64_t>(json::num(*doc, "events_dropped"));

  // The sidecar name is stored relative to the artifact so the pair can be
  // moved together (CI artifact downloads land anywhere).
  const std::string trace_file = json::str(*doc, "trace_file");
  if (!trace_file.empty()) {
    const std::filesystem::path sidecar =
        std::filesystem::path(path).parent_path() / trace_file;
    std::optional<SensorTrace> trace = SensorTrace::load(sidecar.string());
    if (trace.has_value()) {
      box.trace = std::move(*trace);
      box.has_trace = true;
    }
  }
  return box;
}

std::string render_timeline(const Blackbox& box) {
  std::ostringstream out;
  char line[256];

  out << "black box  : " << box.path << "\n";
  out << "reason     : " << box.reason << " (t=" << json::format_number(box.t)
      << " s" << (box.crashed ? ", crashed" : "") << ")\n";
  out << "label      : " << box.label << "\n";
  out << "ticks      : " << box.ticks << "  estimate_hash "
      << to_hex(box.estimate_hash) << "\n";
  if (box.has_stack) {
    const StackSpec& s = box.stack;
    out << "stack      : " << stack_kind(s) << " on " << s.track << " ("
        << s.n_particles << " particles, " << to_string(s.range) << ", "
        << s.beams << " beams, fault " << s.fault << "@"
        << json::format_number(s.severity) << ")\n";
    if (s.governor != GovernorMode::kNone) {
      out << "governor   : "
          << (s.governor == GovernorMode::kGovern ? "govern" : "enforce")
          << " mode, budget " << json::format_number(s.budget_ms) << " ms\n";
    }
  }
  if (!box.load_error.empty()) {
    out << "refused    : " << box.load_error << "\n";
  }
  out << "trace      : "
      << (box.has_trace
              ? std::to_string(box.trace.scans().size()) + " scans, " +
                    std::to_string(box.trace.odometry().size()) + " odometry"
              : std::string{"missing"})
      << "\n";

  // Snapshot-window summary: when the estimate error was recorded, show the
  // window's worst tick — the "how bad did it get" line.
  if (box.snapshots.size() > 0) {
    double worst_err = -1.0;
    double worst_t = 0.0;
    for (std::size_t i = 0; i < box.snapshots.size(); ++i) {
      const json::Value* snap = box.snapshots.at(i);
      const double err = json::num(*snap, "truth_err_m", -1.0);
      if (err > worst_err) {
        worst_err = err;
        worst_t = json::num(*snap, "t");
      }
    }
    const json::Value* first = box.snapshots.at(0);
    const json::Value* last = box.snapshots.at(box.snapshots.size() - 1);
    out << "window     : " << box.snapshots.size() << " snapshots, t=["
        << json::format_number(json::num(*first, "t")) << ", "
        << json::format_number(json::num(*last, "t")) << "]";
    if (worst_err >= 0.0) {
      out << ", max truth error " << json::format_number(worst_err)
          << " m at t=" << json::format_number(worst_t);
    }
    out << "\n";
  }

  std::snprintf(line, sizeof(line), "events     : %zu shown, %" PRIu64
                " emitted, %" PRIu64 " dropped\n",
                box.events.size(), box.events_total, box.events_dropped);
  out << line << "\n";

  for (const telemetry::Event& event : box.events) {
    std::snprintf(line, sizeof(line), "[%9.3f] %-8s %-10s %-26s",
                  event.t, telemetry::to_string(event.severity),
                  telemetry::to_string(event.category), event.code.c_str());
    out << line;
    if (event.data.is_object()) {
      for (const auto& [key, value] : event.data.members()) {
        out << " " << key << "=";
        if (value.is_string()) {
          out << value.as_string();
        } else {
          out << value.dump(0);
        }
      }
    }
    out << "\n";
  }
  return out.str();
}

PostmortemReplay replay_blackbox(const Blackbox& box, int threads) {
  PostmortemReplay replay;
  if (!box.load_error.empty()) {
    replay.error = box.load_error;
    return replay;
  }
  if (!box.has_stack) {
    replay.error = "black box carries no stack recipe (provenance.stack)";
    return replay;
  }
  if (!box.has_trace) {
    replay.error = "sensor-trace sidecar missing";
    return replay;
  }
  const std::optional<Track> track = track_from_recipe(box.stack.track);
  if (!track.has_value()) {
    replay.error = "unknown track recipe: " + box.stack.track;
    return replay;
  }

  // The recipe is the build input the run itself used; only the lane count
  // may differ, and the estimates must not notice.
  StackSpec spec = box.stack;
  if (threads > 0) spec.threads = threads;
  const Stack stack = build_stack(
      spec, std::make_shared<const OccupancyGrid>(track->grid), LidarConfig{});
  Localizer& subject = *stack.top;

  // Re-drive exactly as the closed loop delivered the stream: initialize at
  // the recorded start pose (NOT the first truth — the closed loop never
  // told the localizer the truth), every odometry increment with t <=
  // scan.t before that scan. A fresh FlightRecorder folds the estimates so
  // the hash function is the recorder's own, not a reimplementation.
  subject.initialize(box.start_pose);
  telemetry::FlightRecorder recorder{telemetry::FlightRecorderConfig{}};
  std::size_t oi = 0;
  const auto& odometry = box.trace.odometry();
  for (const SensorTrace::ScanRecord& rec : box.trace.scans()) {
    while (oi < odometry.size() && odometry[oi].t <= rec.scan.t) {
      subject.on_odometry(odometry[oi].odom);
      ++oi;
    }
    const Pose2 est = subject.on_scan(rec.scan);
    telemetry::TickSnapshot snap;
    snap.tick = recorder.ticks();
    snap.t = rec.scan.t;
    snap.est_x = est.x;
    snap.est_y = est.y;
    snap.est_theta = est.theta;
    recorder.record_tick(std::move(snap));
  }

  replay.ok = true;
  replay.ticks = recorder.ticks();
  replay.estimate_hash = recorder.estimate_hash();
  replay.bitwise_match = replay.ticks == box.ticks &&
                         replay.estimate_hash == box.estimate_hash;
  if (!replay.bitwise_match) {
    replay.error = "mismatch: recorded " + std::to_string(box.ticks) +
                   " ticks hash " + to_hex(box.estimate_hash) +
                   ", replayed " + std::to_string(replay.ticks) +
                   " ticks hash " + to_hex(replay.estimate_hash);
  }
  return replay;
}

}  // namespace srl
