#include "eval/postmortem.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>

#include "telemetry/flight_recorder.hpp"

namespace srl {

namespace {

std::uint64_t parse_hash(const std::string& hex) {
  return std::strtoull(hex.c_str(), nullptr, 16);
}

double num_field(const json::Value& v, const char* key, double fallback) {
  const json::Value* f = v.find(key);
  return f != nullptr ? f->as_double(fallback) : fallback;
}

std::string str_field(const json::Value& v, const char* key) {
  const json::Value* f = v.find(key);
  return f != nullptr ? f->as_string() : std::string{};
}

}  // namespace

std::optional<Blackbox> load_blackbox(const std::string& path) {
  const std::optional<json::Value> doc = json::Value::load(path);
  if (!doc.has_value() || !doc->is_object()) return std::nullopt;
  if (str_field(*doc, "schema") != telemetry::kBlackboxSchema) {
    return std::nullopt;
  }

  Blackbox box;
  box.path = path;
  box.reason = str_field(*doc, "reason");
  box.label = str_field(*doc, "label");
  box.t = num_field(*doc, "t", 0.0);
  box.ticks = static_cast<std::uint64_t>(num_field(*doc, "ticks", 0.0));
  box.estimate_hash = parse_hash(str_field(*doc, "estimate_hash"));
  box.sim_seed = static_cast<std::uint64_t>(num_field(*doc, "sim_seed", 0.0));
  box.sim_rng_state = str_field(*doc, "sim_rng_state");
  const json::Value* crashed = doc->find("crashed");
  box.crashed = crashed != nullptr && crashed->as_bool(false);

  if (const json::Value* sp = doc->find("start_pose");
      sp != nullptr && sp->is_array() && sp->size() == 3) {
    box.start_pose = Pose2{sp->at(0)->as_double(), sp->at(1)->as_double(),
                           sp->at(2)->as_double()};
  }
  if (const json::Value* prov = doc->find("provenance"); prov != nullptr) {
    box.provenance = *prov;
    if (const json::Value* stack = prov->find("stack"); stack != nullptr) {
      box.has_stack = stack_spec_from_json(*stack, box.stack, &box.stack_error);
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
      num_field(*doc, "events_total", static_cast<double>(box.events.size())));
  box.events_dropped =
      static_cast<std::uint64_t>(num_field(*doc, "events_dropped", 0.0));

  // The sidecar name is stored relative to the artifact so the pair can be
  // moved together (CI artifact downloads land anywhere).
  const std::string trace_file = str_field(*doc, "trace_file");
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
  std::snprintf(line, sizeof(line), "ticks      : %" PRIu64
                "  estimate_hash 0x%016" PRIx64 "\n",
                box.ticks, box.estimate_hash);
  out << line;
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
  } else if (!box.stack_error.empty()) {
    out << "stack      : invalid recipe (" << box.stack_error << ")\n";
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
      const double err = num_field(*snap, "truth_err_m", -1.0);
      if (err > worst_err) {
        worst_err = err;
        worst_t = num_field(*snap, "t", 0.0);
      }
    }
    const json::Value* first = box.snapshots.at(0);
    const json::Value* last = box.snapshots.at(box.snapshots.size() - 1);
    out << "window     : " << box.snapshots.size() << " snapshots, t=["
        << json::format_number(num_field(*first, "t", 0.0)) << ", "
        << json::format_number(num_field(*last, "t", 0.0)) << "]";
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
  if (!box.has_stack) {
    replay.error =
        box.stack_error.empty()
            ? "black box carries no stack recipe (provenance.stack)"
            : "invalid stack recipe: " + box.stack_error;
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
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "mismatch: recorded %" PRIu64 " ticks hash 0x%016" PRIx64
                  ", replayed %" PRIu64 " ticks hash 0x%016" PRIx64,
                  box.ticks, box.estimate_hash, replay.ticks,
                  replay.estimate_hash);
    replay.error = buf;
  }
  return replay;
}

}  // namespace srl
