#pragma once

// In-memory span recorder of the traced binary. A span is one call into a
// layer: its name, start, end and the span that was open when it began.
// Spans are recorded only on the thread that installed a recorder, and only
// while it is installed; everywhere else `Span` is a pointer test. The
// recorder is written out once, when the run ends (perfbench.cpp).

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kLoop,            // ExperimentRunner::run, the closed loop (root)
  kVehicleStep,     // VehicleSim::step
  kOdometry,        // WheelOdometrySensor::measure
  kLidarScan,       // LidarSim::scan
  kPursuit,         // PurePursuit::control
  kLocInit,         // Localizer::initialize
  kLocOdometry,     // Localizer::on_odometry
  kLocScan,         // Localizer::on_scan
  kPredict,         // ParticleFilter::predict
  kCorrect,         // ParticleFilter::correct
  kEstimate,        // ParticleFilter::estimate
  kCloudSnapshot,   // benchmark's own copy of the cloud for the range probe
  kCount,
};

inline const char* layer_name(Layer layer) {
  static constexpr const char* kNames[] = {
      "eval.loop",        "vehicle.step",      "vehicle.odometry",
      "sensor.lidar_scan", "control.pursuit",  "localizer.initialize",
      "localizer.on_odometry", "localizer.on_scan", "core.predict",
      "core.correct",     "core.estimate",     "trace.cloud_snapshot"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<std::size_t>(Layer::kCount));
  return kNames[static_cast<std::size_t>(layer)];
}

struct SpanRecord {
  Layer layer;
  std::int32_t parent;  // index into the recorder, -1 for a root
  std::int64_t start_ns;
  std::int64_t end_ns;
};

class SpanRecorder {
 public:
  std::int32_t open(Layer layer) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({layer, current_, now_ns(), 0});
    current_ = index;
    return index;
  }
  void close(std::int32_t index) {
    SpanRecord& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = now_ns();
    current_ = span.parent;
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Expected ranges the filter computed: particles x scored beams, counted
  // at each ParticleFilter::correct boundary.
  void count_range_queries(std::uint64_t n) { range_queries_ += n; }
  std::uint64_t range_queries() const { return range_queries_; }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  std::vector<SpanRecord> spans_;
  std::int32_t current_{-1};
  std::uint64_t range_queries_{0};
};

// The recorder spans go to on this thread; null while not tracing.
inline thread_local SpanRecorder* active_recorder = nullptr;

class Span {
 public:
  explicit Span(Layer layer)
      : recorder_{active_recorder},
        index_{recorder_ != nullptr ? recorder_->open(layer) : -1} {}
  ~Span() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* recorder_;
  std::int32_t index_;
};

}  // namespace perfbench
