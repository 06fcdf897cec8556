#include "eval/fault_replay.hpp"

#include <algorithm>

#include "common/fingerprint.hpp"

namespace srl {

SensorTrace corrupt_trace(const fault::FaultPipeline& pipeline,
                          const SensorTrace& trace) {
  pipeline.reset();
  SensorTrace corrupted;

  // Stream time starts at the earliest event of either stream, so envelopes
  // (ramps, blackout windows) line up with "seconds into the run".
  double t0 = 0.0;
  if (!trace.odometry().empty() && !trace.scans().empty()) {
    t0 = std::min(trace.odometry().front().t, trace.scans().front().scan.t);
  } else if (!trace.odometry().empty()) {
    t0 = trace.odometry().front().t;
  } else if (!trace.scans().empty()) {
    t0 = trace.scans().front().scan.t;
  }

  std::uint64_t odom_index = 0;
  for (const SensorTrace::OdomRecord& rec : trace.odometry()) {
    OdometryDelta odom = rec.odom;
    pipeline.corrupt_odometry({odom_index, rec.t - t0}, odom);
    ++odom_index;
    corrupted.add_odometry(rec.t, odom);
  }

  std::uint64_t scan_index = 0;
  for (const SensorTrace::ScanRecord& rec : trace.scans()) {
    LaserScan scan = rec.scan;
    pipeline.corrupt_scan({scan_index, rec.scan.t - t0}, scan);
    ++scan_index;
    corrupted.add_scan(scan, rec.truth);
  }
  return corrupted;
}

std::uint64_t trace_hash(const SensorTrace& trace) {
  Fnv1a h;
  h.value(static_cast<std::uint64_t>(trace.odometry().size()));
  h.value(static_cast<std::uint64_t>(trace.scans().size()));
  for (const SensorTrace::OdomRecord& rec : trace.odometry()) {
    h.value(rec.t);
    h.value(rec.odom.delta.x);
    h.value(rec.odom.delta.y);
    h.value(rec.odom.delta.theta);
    h.value(rec.odom.v);
    h.value(rec.odom.dt);
  }
  for (const SensorTrace::ScanRecord& rec : trace.scans()) {
    h.value(rec.scan.t);
    h.value(rec.truth.x);
    h.value(rec.truth.y);
    h.value(rec.truth.theta);
    h.value(static_cast<std::uint64_t>(rec.scan.ranges.size()));
    for (const float r : rec.scan.ranges) h.value(r);
  }
  return h.digest();
}

}  // namespace srl
