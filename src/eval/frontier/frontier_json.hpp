#pragma once

/// \file frontier_json.hpp
/// \brief The `srl.frontier/1` artifact — machine-readable robustness
/// frontiers — and the CI regression gate over two of them.
///
/// One frontier search serializes to one JSON document:
///
///     {
///       "schema": "srl.frontier/1",
///       "provenance": { compiler, build, seeds, budget, ... },
///       "points": [ {localizer, axis, track_class, breaking severity ±
///                    bracket, replay keys, probe log, black boxes} ],
///       "headline": { SynPF vs CartoLite breaking severity on one axis }
///     }
///
/// Deliberately absent: wall-clock time and thread counts. The document is
/// a pure function of the search config, so CI can demand *byte-identical*
/// artifacts between same-machine reruns (the determinism gate) before
/// applying tolerant cross-machine thresholds. Like the bench schema,
/// fields may be added but never renamed or repurposed without bumping the
/// version suffix.
///
/// `compare_frontier` is the gate `tools/bench_compare --frontier` wraps:
/// every baseline point must exist in the candidate, and its breaking
/// severity may not drop by more than the tolerance (a censored point —
/// no failure up to severity 1.0 — counts as breaking beyond the range, so
/// a candidate that starts failing inside the range regresses loudly).

#include <optional>
#include <string>

#include "common/json.hpp"
#include "eval/bench_compare.hpp"
#include "eval/build_info.hpp"
#include "eval/frontier/frontier_search.hpp"

namespace srl::frontier {

inline constexpr const char* kFrontierSchema = "srl.frontier/1";

struct FrontierDocument {
  BuildInfo provenance{};  ///< never compared by the gate
  bool fast_mode{false};   ///< written into "provenance" after the build
  FrontierResult result{};
  bool has_headline{false};
  FrontierHeadline headline{};
};

json::Value frontier_to_json(const FrontierDocument& doc);
bool write_frontier_json(const std::string& path, const FrontierDocument& doc);

/// Parse; nullopt on I/O error, malformed JSON, or an unknown schema.
std::optional<FrontierDocument> frontier_from_json(const json::Value& root);
std::optional<FrontierDocument> read_frontier_json(const std::string& path);

struct FrontierCompareThresholds {
  /// Candidate breaking severity may drop at most this far below the
  /// baseline's (absolute, in severity units). 0 = no drop tolerated.
  double severity_tol = 0.0;
  /// Demand bitwise-identical documents: same points, same probe
  /// sequences, same replay keys (the same-machine determinism gate).
  bool require_identical = false;
};

/// Sentinel "effective breaking severity" of a censored point: beyond any
/// in-range severity, finite so limits serialize in failure reports.
inline constexpr double kCensoredBreaking = 2.0;

/// Diff candidate against baseline (report types shared with the bench
/// gate, eval/bench_compare.hpp).
CompareReport compare_frontier(const FrontierDocument& baseline,
                               const FrontierDocument& candidate,
                               const FrontierCompareThresholds& thresholds);

}  // namespace srl::frontier
