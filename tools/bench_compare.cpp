/// \file bench_compare.cpp
/// \brief CI regression gate over two `BENCH_robustness.json` documents —
/// or, with `--frontier`, two `srl.frontier/1` robustness-frontier
/// artifacts (eval/frontier/frontier_json.hpp), or, with `--throughput`,
/// two `srl.bench_throughput/1` sensor-update throughput tables
/// (eval/throughput_json.hpp).
///
/// Diffs a candidate benchmark run against a committed baseline with the
/// threshold semantics of `eval/bench_compare.hpp` and maps the report onto
/// exit codes:
///
///   0  every gate passed
///   1  at least one regression (each printed as `cell: metric regressed
///      (baseline ..., candidate ..., limit ...)`)
///   2  usage error or unreadable/invalid JSON
///
/// Usage:
///   bench_compare <baseline.json> <candidate.json>
///       [--lat-tol <frac>]        lateral mu relative tolerance (0.10)
///       [--lat-slack-cm <cm>]     lateral mu absolute slack     (1.0)
///       [--p99-tol <frac>]        latency p99 relative tolerance (1.0)
///       [--p99-slack-ms <ms>]     latency p99 absolute slack     (2.0)
///       [--reloc-tol <frac>]      time-to-relocalize relative tol (0.5)
///       [--reloc-slack-s <s>]     time-to-relocalize absolute slack (0.5)
///       [--no-recovery-gate]      skip recovery-success / reloc gates
///       [--hash require|ignore]   fault-trace fingerprint gate (ignore)
///       [--allow-new-crashes]     tolerate crashes the baseline survived
///
///   bench_compare --frontier <baseline.json> <candidate.json>
///       [--sev-tol <sev>]   allowed breaking-severity drop per frontier
///                           point before it counts as a regression (0.0;
///                           censored points compare as severity 2.0)
///       [--exact]           determinism self-compare: additionally demand
///                           bitwise-identical brackets, probe sequences
///                           and replay indices (zero tolerance)
///
///   bench_compare --throughput <baseline.json> <candidate.json>
///       [--tol <frac>]        allowed relative items/sec drop (0.5)
///       [--improve-tol <frac>] speedup fraction that earns an advisory
///                              note, never a failure (0.5)
///       [--structural]        skip the rate gate (coverage + hashes only)
///       [--hash require|ignore] per-cell estimate fingerprint gate
///                              (ignore; require is the same-machine
///                              scalar-vs-AVX2 / thread determinism gate)
///
///   bench_compare --tradeoff <baseline.json> <candidate.json>
///       [--err-tol <frac>]      lateral-error relative tolerance (0.10)
///       [--err-slack-cm <cm>]   lateral-error absolute slack     (1.0)
///       [--cost-tol <frac>]     compute-cost relative tolerance  (0.10)
///       [--cost-slack <units>]  compute-cost absolute slack      (2000)
///       [--improve-tol <frac>]  improvement that excuses the other
///                               axis regressing (0.05)
///       [--no-headline]         skip the graceful-degradation headline
///                               gate (mixed-schema comparisons)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "eval/bench_compare.hpp"
#include "eval/benchmark_json.hpp"
#include "eval/frontier/frontier_json.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <baseline.json> <candidate.json>\n"
               "  [--lat-tol <frac>] [--lat-slack-cm <cm>]\n"
               "  [--p99-tol <frac>] [--p99-slack-ms <ms>]\n"
               "  [--reloc-tol <frac>] [--reloc-slack-s <s>]\n"
               "  [--no-recovery-gate]\n"
               "  [--hash require|ignore] [--allow-new-crashes]\n"
               "or:    %s --frontier <baseline.json> <candidate.json>\n"
               "  [--sev-tol <sev>] [--exact]\n"
               "or:    %s --throughput <baseline.json> <candidate.json>\n"
               "  [--tol <frac>] [--improve-tol <frac>] [--structural]\n"
               "  [--hash require|ignore]\n"
               "or:    %s --tradeoff <baseline.json> <candidate.json>\n"
               "  [--err-tol <frac>] [--err-slack-cm <cm>]\n"
               "  [--cost-tol <frac>] [--cost-slack <units>]\n"
               "  [--improve-tol <frac>] [--no-headline]\n",
               argv0, argv0, argv0, argv0);
  return 2;
}

bool parse_double(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

/// One gate run, whatever the schema: load the baseline, then the
/// candidate (exit 2 on the first that fails), diff them with `compare`,
/// print notes, failures and a verdict line that starts with `head`.
template <typename Read, typename Compare, typename Head>
int run_gate(const std::string (&paths)[2], const char* schema, Read read,
             Compare compare, Head head) {
  const char* const roles[2] = {"baseline", "candidate"};
  decltype(read(paths[0])) docs[2];
  for (int i = 0; i < 2; ++i) {
    docs[i] = read(paths[i]);
    if (!docs[i]) {
      std::fprintf(stderr, "%s %s: unreadable or not a %s document\n",
                   roles[i], paths[i].c_str(), schema);
      return 2;
    }
  }

  const srl::CompareReport report = compare(*docs[0], *docs[1]);
  for (const std::string& note : report.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const srl::CompareFailure& failure : report.failures) {
    std::fprintf(stderr, "FAIL %s\n", failure.describe().c_str());
  }
  std::printf("%s — %s\n", head(report).c_str(),
              report.ok() ? "PASS"
                          : ("FAIL (" + std::to_string(report.failures.size()) +
                             " regressions)")
                                .c_str());
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace srl;

  std::string paths[2];
  int n_paths = 0;
  CompareThresholds thresholds;
  bool frontier_mode = false;
  frontier::FrontierCompareThresholds frontier_tol;
  bool throughput_mode = false;
  ThroughputThresholds throughput_tol;
  bool tradeoff_mode = false;
  TradeoffThresholds tradeoff_tol;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(arg, "--frontier") == 0) {
      frontier_mode = true;
    } else if (std::strcmp(arg, "--throughput") == 0) {
      throughput_mode = true;
    } else if (std::strcmp(arg, "--tradeoff") == 0) {
      tradeoff_mode = true;
    } else if (std::strcmp(arg, "--tol") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_double(v, throughput_tol.tol_frac))
        return usage(argv[0]);
    } else if (std::strcmp(arg, "--improve-tol") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_double(v, throughput_tol.improve_frac))
        return usage(argv[0]);
      tradeoff_tol.improve_frac = throughput_tol.improve_frac;
    } else if (std::strcmp(arg, "--err-tol") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_double(v, tradeoff_tol.err_tol_frac))
        return usage(argv[0]);
    } else if (std::strcmp(arg, "--err-slack-cm") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_double(v, tradeoff_tol.err_slack_cm))
        return usage(argv[0]);
    } else if (std::strcmp(arg, "--cost-tol") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_double(v, tradeoff_tol.cost_tol_frac))
        return usage(argv[0]);
    } else if (std::strcmp(arg, "--cost-slack") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_double(v, tradeoff_tol.cost_slack))
        return usage(argv[0]);
    } else if (std::strcmp(arg, "--no-headline") == 0) {
      tradeoff_tol.require_headline = false;
    } else if (std::strcmp(arg, "--structural") == 0) {
      throughput_tol.structural_only = true;
    } else if (std::strcmp(arg, "--sev-tol") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_double(v, frontier_tol.severity_tol))
        return usage(argv[0]);
    } else if (std::strcmp(arg, "--exact") == 0) {
      frontier_tol.require_identical = true;
    } else if (std::strcmp(arg, "--lat-tol") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_double(v, thresholds.lateral_tol_frac))
        return usage(argv[0]);
    } else if (std::strcmp(arg, "--lat-slack-cm") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_double(v, thresholds.lateral_slack_cm))
        return usage(argv[0]);
    } else if (std::strcmp(arg, "--p99-tol") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_double(v, thresholds.p99_tol_frac))
        return usage(argv[0]);
    } else if (std::strcmp(arg, "--p99-slack-ms") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_double(v, thresholds.p99_slack_ms))
        return usage(argv[0]);
    } else if (std::strcmp(arg, "--reloc-tol") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_double(v, thresholds.reloc_tol_frac))
        return usage(argv[0]);
    } else if (std::strcmp(arg, "--reloc-slack-s") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_double(v, thresholds.reloc_slack_s))
        return usage(argv[0]);
    } else if (std::strcmp(arg, "--no-recovery-gate") == 0) {
      thresholds.gate_recovery = false;
    } else if (std::strcmp(arg, "--hash") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      if (std::strcmp(v, "require") == 0) {
        thresholds.require_hash_match = true;
        throughput_tol.require_hash_match = true;
      } else if (std::strcmp(v, "ignore") == 0) {
        thresholds.require_hash_match = false;
        throughput_tol.require_hash_match = false;
      } else {
        return usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--allow-new-crashes") == 0) {
      thresholds.allow_new_crashes = true;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return usage(argv[0]);
    } else if (n_paths < 2) {
      paths[n_paths++] = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (n_paths != 2) return usage(argv[0]);

  using std::to_string;
  if (frontier_mode) {
    return run_gate(
        paths, frontier::kFrontierSchema, frontier::read_frontier_json,
        [&](const auto& base, const auto& cand) {
          return frontier::compare_frontier(base, cand, frontier_tol);
        },
        [&](const CompareReport& r) {
          return "bench_compare --frontier: " + to_string(r.cells_compared) +
                 " points compared" +
                 (frontier_tol.require_identical ? " (exact)" : "");
        });
  }
  if (throughput_mode) {
    return run_gate(
        paths, kBenchThroughputSchema, read_throughput_json,
        [&](const auto& base, const auto& cand) {
          return compare_throughput(base, cand, throughput_tol);
        },
        [&](const CompareReport& r) {
          return "bench_compare --throughput: " + to_string(r.cells_compared) +
                 " cells, " + to_string(r.hashes_compared) +
                 " fingerprints compared" +
                 (throughput_tol.structural_only ? " (structural)" : "");
        });
  }
  if (tradeoff_mode) {
    return run_gate(
        paths, kBenchRobustnessSchema, read_bench_json,
        [&](const auto& base, const auto& cand) {
          return compare_tradeoff(base, cand, tradeoff_tol);
        },
        [](const CompareReport& r) {
          return "bench_compare --tradeoff: " + to_string(r.cells_compared) +
                 " governed cells compared";
        });
  }
  return run_gate(
      paths, kBenchRobustnessSchema, read_bench_json,
      [&](const auto& base, const auto& cand) {
        return compare_bench(base, cand, thresholds);
      },
      [](const CompareReport& r) {
        return "bench_compare: " + to_string(r.cells_compared) + " cells, " +
               to_string(r.hashes_compared) + " fingerprints compared";
      });
}
