/// \file test_lint.cpp
/// \brief srl-lint engine tests: every rule id positive + negative (committed
/// fixtures under tests/data/lint/, which the file walker deliberately
/// skips), suppression parsing, scoping/allowlist boundaries, stable-sorted
/// output, and the full-repo-clean gate.
///
/// Directive comments under test live inside string literals here, so this
/// file itself stays clean under the tree-wide lint pass.

#include "lint/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

namespace srl::lint {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string{SRL_LINT_FIXTURE_DIR} + "/" + name;
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Lint a committed fixture under a pseudo repo-relative path (the path
/// drives rule scoping).
FileReport lint_fixture(const std::string& rel_path,
                        const std::string& fixture) {
  return lint_source(rel_path, read_fixture(fixture));
}

std::vector<int> lines_with(const FileReport& r, std::string_view rule) {
  std::vector<int> out;
  for (const Finding& f : r.findings) {
    if (f.rule == rule) out.push_back(f.line);
  }
  return out;
}

int count_rule(const FileReport& r, std::string_view rule) {
  return static_cast<int>(lines_with(r, rule).size());
}

using IntVec = std::vector<int>;

// ---------------------------------------------------------------------------
// Rule catalog
// ---------------------------------------------------------------------------

TEST(LintCatalog, HasThePinnedRuleIds) {
  const std::vector<std::string> expected{
      "det-rand",        "det-wall-clock",    "det-wall-clock-governor",
      "det-thread-id",   "det-unordered",     "det-accumulate",
      "rt-alloc",        "rt-lock",           "rt-io",
      "rt-throw",        "rt-marker",         "rng-stream-key",
      "hy-pragma-once",  "hy-using-namespace", "hy-printf",
      "hy-lenient-parse", "hy-bad-directive", "hy-unused-suppression",
      "hy-unreadable-file"};
  EXPECT_EQ(rule_catalog().size(), expected.size());
  std::set<std::string> seen;
  for (const RuleInfo& r : rule_catalog()) {
    EXPECT_TRUE(seen.insert(std::string{r.id}).second)
        << "duplicate rule id " << r.id;
    EXPECT_FALSE(r.summary.empty()) << r.id;
    EXPECT_FALSE(r.hint.empty()) << r.id;
  }
  for (const std::string& id : expected) {
    EXPECT_TRUE(is_known_rule(id)) << id;
  }
  EXPECT_FALSE(is_known_rule("not-a-rule"));
  EXPECT_FALSE(is_known_rule(""));
}

// ---------------------------------------------------------------------------
// Determinism rules
// ---------------------------------------------------------------------------

TEST(LintDetRand, FlagsRawRandomnessAtIdentifierBoundaries) {
  const FileReport r = lint_fixture("src/core/det_rand.cpp", "det_rand.cpp");
  EXPECT_EQ(lines_with(r, "det-rand"), (IntVec{8, 12, 16, 21}));
  EXPECT_EQ(static_cast<int>(r.findings.size()), 4) << render_findings(r.findings);
}

TEST(LintDetRand, RngHeaderItselfIsExempt) {
  const FileReport r = lint_source("src/common/rng.hpp",
                                   "#pragma once\nstd::mt19937_64 gen_;\n");
  EXPECT_TRUE(r.findings.empty()) << render_findings(r.findings);
}

TEST(LintDetWallClock, FlagsClockReadsInSrcAndTests) {
  for (const char* rel : {"src/core/x.cpp", "tests/test_x.cpp"}) {
    const FileReport r = lint_fixture(rel, "det_wall_clock.cpp");
    EXPECT_EQ(lines_with(r, "det-wall-clock"), (IntVec{6, 11, 14})) << rel;
  }
}

TEST(LintDetWallClock, BenchToolsAndTelemetryAreExempt) {
  for (const char* rel :
       {"bench/bench_x.cpp", "tools/x.cpp", "src/telemetry/writer.cpp"}) {
    const FileReport r = lint_fixture(rel, "det_wall_clock.cpp");
    EXPECT_EQ(count_rule(r, "det-wall-clock"), 0) << rel;
  }
}

TEST(LintDetWallClock, TimerHeaderIsTheOneSrcAllowlistEntry) {
  const std::string content = "#pragma once\nauto t0 = clk::now();\n";
  EXPECT_TRUE(lint_source("src/common/timer.hpp", content).findings.empty());
}

TEST(LintDetWallClockGovernor, FlagsSanctionedTimersInsideGovernorOnly) {
  const FileReport r = lint_fixture("src/governor/governor.cpp",
                                    "det_wall_clock_governor.cpp");
  EXPECT_EQ(lines_with(r, "det-wall-clock-governor"), (IntVec{7, 9}))
      << render_findings(r.findings);
}

TEST(LintDetWallClockGovernor, OtherLayersMayUseTheTelemetryTimers) {
  for (const char* rel : {"src/core/x.cpp", "src/telemetry/writer.cpp",
                          "bench/bench_x.cpp", "tools/x.cpp"}) {
    const FileReport r = lint_fixture(rel, "det_wall_clock_governor.cpp");
    EXPECT_EQ(count_rule(r, "det-wall-clock-governor"), 0) << rel;
  }
}

TEST(LintDetThreadId, FlagsThreadIdentityEverywhere) {
  for (const char* rel : {"src/core/x.cpp", "tools/x.cpp", "bench/x.cpp"}) {
    const FileReport r = lint_fixture(rel, "det_thread_id.cpp");
    EXPECT_EQ(lines_with(r, "det-thread-id"), (IntVec{5, 10})) << rel;
  }
}

TEST(LintDetUnordered, FlagsUnorderedContainersInSrcOnly) {
  const FileReport in_src =
      lint_fixture("src/core/x.cpp", "det_unordered.cpp");
  // Lines 4/5 are the #include directives, 7/8 the declarations; the comment
  // and string mentions on lines 2 and 13 must not fire.
  EXPECT_EQ(lines_with(in_src, "det-unordered"), (IntVec{4, 5, 7, 8}));

  for (const char* rel :
       {"tests/test_x.cpp", "tools/x.cpp", "src/telemetry/writer.cpp"}) {
    EXPECT_EQ(count_rule(lint_fixture(rel, "det_unordered.cpp"),
                         "det-unordered"),
              0)
        << rel;
  }
}

TEST(LintDetAccumulate, FlagsStdReductionsButNotLocalHelpers) {
  const FileReport r =
      lint_fixture("src/slam/x.cpp", "det_accumulate.cpp");
  // The local lambda *named* accumulate (line 15/19) is fixed-order code and
  // must not fire — only the std:: qualified reductions do.
  EXPECT_EQ(lines_with(r, "det-accumulate"), (IntVec{6, 10}));
}

// ---------------------------------------------------------------------------
// Real-time hygiene
// ---------------------------------------------------------------------------

TEST(LintRealtime, FlagsAllocLockIoThrowOnlyInsideAnnotatedBlock) {
  const FileReport r = lint_fixture("tools/rt/x.cpp", "rt_dirty.cpp");
  EXPECT_EQ(lines_with(r, "rt-lock"), (IntVec{12, 12}));  // lock_guard + mutex
  EXPECT_EQ(lines_with(r, "rt-alloc"), (IntVec{13}));
  EXPECT_EQ(lines_with(r, "rt-io"), (IntVec{14}));
  EXPECT_EQ(lines_with(r, "rt-throw"), (IntVec{15}));
  // reserve() on line 9 and push_back() on line 18 are outside the block.
  EXPECT_EQ(static_cast<int>(r.findings.size()), 5) << render_findings(r.findings);
}

TEST(LintRealtime, CleanBlockProducesNothing) {
  const FileReport r = lint_fixture("src/core/x.cpp", "rt_clean.cpp");
  EXPECT_TRUE(r.findings.empty()) << render_findings(r.findings);
}

TEST(LintRealtime, UnclosedBlockIsAMarkerFinding) {
  const FileReport r = lint_fixture("tools/x.cpp", "rt_unbalanced.cpp");
  EXPECT_EQ(lines_with(r, "rt-marker"), (IntVec{5}));
}

TEST(LintRealtime, StrayEndAndNestedOpenAreMarkerFindings) {
  const FileReport stray =
      lint_source("src/x.cpp", "// srl-lint: end-realtime\nint x;\n");
  EXPECT_EQ(lines_with(stray, "rt-marker"), (IntVec{1}));

  const std::string nested =
      "// srl-lint: realtime\n"
      "// srl-lint: realtime\n"
      "int x;\n"
      "// srl-lint: end-realtime\n";
  EXPECT_EQ(lines_with(lint_source("src/x.cpp", nested), "rt-marker"),
            (IntVec{2}));
}

TEST(LintRealtime, UnknownMarkerWordIsABadDirective) {
  const FileReport r =
      lint_source("src/x.cpp", "// srl-lint: turbo\nint x;\n");
  EXPECT_EQ(lines_with(r, "hy-bad-directive"), (IntVec{1}));
}

// ---------------------------------------------------------------------------
// RNG discipline
// ---------------------------------------------------------------------------

TEST(LintRngStreamKey, RequiresPinnedStreamConstantsInSrc) {
  const FileReport r =
      lint_fixture("src/fault/x.cpp", "rng_stream_key.cpp");
  // Line 15: cast expression; line 20: free variable; line 24: magic number.
  // The pinned constants on lines 11 and 28-29 (multi-line call) pass.
  EXPECT_EQ(lines_with(r, "rng-stream-key"), (IntVec{15, 20, 24}));
}

TEST(LintRngStreamKey, QualifiedEnumeratorCountsAsPinned) {
  const std::string good =
      "srl::Rng a = rng.substream(PfStream::kPredictNoise, i);\n"
      "srl::Rng b = rng.substream(srl::fault::kRecoveryStreamInject, 0);\n";
  EXPECT_EQ(count_rule(lint_source("src/core/x.cpp", good), "rng-stream-key"),
            0);
}

TEST(LintRngStreamKey, TestsMayProbeArbitraryKeys) {
  const FileReport r =
      lint_fixture("tests/test_x.cpp", "rng_stream_key.cpp");
  EXPECT_EQ(count_rule(r, "rng-stream-key"), 0);
}

// ---------------------------------------------------------------------------
// Repo hygiene
// ---------------------------------------------------------------------------

TEST(LintHygiene, HeaderWithoutPragmaOnceOrWithNamespaceLeakFires) {
  const FileReport r =
      lint_fixture("src/fixture/hy_header_bad.hpp", "hy_header_bad.hpp");
  EXPECT_EQ(lines_with(r, "hy-pragma-once"), (IntVec{2}));
  EXPECT_EQ(lines_with(r, "hy-using-namespace"), (IntVec{4}));
}

TEST(LintHygiene, HygienicHeaderIsClean) {
  const FileReport r =
      lint_fixture("src/fixture/hy_header_good.hpp", "hy_header_good.hpp");
  EXPECT_TRUE(r.findings.empty()) << render_findings(r.findings);
}

TEST(LintHygiene, PrintfFamilyFiresInSrcOnly) {
  const FileReport in_src = lint_fixture("src/io/x.cpp", "hy_printf.cpp");
  // snprintf (line 12) formats into a caller buffer and is allowed.
  EXPECT_EQ(lines_with(in_src, "hy-printf"), (IntVec{6, 7, 8}));

  for (const char* rel : {"tools/x.cpp", "tests/test_x.cpp", "bench/x.cpp"}) {
    EXPECT_EQ(count_rule(lint_fixture(rel, "hy_printf.cpp"), "hy-printf"), 0)
        << rel;
  }
}

TEST(LintHygiene, LenientParsesFireInSrcOnly) {
  const FileReport bad = lint_fixture("src/io/x.cpp", "hy_parse_bad.cpp");
  EXPECT_EQ(lines_with(bad, "hy-lenient-parse"), (IntVec{6, 10, 15, 15}))
      << render_findings(bad.findings);
  const FileReport good = lint_fixture("src/io/x.cpp", "hy_parse_good.cpp");
  EXPECT_TRUE(good.findings.empty()) << render_findings(good.findings);

  for (const char* rel : {"tools/x.cpp", "tests/test_x.cpp", "bench/x.cpp"}) {
    EXPECT_EQ(count_rule(lint_fixture(rel, "hy_parse_bad.cpp"),
                         "hy-lenient-parse"),
              0)
        << rel;
  }
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

TEST(LintSuppressions, StandaloneTrailingUnusedAndMalformedForms) {
  const FileReport r =
      lint_fixture("src/core/suppressions.cpp", "suppressions.cpp");

  // Lines 6 (standalone) and 10 (trailing) are suppressed det-rand hits.
  EXPECT_EQ(lines_with(r, "det-rand"), (IntVec{25, 30}));
  // Line 13's allow targets code (line 14) that produces nothing; line 29's
  // allow names the wrong rule for line 30.
  EXPECT_EQ(lines_with(r, "hy-unused-suppression"), (IntVec{14, 30}));
  // Line 19: unknown rule id; line 24: missing reason.
  EXPECT_EQ(lines_with(r, "hy-bad-directive"), (IntVec{19, 24}));

  ASSERT_EQ(r.suppressions.size(), 4u);
  EXPECT_EQ(r.suppressions[0].line, 6);
  EXPECT_TRUE(r.suppressions[0].used);
  EXPECT_EQ(r.suppressions[1].line, 10);
  EXPECT_TRUE(r.suppressions[1].used);
  EXPECT_EQ(r.suppressions[2].line, 14);
  EXPECT_FALSE(r.suppressions[2].used);
  EXPECT_EQ(r.suppressions[3].line, 30);
  EXPECT_EQ(r.suppressions[3].rule, "rt-alloc");
  EXPECT_FALSE(r.suppressions[3].used);
  for (const Suppression& s : r.suppressions) {
    EXPECT_FALSE(s.reason.empty()) << s.file << ":" << s.line;
  }
}

TEST(LintSuppressions, MissingCloseParenIsABadDirective) {
  const FileReport r = lint_source(
      "src/x.cpp", "// srl-lint-allow(det-rand missing\nint x;\n");
  EXPECT_EQ(lines_with(r, "hy-bad-directive"), (IntVec{1}));
}

TEST(LintSuppressions, ProseMentioningTheSyntaxDoesNotParse) {
  // A doc comment *about* the directive (not starting with srl-lint) must
  // neither suppress nor produce a bad-directive finding.
  const FileReport r = lint_source(
      "src/x.cpp",
      "// write srl-lint-allow(rule-id): reason to suppress a finding\n"
      "int x;\n");
  EXPECT_TRUE(r.findings.empty()) << render_findings(r.findings);
  EXPECT_TRUE(r.suppressions.empty());
}

// ---------------------------------------------------------------------------
// Output stability and rendering
// ---------------------------------------------------------------------------

TEST(LintRender, FindingFormatIsExact) {
  Finding f;
  f.file = "src/a.cpp";
  f.line = 3;
  f.rule = "det-rand";
  f.message = "raw randomness primitive 'rand'";
  f.hint = "use srl::Rng";
  EXPECT_EQ(render_findings({f}),
            "src/a.cpp:3: det-rand: raw randomness primitive 'rand' "
            "(fix: use srl::Rng)\n");
}

TEST(LintRender, FindingsAreStableSortedByFileLineRule) {
  const FileReport r =
      lint_fixture("src/core/suppressions.cpp", "suppressions.cpp");
  EXPECT_TRUE(std::is_sorted(
      r.findings.begin(), r.findings.end(),
      [](const Finding& a, const Finding& b) {
        return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
      }));
}

// ---------------------------------------------------------------------------
// File discovery
// ---------------------------------------------------------------------------

TEST(LintDiscovery, WalkFindsSourcesAndSkipsDataDirs) {
  const std::vector<std::string> files = collect_files(SRL_LINT_REPO_ROOT);
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
  const auto has = [&](const std::string& f) {
    return std::find(files.begin(), files.end(), f) != files.end();
  };
  EXPECT_TRUE(has("src/lint/lint.cpp"));
  EXPECT_TRUE(has("src/lint/lint.hpp"));
  EXPECT_TRUE(has("tools/srl_lint.cpp"));
  EXPECT_TRUE(has("tests/test_lint.cpp"));
  for (const std::string& f : files) {
    EXPECT_EQ(f.find("/data/"), std::string::npos) << f;
    EXPECT_TRUE(f.size() > 4 && (f.rfind(".cpp") == f.size() - 4 ||
                                 f.rfind(".hpp") == f.size() - 4))
        << f;
  }
}

TEST(LintDiscovery, CompileCommandsFilterResolveAndDedupe) {
  const std::string dir = ::testing::TempDir();
  const std::string root = dir + "/lintdb_root";
  const std::string db = root + "/compile_commands.json";
  std::filesystem::create_directories(root + "/tools");
  {
    std::ofstream out{db};
    out << "[\n"
        << "  {\"directory\": \"" << root
        << "\", \"file\": \"" << root << "/src/a.cpp\"},\n"
        << "  {\"directory\": \"" << root
        << "/tools\", \"file\": \"b.cpp\"},\n"
        << "  {\"directory\": \"" << root
        << "\", \"file\": \"" << root << "/src/a.cpp\"},\n"
        << "  {\"directory\": \"" << root
        << "\", \"file\": \"/elsewhere/z.cpp\"},\n"
        << "  {\"directory\": \"" << root
        << "\", \"file\": \"" << root << "/src/tests/data/fix.cpp\"},\n"
        << "  {\"directory\": \"" << root
        << "\", \"file\": \"" << root << "/src/h.hpp\"}\n"
        << "]\n";
  }
  std::vector<std::string> files;
  ASSERT_TRUE(files_from_compile_commands(db, root, files));
  // One dedup, out-of-root and /data/ entries dropped, headers excluded
  // (they come from the walk).
  EXPECT_EQ(files, (std::vector<std::string>{"src/a.cpp", "tools/b.cpp"}));

  std::vector<std::string> none;
  EXPECT_FALSE(files_from_compile_commands(root + "/nope.json", root, none));
}

TEST(LintDiscovery, UnreadableFileIsAFindingNotACrash) {
  const TreeReport r = lint_tree(std::string{SRL_LINT_REPO_ROOT},
                                 {"src/does_not_exist.cpp"});
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "hy-unreadable-file");
}

// ---------------------------------------------------------------------------
// The gate: this repository lints clean, byte-identically, every time
// ---------------------------------------------------------------------------

TEST(LintRepo, FullTreeIsCleanAndEverySuppressionIsAuditedAndUsed) {
  const std::string root{SRL_LINT_REPO_ROOT};
  const TreeReport r = lint_tree(root, collect_files(root));
  EXPECT_GT(r.files_scanned, 100);
  EXPECT_TRUE(r.findings.empty()) << render_findings(r.findings);
  for (const Suppression& s : r.suppressions) {
    EXPECT_TRUE(s.used) << s.file << ":" << s.line << " (" << s.rule << ")";
    EXPECT_FALSE(s.reason.empty()) << s.file << ":" << s.line;
  }
}

TEST(LintRepo, RerunsAreByteIdentical) {
  const std::string root{SRL_LINT_REPO_ROOT};
  const TreeReport a = lint_tree(root, collect_files(root));
  const TreeReport b = lint_tree(root, collect_files(root));
  EXPECT_EQ(render_findings(a.findings), render_findings(b.findings));
  EXPECT_EQ(render_suppressions(a.suppressions),
            render_suppressions(b.suppressions));
  EXPECT_EQ(a.files_scanned, b.files_scanned);
}

}  // namespace
}  // namespace srl::lint
