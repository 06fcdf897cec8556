#pragma once

/// \file lint.hpp
/// \brief `srl-lint`: project-specific determinism & real-time static
/// analysis (DESIGN.md §13).
///
/// The repo's headline property — every localizer stage is bitwise
/// deterministic at any thread count (DESIGN.md §9) — is enforced
/// dynamically by the `test_replay_invariance` table. That catches a stray
/// `std::rand()` or wall-clock read only *after* it has shipped, hours later,
/// in a replay regime. This pass makes the invariants machine-checkable at
/// review time: a dependency-free lexical analyzer (comment/string-aware, no
/// compiler front end) that walks `src/`, `tools/`, `bench/` and `tests/`
/// and enforces four SRL-specific rule families generic clang-tidy checks
/// cannot express:
///
///  - **determinism** (`det-*`): unseeded/raw randomness outside `Rng`,
///    wall-clock reads outside the telemetry allowlist, thread-identity
///    logic, unordered-container use in estimate-affecting code, and
///    non-pairwise float accumulation (the PR-3 reductions must stay
///    fixed-association).
///  - **real-time hygiene** (`rt-*`): inside `// srl-lint: realtime` ...
///    `// srl-lint: end-realtime` blocks (the PF predict/raycast/weight/
///    resample hot loops) no heap allocation, locks, I/O or `throw`.
///  - **RNG discipline** (`rng-*`): every `Rng::substream` key in library
///    code must be a pinned, compile-time-identifiable stream constant
///    (`kPfStream*` / `kRecoveryStream*`-style) per the PR-3/PR-5 stream
///    schedule.
///  - **repo hygiene** (`hy-*`): `#pragma once` in every header, no
///    `using namespace` at header scope, no stdout/stderr I/O and no lenient
///    number parsing (`sscanf`, `std::sto*`) in library code.
///
/// Suppressions are explicit and audited: `// srl-lint-allow(rule-id):
/// reason` on its own line (targets the next code line) or trailing (targets
/// its own line). An empty reason or unknown rule id is itself a finding, as
/// is a suppression that suppresses nothing — the inventory is printable so
/// reviewers see every allow with its justification.
///
/// Findings carry file:line, rule id, message and a fix hint; all output is
/// stable-sorted so the tool itself is bitwise deterministic across reruns.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace srl::lint {

/// One rule in the catalog (also the source of `--list-rules` and the
/// DESIGN.md §13 table).
struct RuleInfo {
  std::string_view id;       ///< stable rule id, e.g. "det-rand"
  std::string_view summary;  ///< one-line description of what it bans
  std::string_view hint;     ///< one-line fix hint attached to findings
};

/// Every rule the pass knows, in catalog order. Ids are pinned: suppressions
/// reference them in committed code.
const std::vector<RuleInfo>& rule_catalog();

/// True when `id` names a catalog rule.
bool is_known_rule(std::string_view id);

/// One diagnostic. `file` is the repo-relative path it was produced for,
/// `line` is 1-based.
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  std::string hint;
};

/// One `srl-lint-allow` directive found in a file.
struct Suppression {
  std::string file;
  int line = 0;       ///< line the directive *targets* (not the comment line)
  std::string rule;   ///< rule id it names
  std::string reason; ///< justification text after the ':'
  bool used = false;  ///< did it suppress at least one finding?
};

/// Result of linting one file: the findings that survived suppression and
/// every suppression encountered (with use marks), both stable-sorted.
struct FileReport {
  std::vector<Finding> findings;
  std::vector<Suppression> suppressions;
};

/// Result of linting a file set.
struct TreeReport {
  std::vector<Finding> findings;
  std::vector<Suppression> suppressions;
  int files_scanned = 0;
};

/// Lint one in-memory source. `rel_path` is the repo-relative path with '/'
/// separators; it drives rule scoping (e.g. `det-unordered-container` only
/// fires under `src/`), so tests can exercise scoping with pseudo paths.
FileReport lint_source(std::string_view rel_path, std::string_view content);

/// Lint `rel_files` (repo-relative) under `root`, reading each from disk.
/// Unreadable files produce a `hy-unreadable-file` finding instead of
/// aborting the run.
TreeReport lint_tree(const std::string& root,
                     const std::vector<std::string>& rel_files);

/// Directory-walk file discovery: every `*.hpp` / `*.cpp` under
/// `<root>/{src,tools,bench,tests}`, skipping any `data/` component (test
/// fixtures and golden traces are not source). Sorted, '/' separators.
std::vector<std::string> collect_files(const std::string& root);

/// File discovery from a CMake `compile_commands.json`: the translation
/// units it lists, filtered to the four linted roots, made repo-relative,
/// deduplicated and sorted. Headers never appear in a compile database, so
/// callers union this with the headers from `collect_files` (see
/// `collect_files_with_db`). Returns false when the database is missing or
/// malformed (callers fall back to the walk).
bool files_from_compile_commands(const std::string& db_path,
                                 const std::string& root,
                                 std::vector<std::string>& out);

/// The file list `srl_lint` actually lints: `.cpp` TUs from the compile
/// database when `db_path` is non-empty and parseable (so the linter, editors
/// and clang-tidy share one source-of-truth file set), every header from the
/// directory walk either way, walk-only as the fallback.
std::vector<std::string> collect_files_with_db(const std::string& root,
                                               const std::string& db_path);

/// Render findings one per line — `file:line: rule: message (fix: hint)` —
/// stable-sorted, byte-identical across reruns.
std::string render_findings(const std::vector<Finding>& findings);

/// Render the suppression inventory — `file:line: rule: reason` — sorted.
std::string render_suppressions(const std::vector<Suppression>& suppressions);

}  // namespace srl::lint
