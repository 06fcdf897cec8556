#include "lint/lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/json.hpp"

namespace srl::lint {

namespace {

// ---------------------------------------------------------------------------
// Rule catalog
// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& catalog() {
  static const std::vector<RuleInfo> kRules = {
      {"det-rand",
       "raw randomness primitives (rand/srand/random_device/raw engines) "
       "outside common/rng.hpp",
       "draw from an explicitly seeded srl::Rng (or Rng::substream) instead"},
      {"det-wall-clock",
       "wall-clock reads (system/steady/high_resolution_clock, time(), "
       "gettimeofday) outside src/telemetry/ and common/timer.hpp",
       "time only flows through telemetry::StageTimer/Stopwatch in "
       "instrumented layers; estimate-affecting code must be clock-free"},
      {"det-wall-clock-governor",
       "timer reads (telemetry::Stopwatch/StageTimer) inside src/governor/ "
       "— even the sanctioned wrappers are banned in the governor's "
       "control path",
       "the governor accounts compute in deterministic virtual work units "
       "(particles x beams, DESIGN.md §16); a measured duration in a "
       "shedding decision would break bitwise replay"},
      {"det-thread-id",
       "thread-identity reads (this_thread::get_id, pthread_self)",
       "results must not depend on which lane runs the work; key work by "
       "slot index (DESIGN.md §9)"},
      {"det-unordered",
       "std::unordered_{map,set} in estimate-affecting code (iteration "
       "order is implementation-defined)",
       "use std::map/std::set, a sorted vector, or common/u64_set.hpp for "
       "pure count/membership"},
      {"det-accumulate",
       "std::accumulate/std::reduce float reductions (association order is "
       "not pinned)",
       "use pairwise_sum/pairwise_reduce (common/parallel.hpp) so sums are "
       "bitwise identical at any thread count"},
      {"rt-alloc",
       "heap allocation inside a `// srl-lint: realtime` block",
       "pre-size buffers outside the hot loop; realtime blocks are "
       "allocation-free"},
      {"rt-lock",
       "lock primitives inside a realtime block",
       "hot loops are wait-free by construction (static chunking, disjoint "
       "slabs); synchronization belongs at the fork/join boundary"},
      {"rt-io",
       "stream/file I/O inside a realtime block",
       "record telemetry/events outside the hot loop"},
      {"rt-throw",
       "`throw` inside a realtime block",
       "hot paths report failure via contracts or return values"},
      {"rt-marker",
       "unbalanced or nested realtime block markers",
       "every `// srl-lint: realtime` needs exactly one matching "
       "`// srl-lint: end-realtime`"},
      {"rng-stream-key",
       "Rng::substream key that is not a pinned compile-time stream "
       "constant",
       "key substreams with a documented kXxxStream* constant (see the "
       "schedules in core/particle_filter.hpp, recovery/recovery_policy.hpp)"},
      {"hy-pragma-once",
       "header whose first code line is not #pragma once",
       "start every header with #pragma once (the self-sufficiency wall "
       "compiles each header twice)"},
      {"hy-using-namespace",
       "`using namespace` in a header",
       "qualify names; headers must not leak namespaces into every includer"},
      {"hy-printf",
       "stdout/stderr I/O (printf family, std::cout/cerr) from library code",
       "library layers report via telemetry, events or return values; "
       "printing belongs to tools/ and bench/"},
      {"hy-lenient-parse",
       "lenient text-to-number parsing (sscanf, std::stoi/stol/stoul/stoull/"
       "stof/stod) in library code: accepts trailing bytes, wraps out-of-"
       "range values, or throws out of a loader",
       "parse the whole token with parse_number/parse_double "
       "(common/parse.hpp) and refuse malformed input with a reason"},
      {"hy-bad-directive",
       "malformed srl-lint directive (unknown rule id, missing reason, or "
       "unknown marker)",
       "write `// srl-lint-allow(rule-id): reason` or `// srl-lint: "
       "realtime` / `// srl-lint: end-realtime`"},
      {"hy-unused-suppression",
       "srl-lint-allow that suppressed nothing",
       "delete the stale allow (or re-target the line it was written for)"},
      {"hy-unreadable-file",
       "file in the lint set that could not be read",
       "check the path and permissions"},
  };
  return kRules;
}

// ---------------------------------------------------------------------------
// Path scoping
// ---------------------------------------------------------------------------

bool has_prefix(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool has_suffix(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

enum class Root { kSrc, kTools, kBench, kTests, kOther };

Root root_of(std::string_view rel_path) {
  if (has_prefix(rel_path, "src/")) return Root::kSrc;
  if (has_prefix(rel_path, "tools/")) return Root::kTools;
  if (has_prefix(rel_path, "bench/")) return Root::kBench;
  if (has_prefix(rel_path, "tests/")) return Root::kTests;
  return Root::kOther;
}

// ---------------------------------------------------------------------------
// Comment/string-aware source model
// ---------------------------------------------------------------------------

/// `code` mirrors the input byte-for-byte except comment bodies and
/// string/char literal contents are blanked to spaces (newlines preserved),
/// so token scans never fire inside either. `comments[i]` holds the comment
/// text that appears on 1-based line i+1 (directives are only recognized
/// there).
struct Stripped {
  std::string code;
  std::vector<std::string> comments;
  std::vector<std::size_t> line_starts;  ///< byte offset of each line start
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

Stripped strip(std::string_view text) {
  Stripped out;
  out.code.reserve(text.size());
  out.comments.emplace_back();
  out.line_starts.push_back(0);

  enum class State { kCode, kLineComment, kBlockComment, kString, kChar,
                     kRawString };
  State state = State::kCode;
  std::string raw_terminator;  // ")delim\"" for the active raw string

  auto newline = [&]() {
    out.code.push_back('\n');
    out.comments.emplace_back();
    out.line_starts.push_back(out.code.size());
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out.code += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out.code += "  ";
          ++i;
        } else if (c == '"') {
          // Raw string literal? An identifier-boundary `R` right before the
          // quote (covers R"..", u8R"..", LR"..", ...).
          const bool raw = i > 0 && text[i - 1] == 'R' &&
                           (i < 2 || !ident_char(text[i - 2]) ||
                            has_suffix(text.substr(0, i), "u8R") ||
                            has_suffix(text.substr(0, i), "uR") ||
                            has_suffix(text.substr(0, i), "UR") ||
                            has_suffix(text.substr(0, i), "LR"));
          out.code.push_back('"');
          if (raw) {
            std::size_t j = i + 1;
            std::string delim;
            while (j < text.size() && text[j] != '(') delim.push_back(text[j++]);
            raw_terminator = ")" + delim + "\"";
            state = State::kRawString;
            for (std::size_t k = i + 1; k <= j && k < text.size(); ++k) {
              out.code.push_back(text[k] == '\n' ? '\n' : ' ');
              if (text[k] == '\n') {
                out.comments.emplace_back();
                out.line_starts.push_back(out.code.size());
              }
            }
            i = j;
          } else {
            state = State::kString;
          }
        } else if (c == '\'') {
          out.code.push_back('\'');
          state = State::kChar;
        } else if (c == '\n') {
          newline();
        } else {
          out.code.push_back(c);
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          newline();
          state = State::kCode;
        } else {
          out.comments.back().push_back(c);
          out.code.push_back(' ');
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out.code += "  ";
          ++i;
          state = State::kCode;
        } else if (c == '\n') {
          newline();
        } else {
          out.comments.back().push_back(c);
          out.code.push_back(' ');
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          out.code += "  ";
          ++i;
        } else if (c == '"') {
          out.code.push_back('"');
          state = State::kCode;
        } else if (c == '\n') {
          newline();  // unterminated; recover at EOL
          state = State::kCode;
        } else {
          out.code.push_back(' ');
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          out.code += "  ";
          ++i;
        } else if (c == '\'') {
          out.code.push_back('\'');
          state = State::kCode;
        } else if (c == '\n') {
          newline();
          state = State::kCode;
        } else {
          out.code.push_back(' ');
        }
        break;
      case State::kRawString:
        if (text.compare(i, raw_terminator.size(), raw_terminator) == 0) {
          for (std::size_t k = 0; k < raw_terminator.size(); ++k) {
            out.code.push_back(' ');
          }
          out.code.back() = '"';
          i += raw_terminator.size() - 1;
          state = State::kCode;
        } else if (c == '\n') {
          newline();
        } else {
          out.code.push_back(' ');
        }
        break;
    }
  }
  return out;
}

int line_of(const Stripped& s, std::size_t pos) {
  const auto it = std::upper_bound(s.line_starts.begin(), s.line_starts.end(),
                                   pos);
  return static_cast<int>(it - s.line_starts.begin());
}

bool line_has_code(const Stripped& s, int line) {
  const std::size_t begin = s.line_starts[static_cast<std::size_t>(line - 1)];
  const std::size_t end =
      static_cast<std::size_t>(line) < s.line_starts.size()
          ? s.line_starts[static_cast<std::size_t>(line)]
          : s.code.size();
  for (std::size_t i = begin; i < end; ++i) {
    if (!std::isspace(static_cast<unsigned char>(s.code[i]))) return true;
  }
  return false;
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string{s.substr(b, e - b)};
}

// ---------------------------------------------------------------------------
// Directives: suppressions and realtime markers
// ---------------------------------------------------------------------------

struct Directives {
  std::vector<Suppression> suppressions;  // line = target line
  std::vector<bool> realtime;             // per 1-based line, index line-1
  std::vector<Finding> findings;          // hy-bad-directive / rt-marker
};

Directives parse_directives(std::string_view rel_path, const Stripped& s) {
  Directives out;
  const int n_lines = static_cast<int>(s.comments.size());
  out.realtime.assign(static_cast<std::size_t>(n_lines), false);

  auto bad = [&](int line, std::string msg) {
    out.findings.push_back({std::string{rel_path}, line, "hy-bad-directive",
                            std::move(msg),
                            std::string{"write `// srl-lint-allow(rule-id): "
                                        "reason` or `// srl-lint: realtime` / "
                                        "`// srl-lint: end-realtime`"}});
  };

  // Standalone allow-comments target the next code-bearing line.
  std::vector<Suppression> pending;
  int open_realtime = 0;  // 0 = closed, else 1-based open-marker line

  for (int line = 1; line <= n_lines; ++line) {
    const std::string& comment =
        s.comments[static_cast<std::size_t>(line - 1)];
    const bool has_code = line_has_code(s, line);
    // Only a comment that *is* a directive participates: prose that merely
    // mentions the syntax (docs, this very file) must not parse as one.
    const bool directive_comment = has_prefix(trim(comment), "srl-lint");

    // Attach pending standalone suppressions to the first code line.
    if (has_code && !pending.empty()) {
      for (Suppression& sup : pending) {
        sup.line = line;
        out.suppressions.push_back(std::move(sup));
      }
      pending.clear();
    }

    // -- srl-lint-allow(rule): reason --
    std::size_t pos = 0;
    static constexpr std::string_view kAllow = "srl-lint-allow(";
    while (directive_comment &&
           (pos = comment.find(kAllow, pos)) != std::string::npos) {
      const std::size_t id_begin = pos + kAllow.size();
      const std::size_t close = comment.find(')', id_begin);
      if (close == std::string::npos) {
        bad(line, "srl-lint-allow is missing its closing ')'");
        break;
      }
      const std::string rule = trim(
          std::string_view{comment}.substr(id_begin, close - id_begin));
      std::size_t after = close + 1;
      while (after < comment.size() &&
             std::isspace(static_cast<unsigned char>(comment[after]))) {
        ++after;
      }
      std::string reason;
      if (after < comment.size() && comment[after] == ':') {
        reason = trim(std::string_view{comment}.substr(after + 1));
      }
      if (!is_known_rule(rule)) {
        bad(line, "srl-lint-allow names unknown rule '" + rule + "'");
      } else if (reason.empty()) {
        bad(line, "srl-lint-allow(" + rule +
                      ") has no reason — every suppression is audited");
      } else {
        Suppression sup{std::string{rel_path}, line, rule, reason, false};
        if (has_code) {
          out.suppressions.push_back(std::move(sup));  // trailing: own line
        } else {
          pending.push_back(std::move(sup));  // standalone: next code line
        }
      }
      pos = close + 1;
    }

    // -- srl-lint: realtime / end-realtime --
    static constexpr std::string_view kMarker = "srl-lint:";
    if (const std::size_t mpos =
            directive_comment ? comment.find(kMarker) : std::string::npos;
        mpos != std::string::npos) {
      const std::string word =
          trim(std::string_view{comment}.substr(mpos + kMarker.size()));
      if (word == "realtime") {
        if (open_realtime != 0) {
          out.findings.push_back(
              {std::string{rel_path}, line, "rt-marker",
               "nested `srl-lint: realtime` (block already open since line " +
                   std::to_string(open_realtime) + ")",
               "close the open block before starting another"});
        } else {
          open_realtime = line;
        }
      } else if (word == "end-realtime") {
        if (open_realtime == 0) {
          out.findings.push_back(
              {std::string{rel_path}, line, "rt-marker",
               "`srl-lint: end-realtime` without an open realtime block",
               "every end-realtime needs a preceding `srl-lint: realtime`"});
        } else {
          for (int l = open_realtime; l <= line; ++l) {
            out.realtime[static_cast<std::size_t>(l - 1)] = true;
          }
          open_realtime = 0;
        }
      } else {
        bad(line, "unknown srl-lint marker '" + word + "'");
      }
    }
  }
  for (Suppression& sup : pending) {  // allows with no code after them
    out.findings.push_back(
        {std::string{rel_path}, sup.line, "hy-unused-suppression",
         "srl-lint-allow(" + sup.rule + ") targets no code line",
         "delete the stale allow (or re-target the line it was written for)"});
  }
  if (open_realtime != 0) {
    out.findings.push_back(
        {std::string{rel_path}, open_realtime, "rt-marker",
         "`srl-lint: realtime` block is never closed",
         "add `// srl-lint: end-realtime` after the hot loop"});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Token scanning
// ---------------------------------------------------------------------------

const RuleInfo& rule_info(std::string_view id) {
  for (const RuleInfo& r : catalog()) {
    if (r.id == id) return r;
  }
  return catalog().front();  // unreachable for catalog ids
}

/// Emit `rule` for every identifier-boundary occurrence of `token` in the
/// stripped code. `call_only` additionally requires an immediately following
/// '(' (skipping whitespace), separating `rand()` from the word "rand".
/// `line_filter` (optional) restricts matches to flagged lines.
void token_scan(std::string_view rel_path, const Stripped& s,
                std::string_view token, bool call_only, std::string_view rule,
                std::string_view what, const std::vector<bool>* line_filter,
                std::vector<Finding>& out) {
  const std::string& code = s.code;
  std::size_t pos = 0;
  while ((pos = code.find(token, pos)) != std::string::npos) {
    const std::size_t end = pos + token.size();
    const bool left_ok = pos == 0 || !ident_char(code[pos - 1]);
    const bool right_ok = end >= code.size() || !ident_char(code[end]);
    bool call_ok = true;
    if (call_only) {
      std::size_t j = end;
      while (j < code.size() &&
             std::isspace(static_cast<unsigned char>(code[j]))) {
        ++j;
      }
      call_ok = j < code.size() && code[j] == '(';
    }
    if (left_ok && right_ok && call_ok) {
      const int line = line_of(s, pos);
      if (line_filter == nullptr ||
          (*line_filter)[static_cast<std::size_t>(line - 1)]) {
        out.push_back({std::string{rel_path}, line, std::string{rule},
                       std::string{what} + " '" + std::string{token} + "'",
                       std::string{rule_info(rule).hint}});
      }
    }
    pos = end;
  }
}

struct TokenRule {
  std::string_view token;
  bool call_only;
};

// -- determinism ------------------------------------------------------------

constexpr std::array<TokenRule, 8> kRandTokens{{
    {"rand", true},
    {"srand", true},
    {"rand_r", true},
    {"drand48", true},
    {"random_device", false},
    {"mt19937", false},
    {"mt19937_64", false},
    {"default_random_engine", false},
}};

constexpr std::array<TokenRule, 9> kClockTokens{{
    {"system_clock", false},
    {"steady_clock", false},
    {"high_resolution_clock", false},
    {"gettimeofday", true},
    {"clock", true},
    {"time", true},
    {"localtime", true},
    {"mktime", true},
    {"strftime", true},
}};

constexpr std::array<TokenRule, 2> kThreadIdTokens{{
    {"get_id", true},
    {"pthread_self", true},
}};

constexpr std::array<TokenRule, 4> kUnorderedTokens{{
    {"unordered_map", false},
    {"unordered_set", false},
    {"unordered_multimap", false},
    {"unordered_multiset", false},
}};

// Qualified names only: a serial fixed-order helper may legitimately be
// *named* accumulate (slam/pose_graph.cpp has one); it is the std:: library
// reductions whose association order floats with the implementation.
constexpr std::array<TokenRule, 4> kAccumulateTokens{{
    {"std::accumulate", false},
    {"std::reduce", false},
    {"std::transform_reduce", false},
    {"std::inner_product", false},
}};

// -- realtime hygiene -------------------------------------------------------

constexpr std::array<TokenRule, 12> kRtAllocTokens{{
    {"new", false},
    {"delete", false},
    {"malloc", true},
    {"calloc", true},
    {"realloc", true},
    {"free", true},
    {"resize", true},
    {"reserve", true},
    {"push_back", true},
    {"emplace_back", true},
    {"make_unique", false},
    {"make_shared", false},
}};

constexpr std::array<TokenRule, 7> kRtLockTokens{{
    {"mutex", false},
    {"lock_guard", false},
    {"unique_lock", false},
    {"scoped_lock", false},
    {"condition_variable", false},
    {"lock", true},
    {"unlock", true},
}};

constexpr std::array<TokenRule, 12> kRtIoTokens{{
    {"printf", true},
    {"fprintf", true},
    {"puts", true},
    {"fputs", true},
    {"cout", false},
    {"cerr", false},
    {"clog", false},
    {"fopen", true},
    {"fwrite", true},
    {"fread", true},
    {"ofstream", false},
    {"ifstream", false},
}};

// -- hygiene ----------------------------------------------------------------

constexpr std::array<TokenRule, 9> kPrintfTokens{{
    {"printf", true},
    {"fprintf", true},
    {"vprintf", true},
    {"vfprintf", true},
    {"puts", true},
    {"fputs", true},
    {"putchar", true},
    {"cout", false},
    {"cerr", false},
}};

constexpr std::array<TokenRule, 9> kLenientParseTokens{{
    {"sscanf", true},
    {"stoi", true},
    {"stol", true},
    {"stoll", true},
    {"stoul", true},
    {"stoull", true},
    {"stof", true},
    {"stod", true},
    {"stold", true},
}};

// ---------------------------------------------------------------------------
// The substream-key rule: extract the first argument of every substream(...)
// call and require a pinned `kXxx` stream constant (optionally qualified).
// ---------------------------------------------------------------------------

bool pinned_stream_constant(std::string_view arg) {
  // ([A-Za-z_][A-Za-z0-9_]*::)* k[A-Z][A-Za-z0-9_]*
  std::size_t i = 0;
  while (true) {
    const std::size_t start = i;
    if (i >= arg.size() || (!std::isalpha(static_cast<unsigned char>(arg[i])) &&
                            arg[i] != '_')) {
      return false;
    }
    while (i < arg.size() && ident_char(arg[i])) ++i;
    const std::string_view seg = arg.substr(start, i - start);
    if (i + 1 < arg.size() && arg[i] == ':' && arg[i + 1] == ':') {
      i += 2;  // qualifier segment; keep walking
      continue;
    }
    // Final segment: must be the whole remaining string and k-prefixed.
    return i == arg.size() && seg.size() >= 2 && seg[0] == 'k' &&
           std::isupper(static_cast<unsigned char>(seg[1])) != 0;
  }
}

void scan_substream_keys(std::string_view rel_path, const Stripped& s,
                         std::vector<Finding>& out) {
  static constexpr std::string_view kCall = "substream";
  const std::string& code = s.code;
  std::size_t pos = 0;
  while ((pos = code.find(kCall, pos)) != std::string::npos) {
    const std::size_t end = pos + kCall.size();
    const bool left_ok = pos == 0 || !ident_char(code[pos - 1]);
    std::size_t j = end;
    while (j < code.size() &&
           std::isspace(static_cast<unsigned char>(code[j]))) {
      ++j;
    }
    if (!left_ok || j >= code.size() || code[j] != '(') {
      pos = end;
      continue;
    }
    // First argument: up to a top-level ',' or ')'.
    std::size_t k = j + 1;
    int depth = 0;
    const std::size_t arg_begin = k;
    while (k < code.size()) {
      const char c = code[k];
      if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
      if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
      if (depth < 0 || (depth == 0 && c == ',')) break;
      ++k;
    }
    const std::string arg = trim(code.substr(arg_begin, k - arg_begin));
    if (!pinned_stream_constant(arg)) {
      out.push_back(
          {std::string{rel_path}, line_of(s, pos), "rng-stream-key",
           "Rng::substream key `" + arg + "` is not a pinned stream constant",
           std::string{rule_info("rng-stream-key").hint}});
    }
    pos = end;
  }
}

// ---------------------------------------------------------------------------
// Per-file rule driver
// ---------------------------------------------------------------------------

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.rule == b.rule &&
                                      a.message == b.message;
                             }),
                 findings.end());
}

void sort_suppressions(std::vector<Suppression>& sups) {
  std::sort(sups.begin(), sups.end(),
            [](const Suppression& a, const Suppression& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
}

}  // namespace

const std::vector<RuleInfo>& rule_catalog() { return catalog(); }

bool is_known_rule(std::string_view id) {
  for (const RuleInfo& r : catalog()) {
    if (r.id == id) return true;
  }
  return false;
}

FileReport lint_source(std::string_view rel_path, std::string_view content) {
  const Stripped s = strip(content);
  Directives directives = parse_directives(rel_path, s);

  const Root root = root_of(rel_path);
  const bool is_header = has_suffix(rel_path, ".hpp");
  const bool in_src = root == Root::kSrc;
  const bool telemetry = has_prefix(rel_path, "src/telemetry/");
  const bool timer_hpp = rel_path == "src/common/timer.hpp";
  const bool rng_hpp = rel_path == "src/common/rng.hpp";

  std::vector<Finding> raw = std::move(directives.findings);

  // -- determinism --
  if (!rng_hpp) {
    for (const TokenRule& t : kRandTokens) {
      token_scan(rel_path, s, t.token, t.call_only, "det-rand",
                 "raw randomness primitive", nullptr, raw);
    }
  }
  if ((in_src || root == Root::kTests) && !telemetry && !timer_hpp) {
    for (const TokenRule& t : kClockTokens) {
      token_scan(rel_path, s, t.token, t.call_only, "det-wall-clock",
                 "wall-clock read", nullptr, raw);
    }
  }
  // The governor's control path must never consult a measured duration —
  // not even through the sanctioned telemetry timers (cost is virtual work
  // units there; forwarding *metrics* like mean_scan_update_ms is fine,
  // constructing a timer is not).
  if (has_prefix(rel_path, "src/governor/")) {
    token_scan(rel_path, s, "Stopwatch", false, "det-wall-clock-governor",
               "timer in governor control path", nullptr, raw);
    token_scan(rel_path, s, "StageTimer", false, "det-wall-clock-governor",
               "timer in governor control path", nullptr, raw);
  }
  for (const TokenRule& t : kThreadIdTokens) {
    token_scan(rel_path, s, t.token, t.call_only, "det-thread-id",
               "thread-identity read", nullptr, raw);
  }
  if (in_src && !telemetry) {
    for (const TokenRule& t : kUnorderedTokens) {
      token_scan(rel_path, s, t.token, t.call_only, "det-unordered",
                 "implementation-ordered container", nullptr, raw);
    }
    for (const TokenRule& t : kAccumulateTokens) {
      token_scan(rel_path, s, t.token, t.call_only, "det-accumulate",
                 "association-order-dependent reduction", nullptr, raw);
    }
  }

  // -- realtime hygiene (only inside annotated blocks) --
  for (const TokenRule& t : kRtAllocTokens) {
    token_scan(rel_path, s, t.token, t.call_only, "rt-alloc",
               "heap allocation", &directives.realtime, raw);
  }
  for (const TokenRule& t : kRtLockTokens) {
    token_scan(rel_path, s, t.token, t.call_only, "rt-lock", "lock primitive",
               &directives.realtime, raw);
  }
  for (const TokenRule& t : kRtIoTokens) {
    token_scan(rel_path, s, t.token, t.call_only, "rt-io", "I/O",
               &directives.realtime, raw);
  }
  token_scan(rel_path, s, "throw", false, "rt-throw", "exception",
             &directives.realtime, raw);

  // -- RNG discipline --
  if (in_src && !rng_hpp) scan_substream_keys(rel_path, s, raw);

  // -- hygiene --
  if (is_header) {
    static constexpr std::string_view kPragma = "#pragma once";
    const std::size_t first =
        s.code.find_first_not_of(" \t\r\n");
    if (first == std::string::npos ||
        s.code.compare(first, kPragma.size(), kPragma) != 0) {
      raw.push_back({std::string{rel_path},
                     first == std::string::npos ? 1 : line_of(s, first),
                     "hy-pragma-once",
                     "header's first code line is not #pragma once",
                     std::string{rule_info("hy-pragma-once").hint}});
    }
    token_scan(rel_path, s, "using namespace", false, "hy-using-namespace",
               "namespace leak", nullptr, raw);
  }
  if (in_src) {
    for (const TokenRule& t : kPrintfTokens) {
      token_scan(rel_path, s, t.token, t.call_only, "hy-printf",
                 "stdout/stderr I/O", nullptr, raw);
    }
    for (const TokenRule& t : kLenientParseTokens) {
      token_scan(rel_path, s, t.token, t.call_only, "hy-lenient-parse",
                 "lenient number parse", nullptr, raw);
    }
  }

  // -- apply suppressions --
  FileReport report;
  report.suppressions = std::move(directives.suppressions);
  for (Finding& f : raw) {
    bool suppressed = false;
    for (Suppression& sup : report.suppressions) {
      if (sup.line == f.line && sup.rule == f.rule) {
        sup.used = true;
        suppressed = true;
      }
    }
    if (!suppressed) report.findings.push_back(std::move(f));
  }
  for (const Suppression& sup : report.suppressions) {
    if (!sup.used) {
      report.findings.push_back(
          {sup.file, sup.line, "hy-unused-suppression",
           "srl-lint-allow(" + sup.rule + ") suppressed nothing on this line",
           std::string{rule_info("hy-unused-suppression").hint}});
    }
  }
  sort_findings(report.findings);
  sort_suppressions(report.suppressions);
  return report;
}

TreeReport lint_tree(const std::string& root,
                     const std::vector<std::string>& rel_files) {
  TreeReport out;
  for (const std::string& rel : rel_files) {
    std::ifstream in{root + "/" + rel, std::ios::binary};
    if (!in) {
      out.findings.push_back({rel, 1, "hy-unreadable-file",
                              "could not read file",
                              std::string{rule_info("hy-unreadable-file").hint}});
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string content = buf.str();
    FileReport report = lint_source(rel, content);
    out.findings.insert(out.findings.end(),
                        std::make_move_iterator(report.findings.begin()),
                        std::make_move_iterator(report.findings.end()));
    out.suppressions.insert(
        out.suppressions.end(),
        std::make_move_iterator(report.suppressions.begin()),
        std::make_move_iterator(report.suppressions.end()));
    ++out.files_scanned;
  }
  sort_findings(out.findings);
  sort_suppressions(out.suppressions);
  return out;
}

std::vector<std::string> collect_files(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  for (const char* sub : {"src", "tools", "bench", "tests"}) {
    const fs::path dir = fs::path{root} / sub;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) continue;
    for (auto it = fs::recursive_directory_iterator{dir, ec};
         !ec && it != fs::recursive_directory_iterator{}; it.increment(ec)) {
      if (it->is_directory() && it->path().filename() == "data") {
        it.disable_recursion_pending();  // fixtures/golden traces, not source
        continue;
      }
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext != ".hpp" && ext != ".cpp") continue;
      out.push_back(
          fs::path{it->path()}.lexically_relative(root).generic_string());
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool files_from_compile_commands(const std::string& db_path,
                                 const std::string& root,
                                 std::vector<std::string>& out) {
  namespace fs = std::filesystem;
  const std::optional<json::Value> doc = json::Value::load(db_path);
  if (!doc || !doc->is_array()) return false;
  std::error_code ec;
  const fs::path canon_root = fs::weakly_canonical(root, ec);
  if (ec) return false;
  for (std::size_t i = 0; i < doc->size(); ++i) {
    const json::Value* entry = doc->at(i);
    if (entry == nullptr || !entry->is_object()) continue;
    const json::Value* file = entry->find("file");
    if (file == nullptr || !file->is_string()) continue;
    fs::path p{file->as_string()};
    if (p.is_relative()) {
      const json::Value* dir = entry->find("directory");
      if (dir != nullptr && dir->is_string()) {
        p = fs::path{dir->as_string()} / p;
      }
    }
    const fs::path canon = fs::weakly_canonical(p, ec);
    if (ec) continue;
    const std::string rel = canon.lexically_relative(canon_root).generic_string();
    if (root_of(rel) == Root::kOther) continue;
    if (rel.find("/data/") != std::string::npos) continue;
    if (!has_suffix(rel, ".cpp")) continue;
    out.push_back(rel);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return true;
}

std::vector<std::string> collect_files_with_db(const std::string& root,
                                               const std::string& db_path) {
  std::vector<std::string> walked = collect_files(root);
  if (db_path.empty()) return walked;
  std::vector<std::string> from_db;
  if (!files_from_compile_commands(db_path, root, from_db)) return walked;
  // Headers always come from the walk (a compile database has no headers);
  // TUs come from the database so linter/tidy/editors agree on the set.
  std::vector<std::string> out;
  for (const std::string& f : walked) {
    if (has_suffix(f, ".hpp")) out.push_back(f);
  }
  out.insert(out.end(), from_db.begin(), from_db.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string render_findings(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += f.file;
    out += ':';
    out += std::to_string(f.line);
    out += ": ";
    out += f.rule;
    out += ": ";
    out += f.message;
    if (!f.hint.empty()) {
      out += " (fix: ";
      out += f.hint;
      out += ')';
    }
    out += '\n';
  }
  return out;
}

std::string render_suppressions(const std::vector<Suppression>& suppressions) {
  std::string out;
  for (const Suppression& s : suppressions) {
    out += s.file;
    out += ':';
    out += std::to_string(s.line);
    out += ": ";
    out += s.rule;
    out += ": ";
    out += s.reason;
    out += '\n';
  }
  return out;
}

}  // namespace srl::lint
