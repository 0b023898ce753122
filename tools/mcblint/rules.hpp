// mcblint rule engine: the repo-specific rules MCB-L1..L3 and L6 (L4 was
// retired with the engine it guarded, L5 and L7 with the Proc::step and
// Proc::skip calls whose misuse they caught; the other ids stay stable),
// numbered in the style of the conformance checker's MCB-W1/R1/C1 trace
// rules. Where
// the conformance checker audits *executions* against the model spec, these
// rules audit *source* against the engine's determinism contract — the
// third leg next to TSan (races on observed schedules) and the trace
// checker (violations on observed runs). docs/LINT.md maps each rule to
// the invariant it protects.
//
//   MCB-L1  use-after-suspend      ref/pointer bound to a temporary or a
//                                  stack local, used after a later co_await
//   MCB-L2  nondeterminism         wall clocks / PRNGs / host-thread
//                                  queries in protocol & engine code
//   MCB-L3  unordered-iteration    range-for over std::unordered_*
//   MCB-L6  naked-new              `new` outside placement/operator
//                                  new forms in protocol code
//
// Escapes: a `lint-allow: <slug-or-id>` comment on the finding's line or
// the line above suppresses it; a baseline file grandfathers findings by
// exact (rule, file, line).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mcblint/lexer.hpp"

namespace mcblint {

struct Finding {
  std::string rule;   // "MCB-L1" ... "MCB-L6"
  std::string slug;   // "use-after-suspend" ...
  std::string file;   // repo-relative path
  int line = 0;       // 1-based
  std::string detail;
};

struct Options {
  /// Ignore per-rule path scoping — every rule runs on every file. Used by
  /// the fixture tests (fixtures live under tests/, outside every scope).
  bool all_scopes = false;
};

struct FileReport {
  std::vector<Finding> findings;
  int suppressed_allow = 0;  // findings silenced by lint-allow comments
};

/// Runs every rule on one lexed file; findings are sorted by (line, rule)
/// and already filtered through the file's lint-allow comments.
FileReport analyze(const LexedFile& f, const Options& opts);

/// One baseline entry: an exact (rule, file, line) to grandfather.
struct BaselineEntry {
  std::string rule;
  std::string file;
  int line = 0;
};

/// Parses a baseline file ("MCB-L6 src/foo.cpp:12" per line, '#' comments).
/// Returns false on malformed lines (reported via *error).
bool parse_baseline(std::string_view text, std::vector<BaselineEntry>* out,
                    std::string* error);

/// Removes baselined findings in place; returns how many were suppressed.
/// Entries that matched nothing are reported through *stale.
int apply_baseline(std::vector<Finding>* findings,
                   const std::vector<BaselineEntry>& baseline,
                   std::vector<BaselineEntry>* stale);

/// Renderers over the merged, sorted finding list. Both are byte-stable
/// functions of their inputs — mcblint's own output is held to the same
/// determinism contract as the engines (ci.sh cmp's two runs).
std::string render_text(const std::vector<Finding>& findings);
std::string render_json(const std::vector<Finding>& findings,
                        std::size_t files_scanned, int suppressed_allow,
                        int suppressed_baseline);

/// Sort + exact-duplicate removal used before rendering: order is
/// (file, line, rule, detail).
void sort_findings(std::vector<Finding>* findings);

}  // namespace mcblint
