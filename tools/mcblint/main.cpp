// mcblint CLI — the repo-specific static analyzer run by tools/lint.sh and
// tools/ci.sh. See docs/LINT.md for the rules and the invariants they
// protect.
//
//   usage: mcblint [options] <file-or-dir>...
//     --json               emit the strict-JSON report instead of text
//     --baseline <file>    grandfathered findings ("MCB-Lx path:line")
//     --root <dir>         repo root paths are reported relative to (default .)
//     --all-rules          ignore per-rule path scoping (fixture tests)
//     --list-rules         print the rule table and exit
//
// Exit codes (consumed by tools/lint.sh): 0 = clean, 1 = findings,
// 2 = usage or I/O error. Output is a pure function of the input files —
// ci.sh cmp's the JSON of two runs to hold the linter itself to the same
// determinism contract it enforces.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "mcblint/lexer.hpp"
#include "mcblint/rules.hpp"

namespace fs = std::filesystem;

namespace {

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

int usage() {
  std::cerr << "usage: mcblint [--json] [--baseline <file>] [--root <dir>]"
               " [--all-rules] <file-or-dir>...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool all_rules = false;
  std::string baseline_path;
  std::string root = ".";
  std::vector<std::string> inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") {
      json = true;
    } else if (a == "--all-rules") {
      all_rules = true;
    } else if (a == "--baseline") {
      if (++i >= argc) return usage();
      baseline_path = argv[i];
    } else if (a == "--root") {
      if (++i >= argc) return usage();
      root = argv[i];
    } else if (a == "--list-rules") {
      std::cout << "MCB-L1 use-after-suspend    ref/pointer to a temporary "
                   "or stack local used across co_await\n"
                << "MCB-L2 nondeterminism       wall clocks / PRNGs / host "
                   "topology in protocol code\n"
                << "MCB-L3 unordered-iteration  range-for over "
                   "std::unordered_* in protocol code\n"
                << "MCB-L6 naked-new            naked new in protocol "
                   "code\n";
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "mcblint: unknown option '" << a << "'\n";
      return usage();
    } else {
      inputs.push_back(a);
    }
  }
  if (inputs.empty()) return usage();

  // Expand directories, sort for deterministic order, dedupe.
  std::vector<fs::path> files;
  std::error_code ec;
  for (const std::string& in : inputs) {
    const fs::path p(in);
    if (fs::is_directory(p, ec)) {
      for (fs::recursive_directory_iterator it(p, ec), end; it != end;
           it.increment(ec)) {
        if (ec) break;
        if (it->is_regular_file(ec) && lintable(it->path())) {
          files.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(p);
    } else {
      std::cerr << "mcblint: cannot read '" << in << "'\n";
      return 2;
    }
  }
  const fs::path root_path = fs::absolute(root, ec);
  auto rel = [&root_path](const fs::path& p) {
    std::error_code e;
    const fs::path a = fs::absolute(p, e);
    const fs::path r = a.lexically_relative(root_path);
    const std::string s = r.generic_string();
    return s.empty() || s.substr(0, 2) == ".." ? a.generic_string() : s;
  };
  std::sort(files.begin(), files.end(),
            [&rel](const fs::path& a, const fs::path& b) {
              return rel(a) < rel(b);
            });
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<mcblint::BaselineEntry> baseline;
  if (!baseline_path.empty()) {
    std::ifstream bf(baseline_path);
    if (!bf) {
      std::cerr << "mcblint: cannot read baseline '" << baseline_path
                << "'\n";
      return 2;
    }
    std::ostringstream ss;
    ss << bf.rdbuf();
    std::string err;
    if (!mcblint::parse_baseline(ss.str(), &baseline, &err)) {
      std::cerr << "mcblint: " << baseline_path << ": " << err << "\n";
      return 2;
    }
  }

  mcblint::Options opts;
  opts.all_scopes = all_rules;
  std::vector<mcblint::Finding> findings;
  int suppressed_allow = 0;
  for (const fs::path& p : files) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      std::cerr << "mcblint: cannot read '" << p.string() << "'\n";
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const mcblint::LexedFile lf = mcblint::lex(rel(p), ss.str());
    mcblint::FileReport rep = mcblint::analyze(lf, opts);
    suppressed_allow += rep.suppressed_allow;
    findings.insert(findings.end(),
                    std::make_move_iterator(rep.findings.begin()),
                    std::make_move_iterator(rep.findings.end()));
  }

  std::vector<mcblint::BaselineEntry> stale;
  const int suppressed_baseline =
      mcblint::apply_baseline(&findings, baseline, &stale);
  for (const mcblint::BaselineEntry& s : stale) {
    std::cerr << "mcblint: WARNING: stale baseline entry " << s.rule << " "
              << s.file << ":" << s.line << " matched no finding — remove "
              << "it from " << baseline_path << "\n";
  }

  mcblint::sort_findings(&findings);
  if (json) {
    std::cout << mcblint::render_json(findings, files.size(),
                                      suppressed_allow, suppressed_baseline);
  } else {
    std::cout << mcblint::render_text(findings);
  }
  std::cerr << "mcblint: " << files.size() << " file(s), "
            << findings.size() << " finding(s), " << suppressed_allow
            << " lint-allow'd, " << suppressed_baseline << " baselined\n";
  return findings.empty() ? 0 : 1;
}
