// Tests of the mcblint static analyzer (tools/mcblint): each rule fires at
// the exact (rule, line) pairs its fixture under tests/lint_fixtures/
// documents, every lint-allow escape form suppresses, the negative fixture
// stays clean, baselines grandfather and report staleness, JSON output
// round-trips through the strict util::json parser and is byte-identical
// across runs, and the CLI's 0/1/2 exit discipline holds end to end.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mcblint/lexer.hpp"
#include "mcblint/rules.hpp"
#include "util/json.hpp"

namespace mcblint {
namespace {

// --- fixture loading ---------------------------------------------------------

std::string fixtures_dir() {
  const char* dir = std::getenv("MCBLINT_FIXTURES");
  return dir == nullptr ? std::string() : std::string(dir);
}

std::string read_fixture(const std::string& name) {
  const std::string path = fixtures_dir() + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Lexes fixture `name` under a pretend repo path and runs the rule engine.
FileReport analyze_fixture(const std::string& name, bool all_scopes = true,
                           std::string as_path = std::string()) {
  if (as_path.empty()) as_path = "tests/lint_fixtures/" + name;
  const LexedFile f = lex(as_path, read_fixture(name));
  Options opts;
  opts.all_scopes = all_scopes;
  return analyze(f, opts);
}

std::vector<std::pair<std::string, int>> rule_lines(const FileReport& r) {
  std::vector<std::pair<std::string, int>> out;
  for (const Finding& f : r.findings) out.emplace_back(f.rule, f.line);
  return out;
}

using RL = std::vector<std::pair<std::string, int>>;

// --- per-rule fixtures: exact (rule, line) pairs -----------------------------

TEST(McblintRules, L1UseAfterSuspendFiresOnFixture) {
  const auto r = analyze_fixture("l1_use_after_suspend.cpp");
  EXPECT_EQ(rule_lines(r),
            (RL{{"MCB-L1", 21}, {"MCB-L1", 29}, {"MCB-L1", 37}}));
  // The detail names the offending binding and the suspension point.
  EXPECT_NE(r.findings[0].detail.find("co_await"), std::string::npos);
  EXPECT_EQ(r.findings[0].slug, "use-after-suspend");
}

TEST(McblintRules, L2NondeterminismFiresOnFixture) {
  const auto r = analyze_fixture("l2_nondeterminism.cpp");
  EXPECT_EQ(rule_lines(r),
            (RL{{"MCB-L2", 9},
                {"MCB-L2", 10},
                {"MCB-L2", 16},
                {"MCB-L2", 18},
                {"MCB-L2", 19},
                {"MCB-L2", 24},
                {"MCB-L2", 25}}));
  for (const Finding& f : r.findings) EXPECT_EQ(f.slug, "nondeterminism");
}

TEST(McblintRules, L3UnorderedIterationFiresOnFixture) {
  const auto r = analyze_fixture("l3_unordered_iteration.cpp");
  EXPECT_EQ(rule_lines(r), (RL{{"MCB-L3", 15}, {"MCB-L3", 24}}));
  // Member-path roots are resolved: the container name, not the object.
  EXPECT_NE(r.findings[0].detail.find("'by_id'"), std::string::npos);
  EXPECT_NE(r.findings[1].detail.find("'seen'"), std::string::npos);
}

TEST(McblintRules, L6NakedNewFiresOnFixture) {
  const auto r = analyze_fixture("l6_naked_new.cpp");
  EXPECT_EQ(rule_lines(r), (RL{{"MCB-L6", 11}, {"MCB-L6", 12}}));
  EXPECT_NE(r.findings[1].detail.find("new Frame"), std::string::npos);
}

// --- escapes and negatives ---------------------------------------------------

TEST(McblintRules, LintAllowSuppressesEveryRuleAndForm) {
  // One violation per rule, silenced via trailing comments, comment-above,
  // slug names and MCB-Lx ids. All four must be counted as suppressed.
  const auto r = analyze_fixture("allows.cpp");
  EXPECT_TRUE(r.findings.empty()) << render_text(r.findings);
  EXPECT_EQ(r.suppressed_allow, 4);
}

TEST(McblintRules, CleanFixtureProducesNoFindings) {
  const auto r = analyze_fixture("clean.cpp");
  EXPECT_TRUE(r.findings.empty()) << render_text(r.findings);
  EXPECT_EQ(r.suppressed_allow, 0);
}

TEST(McblintRules, PathScopingGatesProtocolOnlyRules) {
  // L2 is scoped to engine/protocol directories: the same bytes fire when
  // lexed as src/mcb code and stay silent under tests/ without --all-rules.
  const auto in_scope =
      analyze_fixture("l2_nondeterminism.cpp", false, "src/mcb/fixture.cpp");
  EXPECT_EQ(in_scope.findings.size(), 7u);
  const auto out_of_scope = analyze_fixture("l2_nondeterminism.cpp", false);
  EXPECT_TRUE(out_of_scope.findings.empty())
      << render_text(out_of_scope.findings);
}

// --- baseline ----------------------------------------------------------------

TEST(McblintBaseline, ParseAcceptsEntriesAndComments) {
  std::vector<BaselineEntry> entries;
  std::string error;
  ASSERT_TRUE(parse_baseline("# grandfathered\n"
                             "MCB-L6 src/mcb/network.cpp:67\n"
                             "\n"
                             "MCB-L2 src/serve/loop.cpp:12\n",
                             &entries, &error))
      << error;
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].rule, "MCB-L6");
  EXPECT_EQ(entries[0].file, "src/mcb/network.cpp");
  EXPECT_EQ(entries[0].line, 67);
}

TEST(McblintBaseline, ParseRejectsMalformedLines) {
  std::vector<BaselineEntry> entries;
  std::string error;
  EXPECT_FALSE(parse_baseline("MCB-L6 missing-line-number\n", &entries,
                              &error));
  EXPECT_FALSE(error.empty());
}

TEST(McblintBaseline, ApplySuppressesExactMatchesAndReportsStale) {
  auto r = analyze_fixture("l6_naked_new.cpp");
  ASSERT_EQ(r.findings.size(), 2u);
  std::vector<BaselineEntry> baseline = {
      {"MCB-L6", "tests/lint_fixtures/l6_naked_new.cpp", 11},
      {"MCB-L6", "tests/lint_fixtures/l6_naked_new.cpp", 999},  // stale
  };
  std::vector<BaselineEntry> stale;
  const int suppressed = apply_baseline(&r.findings, baseline, &stale);
  EXPECT_EQ(suppressed, 1);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].line, 12);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].line, 999);
}

// --- output: JSON round-trip and byte determinism ----------------------------

TEST(McblintOutput, JsonRoundTripsThroughStrictParser) {
  const auto r = analyze_fixture("l3_unordered_iteration.cpp");
  const std::string doc = render_json(r.findings, 1, r.suppressed_allow, 0);
  const mcb::util::JsonValue v = mcb::util::json_parse(doc);  // throws if bad
  EXPECT_EQ(v.at("tool").as_string(), "mcblint");
  EXPECT_EQ(v.at("version").as_number(), 1.0);
  EXPECT_EQ(v.at("files_scanned").as_number(), 1.0);
  EXPECT_EQ(v.at("suppressed").at("lint_allow").as_number(), 0.0);
  EXPECT_EQ(v.at("suppressed").at("baseline").as_number(), 0.0);
  const mcb::util::JsonValue& findings = v.at("findings");
  ASSERT_EQ(findings.size(), r.findings.size());
  for (std::size_t i = 0; i < findings.size(); ++i) {
    EXPECT_EQ(findings.at(i).at("rule").as_string(), r.findings[i].rule);
    EXPECT_EQ(findings.at(i).at("slug").as_string(), r.findings[i].slug);
    EXPECT_EQ(findings.at(i).at("file").as_string(), r.findings[i].file);
    EXPECT_EQ(findings.at(i).at("line").as_number(),
              static_cast<double>(r.findings[i].line));
    EXPECT_EQ(findings.at(i).at("detail").as_string(), r.findings[i].detail);
  }
}

TEST(McblintOutput, AnalysisAndRenderingAreByteDeterministic) {
  // mcblint holds itself to the engine's contract: same input, same bytes.
  const auto a = analyze_fixture("l2_nondeterminism.cpp");
  const auto b = analyze_fixture("l2_nondeterminism.cpp");
  EXPECT_EQ(render_text(a.findings), render_text(b.findings));
  EXPECT_EQ(render_json(a.findings, 1, a.suppressed_allow, 0),
            render_json(b.findings, 1, b.suppressed_allow, 0));
}

TEST(McblintOutput, SortFindingsOrdersAndDeduplicates) {
  std::vector<Finding> fs = {
      {"MCB-L2", "nondeterminism", "b.cpp", 5, "x"},
      {"MCB-L1", "use-after-suspend", "a.cpp", 9, "y"},
      {"MCB-L2", "nondeterminism", "b.cpp", 5, "x"},  // exact dup
      {"MCB-L1", "use-after-suspend", "a.cpp", 2, "z"},
  };
  sort_findings(&fs);
  ASSERT_EQ(fs.size(), 3u);
  EXPECT_EQ(fs[0].file, "a.cpp");
  EXPECT_EQ(fs[0].line, 2);
  EXPECT_EQ(fs[1].line, 9);
  EXPECT_EQ(fs[2].file, "b.cpp");
}

// --- lexer structure ---------------------------------------------------------

TEST(McblintLexer, StripsLiteralsCommentsAndDirectives) {
  const LexedFile f = lex("x.cpp",
                          "// rand()\n"
                          "#define NOISE rand()\n"
                          "const char* s = \"rand()\";\n"
                          "char c = 'r';\n");
  for (const Token& t : f.tokens) EXPECT_NE(t.text, "rand");
}

TEST(McblintLexer, CollectsAllows) {
  const LexedFile f =
      lex("x.cpp", "int a;  // lint-allow: naked-new, nondeterminism\n"
                   "/* lint-allow: MCB-L6 */\n");
  ASSERT_EQ(f.allows.count(1), 1u);
  EXPECT_EQ(f.allows.at(1).count("naked-new"), 1u);
  EXPECT_EQ(f.allows.at(1).count("nondeterminism"), 1u);
  ASSERT_EQ(f.allows.count(2), 1u);
  EXPECT_EQ(f.allows.at(2).count("MCB-L6"), 1u);
}

// --- CLI exit discipline (subprocess; binary injected by ctest) --------------

const char* mcblint_bin() { return std::getenv("MCBLINT_BIN"); }

int run_mcblint(const std::string& args) {
  const std::string cmd =
      std::string(mcblint_bin()) + " " + args + " >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  EXPECT_NE(rc, -1);
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(McblintCli, ExitsZeroOnCleanInput) {
  if (mcblint_bin() == nullptr) GTEST_SKIP() << "MCBLINT_BIN not set";
  EXPECT_EQ(run_mcblint("--all-rules " + fixtures_dir() + "/clean.cpp"), 0);
}

TEST(McblintCli, ExitsOneOnFindings) {
  if (mcblint_bin() == nullptr) GTEST_SKIP() << "MCBLINT_BIN not set";
  EXPECT_EQ(
      run_mcblint("--all-rules " + fixtures_dir() + "/l6_naked_new.cpp"), 1);
}

TEST(McblintCli, ExitsTwoOnUsageErrors) {
  if (mcblint_bin() == nullptr) GTEST_SKIP() << "MCBLINT_BIN not set";
  EXPECT_EQ(run_mcblint("--no-such-flag"), 2);
  EXPECT_EQ(run_mcblint("does/not/exist.cpp"), 2);
}

}  // namespace
}  // namespace mcblint
