// Tests of the command-line flag parser used by the tools, plus end-to-end
// subprocess tests of mcbsim's --json output (parsed back with util::json).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "util/cli.hpp"
#include "util/json.hpp"

namespace mcb::util {
namespace {

TEST(CliTest, SubcommandAndFlags) {
  auto cli = Cli::parse({"sort", "--p", "16", "--k=4", "--json"});
  EXPECT_EQ(cli.command(), "sort");
  EXPECT_EQ(cli.get_uint("p", 0), 16u);
  EXPECT_EQ(cli.get_uint("k", 0), 4u);
  EXPECT_TRUE(cli.get_bool("json"));
  EXPECT_TRUE(cli.unused().empty());
}

TEST(CliTest, DefaultsWhenAbsent) {
  auto cli = Cli::parse({"select"});
  EXPECT_EQ(cli.get_int("rank", -7), -7);
  EXPECT_EQ(cli.get_string("shape", "even"), "even");
  EXPECT_FALSE(cli.get_bool("json"));
  EXPECT_FALSE(cli.has("rank"));
}

TEST(CliTest, BooleanSpellings) {
  EXPECT_TRUE(Cli::parse({"x", "--a", "true"}).get_bool("a"));
  EXPECT_TRUE(Cli::parse({"x", "--a=1"}).get_bool("a"));
  EXPECT_FALSE(Cli::parse({"x", "--a", "false"}).get_bool("a", true));
  EXPECT_FALSE(Cli::parse({"x", "--a=0"}).get_bool("a", true));
  EXPECT_THROW(Cli::parse({"x", "--a", "maybe"}).get_bool("a"),
               std::invalid_argument);
}

TEST(CliTest, NegativeAndMalformedIntegers) {
  auto cli = Cli::parse({"x", "--v", "-12"});
  EXPECT_EQ(cli.get_int("v", 0), -12);
  EXPECT_THROW(cli.get_uint("v", 0), std::invalid_argument);
  auto bad = Cli::parse({"x", "--v", "12abc"});
  EXPECT_THROW(bad.get_int("v", 0), std::invalid_argument);
}

TEST(CliTest, DuplicateAndMalformedFlagsRejected) {
  EXPECT_THROW(Cli::parse({"x", "--a", "1", "--a", "2"}),
               std::invalid_argument);
  EXPECT_THROW(Cli::parse({"x", "stray"}), std::invalid_argument);
  EXPECT_THROW(Cli::parse({"x", "--"}), std::invalid_argument);
}

TEST(CliTest, NoSubcommand) {
  auto cli = Cli::parse({"--p", "4"});
  EXPECT_EQ(cli.command(), "");
  EXPECT_EQ(cli.get_uint("p", 0), 4u);
}

TEST(CliTest, UnusedFlagsReported) {
  auto cli = Cli::parse({"sort", "--p", "4", "--typo", "8"});
  EXPECT_EQ(cli.get_uint("p", 0), 4u);
  auto unused = cli.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(CliTest, ValuelessFlagBeforeAnotherFlag) {
  auto cli = Cli::parse({"x", "--verbose", "--p", "3"});
  EXPECT_TRUE(cli.get_bool("verbose"));
  EXPECT_EQ(cli.get_uint("p", 0), 3u);
}

// --- mcbsim --json end-to-end -------------------------------------------------
//
// These run the real binary (path injected through MCBSIM_BIN by ctest) and
// parse its --json output back, pinning the machine-readable contract:
// RunStats telemetry must be present and string fields must survive a strict
// parser. Skipped when the binary's location is unknown (e.g. running the
// test executable by hand outside ctest).

const char* mcbsim_bin() { return std::getenv("MCBSIM_BIN"); }

std::string run_command(const std::string& cmd) {
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  std::string out;
  char buf[4096];
  while (pipe != nullptr) {
    const auto got = fread(buf, 1, sizeof(buf), pipe);
    if (got == 0) break;
    out.append(buf, got);
  }
  if (pipe != nullptr) {
    EXPECT_EQ(pclose(pipe), 0) << cmd << "\noutput:\n" << out;
  }
  return out;
}

/// Checks a `--profile --json` run document: the model stats, and every
/// RunStats host field under its top-level `host` member.
void expect_stats_telemetry(const JsonValue& doc) {
  const auto& stats = doc.at("stats");
  EXPECT_GT(stats.at("cycles").as_number(), 0.0);
  EXPECT_GT(stats.at("messages").as_number(), 0.0);
  // Resume count stays in stats: it is engine-invariant.
  EXPECT_GT(stats.at("proc_resumes").as_number(), 0.0);
  // The RunStats host telemetry: wall time, throughput and the frame
  // counters must all be serialized, under "host" and nowhere else.
  const auto& host = doc.at("host");
  EXPECT_GT(host.at("sim_wall_ns").as_number(), 0.0);
  for (const char* field : {"cycles_per_sec", "frame_allocs", "frame_bytes"}) {
    EXPECT_NE(host.find(field), nullptr) << field;
    EXPECT_EQ(stats.find(field), nullptr) << field;
  }
  EXPECT_EQ(stats.find("sim_wall_ns"), nullptr);
  // Phases carry their full accounting: name, first cycle, extent, traffic.
  ASSERT_TRUE(stats.at("phases").is_array());
  ASSERT_GT(stats.at("phases").size(), 0u);
  double phase_cycles = 0.0, phase_messages = 0.0;
  for (const auto& ph : stats.at("phases").items()) {
    EXPECT_FALSE(ph.at("name").as_string().empty());
    ASSERT_NE(ph.find("first_cycle"), nullptr);
    phase_cycles += ph.at("cycles").as_number();
    phase_messages += ph.at("messages").as_number();
  }
  // Phases partition the run.
  EXPECT_EQ(phase_cycles, stats.at("cycles").as_number());
  EXPECT_EQ(phase_messages, stats.at("messages").as_number());
}

void expect_config(const JsonValue& doc) {
  const auto& cfg = doc.at("config");
  EXPECT_GT(cfg.at("p").as_number(), 0.0);
  EXPECT_GT(cfg.at("k").as_number(), 0.0);
  EXPECT_GT(cfg.at("n").as_number(), 0.0);
  EXPECT_FALSE(cfg.at("shape").as_string().empty());
  EXPECT_FALSE(cfg.at("engine").as_string().empty());
}

TEST(McbsimJsonTest, SortEmitsTelemetryAndParses) {
  if (mcbsim_bin() == nullptr) GTEST_SKIP() << "MCBSIM_BIN not set";
  const auto out = run_command(std::string(mcbsim_bin()) +
                               " sort --p 8 --k 2 --n 128 --json --profile");
  const auto doc = json_parse(out);
  EXPECT_FALSE(doc.at("algorithm").as_string().empty());
  expect_config(doc);
  expect_stats_telemetry(doc);
  // Telemetry is opt-in: no "obs" member without --obs.
  EXPECT_EQ(doc.find("obs"), nullptr);
}

TEST(McbsimJsonTest, SelectEmitsTelemetryAndParses) {
  if (mcbsim_bin() == nullptr) GTEST_SKIP() << "MCBSIM_BIN not set";
  const auto out = run_command(std::string(mcbsim_bin()) +
                               " select --p 8 --k 2 --n 128 --json --profile");
  const auto doc = json_parse(out);
  ASSERT_NE(doc.find("value"), nullptr);
  EXPECT_GT(doc.at("filter_phases").as_number(), 0.0);
  expect_config(doc);
  // Selection documents the rank it solved for.
  EXPECT_GT(doc.at("config").at("rank").as_number(), 0.0);
  expect_stats_telemetry(doc);
}

TEST(McbsimJsonTest, SweepEmitsGridTrialsAndAggregates) {
  if (mcbsim_bin() == nullptr) GTEST_SKIP() << "MCBSIM_BIN not set";
  const std::string flags =
      " sweep --p 4,8 --k 2 --n 64 --algorithms auto,select --seeds 2 "
      "--json";
  const auto out = run_command(std::string(mcbsim_bin()) + flags);
  const auto doc = json_parse(out);
  EXPECT_TRUE(doc.at("sweep").is_object());
  // 2 p-values x 2 algorithms x 2 seeds.
  ASSERT_EQ(doc.at("trials").size(), 8u);
  ASSERT_EQ(doc.at("aggregates").size(), 4u);
  for (const auto& trial : doc.at("trials").items()) {
    EXPECT_EQ(trial.at("error").as_string(), "");
    EXPECT_GT(trial.at("cycles").as_number(), 0.0);
    // Determinism contract: no host-side timing in sweep JSON; the
    // (deterministic) frame counters sit in the trial's "host" object.
    EXPECT_EQ(trial.find("sim_wall_ns"), nullptr);
    EXPECT_EQ(trial.find("frame_allocs"), nullptr);
    EXPECT_NE(trial.at("host").find("frame_allocs"), nullptr);
  }
  for (const auto& agg : doc.at("aggregates").items()) {
    EXPECT_EQ(agg.at("failed").as_number(), 0.0);
    EXPECT_GT(agg.at("cycles").at("mean").as_number(), 0.0);
  }
}

TEST(McbsimJsonTest, SweepJsonIdenticalAcrossThreadFlags) {
  if (mcbsim_bin() == nullptr) GTEST_SKIP() << "MCBSIM_BIN not set";
  const std::string grid =
      " sweep --p 4,8 --k 2 --n 64,128 --algorithms select --seeds 3 --json"
      " --threads ";
  const auto t1 = run_command(std::string(mcbsim_bin()) + grid + "1");
  const auto t4 = run_command(std::string(mcbsim_bin()) + grid + "4");
  EXPECT_EQ(t1, t4);
  EXPECT_FALSE(t1.empty());
}

TEST(McbsimJsonTest, ReferenceEngineMatchesEventAccounting) {
  if (mcbsim_bin() == nullptr) GTEST_SKIP() << "MCBSIM_BIN not set";
  auto model_stats = [&](const std::string& engine_flags) {
    const auto out =
        run_command(std::string(mcbsim_bin()) +
                    " select --p 8 --k 2 --n 256 --json " + engine_flags);
    return json_parse(out);
  };
  const auto ev = model_stats("--engine event");
  const auto ref = model_stats("--engine reference");
  EXPECT_EQ(ref.at("config").at("engine").as_string(), "reference");
  EXPECT_EQ(ref.at("value").as_number(), ev.at("value").as_number());
  EXPECT_EQ(ref.at("stats").at("cycles").as_number(),
            ev.at("stats").at("cycles").as_number());
  EXPECT_EQ(ref.at("stats").at("messages").as_number(),
            ev.at("stats").at("messages").as_number());
}

TEST(McbsimJsonTest, ThreadsFlagWithSerialEngineIsUsageError) {
  if (mcbsim_bin() == nullptr) GTEST_SKIP() << "MCBSIM_BIN not set";
  // Single runs are serial: --threads belongs to sweep alone, so on a
  // single-run command it is an unknown flag — a usage error (exit 2), not
  // a silently ignored thread count — and "parallel" is no engine.
  auto run = [](const std::string& flags) {
    const std::string cmd = std::string(mcbsim_bin()) + flags + " 2>&1";
    FILE* pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    std::string out;
    if (pipe == nullptr) return std::pair{-1, out};
    char buf[4096];
    std::size_t got = 0;
    while ((got = fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, got);
    const int status = pclose(pipe);
    return std::pair{WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
  };
  for (const char* flags :
       {" sort --p 8 --k 2 --n 64 --threads 2",
        " select --p 8 --k 2 --n 64 --engine event --threads 4",
        " trace --p 4 --engine reference --threads 2",
        " serve --p 8 --k 2 --n 256 --queries 8 --threads 2"}) {
    const auto [rc, out] = run(flags);
    EXPECT_EQ(rc, 2) << flags << "\noutput:\n" << out;
    EXPECT_NE(out.find("unknown flag --threads"), std::string::npos)
        << flags << "\noutput:\n" << out;
  }
  for (const char* flags :
       {" sort --p 8 --k 2 --n 64 --engine parallel",
        " select --p 8 --k 2 --n 64 --engine parallel",
        " serve --p 8 --k 2 --n 256 --queries 8 --engine parallel",
        " sweep --p 4 --k 2 --n 64 --algorithms select --engine parallel"}) {
    const auto [rc, out] = run(flags);
    EXPECT_EQ(rc, 2) << flags << "\noutput:\n" << out;
    EXPECT_NE(out.find("unknown engine 'parallel' (event|reference)"),
              std::string::npos)
        << flags << "\noutput:\n" << out;
  }
  // sweep keeps --threads: the width of its trial pool.
  const auto [rc, out] =
      run(" sweep --p 4 --k 2 --n 64 --algorithms select --threads 4");
  EXPECT_EQ(rc, 0) << out;
}

TEST(McbsimJsonTest, NegativeValuesInUintListsAreUsageErrors) {
  if (mcbsim_bin() == nullptr) GTEST_SKIP() << "MCBSIM_BIN not set";
  // Regression: parse_uint_list fed "-5" to std::stoull, which happily
  // wraps to 2^64-5 — the sweep then tried to allocate that many
  // processors. Any non-digit in a list item must be a usage error.
  for (const char* flags :
       {" sweep --p -5 --k 2 --n 64 --algorithms select --seeds 1",
        " sweep --p 4,-8 --k 2 --n 64 --algorithms select --seeds 1",
        " sweep --p 8 --k 2 --n 1e3 --algorithms select --seeds 1"}) {
    const std::string cmd = std::string(mcbsim_bin()) + flags + " 2>&1";
    FILE* pipe = popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr) << cmd;
    std::string out;
    char buf[4096];
    std::size_t got = 0;
    while ((got = fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, got);
    const int status = pclose(pipe);
    ASSERT_TRUE(WIFEXITED(status)) << cmd;
    EXPECT_EQ(WEXITSTATUS(status), 2) << cmd << "\noutput:\n" << out;
    EXPECT_NE(out.find("malformed unsigned integer"), std::string::npos)
        << cmd << "\noutput:\n" << out;
  }
}

TEST(McbsimJsonTest, ServeEmitsDeterministicVerifiedReport) {
  if (mcbsim_bin() == nullptr) GTEST_SKIP() << "MCBSIM_BIN not set";
  const std::string args =
      " serve --p 8 --k 2 --n 256 --queries 24 --batch 4 --seed 5 --verify"
      " --json";
  const auto out = run_command(std::string(mcbsim_bin()) + args);
  const auto doc = json_parse(out);
  EXPECT_EQ(doc.at("config").at("p").as_number(), 8.0);
  EXPECT_EQ(doc.at("config").at("queries").as_number(), 24.0);
  EXPECT_GT(doc.at("batches").as_number(), 0.0);
  EXPECT_GT(doc.at("total_cycles").as_number(), 0.0);
  ASSERT_TRUE(doc.at("queries").is_array());
  EXPECT_EQ(doc.at("queries").size(), 24u);
  ASSERT_TRUE(doc.at("classes").is_array());
  // Byte-determinism across engines through the CLI (ci.sh enforces the
  // same with cmp; this keeps it pinned in-suite).
  const auto out2 = run_command(std::string(mcbsim_bin()) + args +
                                " --engine reference");
  EXPECT_EQ(out, out2);
}

// --- run telemetry (--obs / --trace-out / report) ----------------------------

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(McbsimObsTest, ObsJsonCarriesSpansAndTimeline) {
  if (mcbsim_bin() == nullptr) GTEST_SKIP() << "MCBSIM_BIN not set";
  const auto out = run_command(std::string(mcbsim_bin()) +
                               " select --p 8 --k 2 --n 128 --obs --json");
  const auto doc = json_parse(out);
  const auto& obs = doc.at("obs");
  // Span summaries cover the selection phases.
  ASSERT_TRUE(obs.at("spans").is_array());
  bool saw_filter = false;
  for (const auto& s : obs.at("spans").items()) {
    if (s.at("name").as_string() == "filter") {
      saw_filter = true;
      EXPECT_GT(s.at("cycles").as_number(), 0.0);
      EXPECT_GT(s.at("messages").as_number(), 0.0);
    }
  }
  EXPECT_TRUE(saw_filter);
  EXPECT_EQ(obs.at("spans_dropped").as_number(), 0.0);
  // Timeline: one channel entry per channel, busy+idle == cycles, per-channel
  // writes sum to the run's messages.
  const auto& tl = obs.at("timeline");
  ASSERT_EQ(tl.at("channels").size(), 2u);
  EXPECT_EQ(tl.at("busy_cycles").as_number() + tl.at("idle_cycles").as_number(),
            doc.at("stats").at("cycles").as_number());
  double writes = 0.0;
  for (const auto& ch : tl.at("channels").items()) {
    writes += ch.at("writes").as_number();
    EXPECT_GT(ch.at("buckets").size(), 0u);
  }
  EXPECT_EQ(writes, doc.at("stats").at("messages").as_number());
  // Totals live in "stats" alone; "obs" carries no copy of them.
  EXPECT_EQ(obs.find("metrics"), nullptr);
}

TEST(McbsimObsTest, TraceOutWritesStrictPerfettoJson) {
  if (mcbsim_bin() == nullptr) GTEST_SKIP() << "MCBSIM_BIN not set";
  const auto trace_path = temp_path("cli_trace.json");
  run_command(std::string(mcbsim_bin()) +
              " sort --p 8 --k 2 --n 128 --trace-out " + trace_path);
  const auto trace = json_parse(read_file(trace_path));
  EXPECT_DOUBLE_EQ(trace.at("otherData").at("p").as_number(), 8.0);
  // At least one counter sample per channel and one span pair.
  std::size_t counters = 0, begins = 0, ends = 0;
  for (const auto& ev : trace.at("traceEvents").items()) {
    const auto& ph = ev.at("ph").as_string();
    if (ph == "C") ++counters;
    if (ph == "B") ++begins;
    if (ph == "E") ++ends;
  }
  EXPECT_GE(counters, 2u);
  EXPECT_GT(begins, 0u);
  EXPECT_EQ(begins, ends);
}

TEST(McbsimObsTest, ReportIsDeterministicAcrossRuns) {
  if (mcbsim_bin() == nullptr) GTEST_SKIP() << "MCBSIM_BIN not set";
  const std::string cmd =
      std::string(mcbsim_bin()) + " sort --p 8 --k 2 --n 128 --obs --json";
  const auto run_a = temp_path("cli_report_a.json");
  const auto run_b = temp_path("cli_report_b.json");
  {
    std::ofstream(run_a) << run_command(cmd);
    std::ofstream(run_b) << run_command(cmd);
  }
  const auto rep_a =
      run_command(std::string(mcbsim_bin()) + " report " + run_a);
  const auto rep_b =
      run_command(std::string(mcbsim_bin()) + " report " + run_b);
  // The two runs differ in sim_wall_ns etc.; the report must not.
  EXPECT_EQ(rep_a, rep_b);
  EXPECT_NE(rep_a.find("# mcbsim run report"), std::string::npos);
  EXPECT_NE(rep_a.find("## Phases"), std::string::npos);
  EXPECT_NE(rep_a.find("## Channel utilization"), std::string::npos);
}

TEST(McbsimObsTest, SweepObsDeterministicAcrossThreadsAndReportable) {
  if (mcbsim_bin() == nullptr) GTEST_SKIP() << "MCBSIM_BIN not set";
  const std::string grid =
      " sweep --p 8 --k 2 --n 64 --algorithms auto,select --seeds 2 --obs"
      " --json --threads ";
  const auto t1 = run_command(std::string(mcbsim_bin()) + grid + "1");
  const auto t4 = run_command(std::string(mcbsim_bin()) + grid + "4");
  EXPECT_EQ(t1, t4);
  const auto doc = json_parse(t1);
  for (const auto& trial : doc.at("trials").items()) {
    EXPECT_EQ(trial.at("error").as_string(), "");
    // --obs serializes per-trial span summaries.
    ASSERT_NE(trial.find("spans"), nullptr);
    EXPECT_GT(trial.at("spans").size(), 0u);
  }
  const auto sweep_path = temp_path("cli_sweep_obs.json");
  std::ofstream(sweep_path) << t1;
  const auto rep =
      run_command(std::string(mcbsim_bin()) + " report " + sweep_path);
  EXPECT_NE(rep.find("# mcbsim sweep report"), std::string::npos);
  EXPECT_NE(rep.find("## Spans (all trials)"), std::string::npos);
}

// --- host telemetry (--profile / strip-host) ---------------------------------

/// Members named "host" anywhere in `v`.
std::size_t count_host_members(const JsonValue& v) {
  std::size_t n = 0;
  if (v.is_object()) {
    for (const auto& [key, member] : v.members()) {
      n += (key == "host" ? 1 : 0) + count_host_members(member);
    }
  } else if (v.is_array()) {
    for (const auto& item : v.items()) n += count_host_members(item);
  }
  return n;
}

/// The plain and --profile documents of one mcbsim command line.
struct ProfilePair {
  std::string plain_path;
  std::string prof_path;
};

ProfilePair run_profile_pair(const std::string& name,
                             const std::string& args) {
  ProfilePair pair{temp_path("cli_" + name + "_plain.json"),
                   temp_path("cli_" + name + "_prof.json")};
  const std::string cmd = std::string(mcbsim_bin()) + args + " --json";
  std::ofstream(pair.plain_path) << run_command(cmd);
  std::ofstream(pair.prof_path) << run_command(cmd + " --profile");
  return pair;
}

const char* const kProfiledCommands[][2] = {
    {"sort", " sort --p 8 --k 2 --n 256"},
    {"select", " select --p 8 --k 2 --n 256"},
    {"serve", " serve --p 8 --k 2 --n 256 --queries 24 --batch 4 --seed 5"},
};

TEST(McbsimProfileTest, PlainDocumentsCarryNoHostMember) {
  if (mcbsim_bin() == nullptr) GTEST_SKIP() << "MCBSIM_BIN not set";
  for (const auto& [name, args] : kProfiledCommands) {
    const auto pair = run_profile_pair(name, args);
    const auto plain = json_parse(read_file(pair.plain_path));
    EXPECT_EQ(count_host_members(plain), 0u) << name;
    if (const auto* stats = plain.find("stats")) {
      EXPECT_EQ(stats->find("sim_wall_ns"), nullptr) << name;
      EXPECT_EQ(stats->find("frame_allocs"), nullptr) << name;
    }
  }
}

TEST(McbsimProfileTest, ProfiledDocumentsHaveOneHostAndStripToPlain) {
  if (mcbsim_bin() == nullptr) GTEST_SKIP() << "MCBSIM_BIN not set";
  for (const auto& [name, args] : kProfiledCommands) {
    const auto pair = run_profile_pair(name, args);
    const auto prof = json_parse(read_file(pair.prof_path));
    EXPECT_TRUE(prof.at("host").is_object()) << name;
    EXPECT_EQ(count_host_members(prof), 1u) << name;
    const auto stripped_plain = run_command(
        std::string(mcbsim_bin()) + " strip-host " + pair.plain_path);
    const auto stripped_prof = run_command(
        std::string(mcbsim_bin()) + " strip-host " + pair.prof_path);
    EXPECT_EQ(stripped_plain, stripped_prof) << name;
    EXPECT_EQ(stripped_prof.find("\"host\""), std::string::npos) << name;
  }
  // One serving session: its host member counts every batch run.
  const auto serve = run_profile_pair("serve_batches", kProfiledCommands[2][1]);
  const auto doc = json_parse(read_file(serve.prof_path));
  EXPECT_EQ(doc.at("host").at("batch_runs").as_number(),
            doc.at("batches").as_number());
}

TEST(McbsimProfileTest, ReportRendersHostSectionOnlyForProfiledDocuments) {
  if (mcbsim_bin() == nullptr) GTEST_SKIP() << "MCBSIM_BIN not set";
  for (const auto& [name, args] : kProfiledCommands) {
    const auto pair = run_profile_pair(std::string("report_") + name, args);
    const auto plain = run_command(std::string(mcbsim_bin()) + " report " +
                                   pair.plain_path);
    const auto prof = run_command(std::string(mcbsim_bin()) + " report " +
                                  pair.prof_path);
    EXPECT_EQ(plain.find("## Host profile"), std::string::npos) << name;
    EXPECT_NE(prof.find("## Host profile"), std::string::npos) << name;
    EXPECT_NE(prof.find("- sim_wall_ns: "), std::string::npos) << name;
    // The host section is appended after the model-level report.
    EXPECT_EQ(prof.compare(0, plain.size(), plain), 0) << name;
  }
  // A serve document renders its model-level tables before the host section.
  const auto serve = run_profile_pair("report_serve_tables",
                                      kProfiledCommands[2][1]);
  const auto rep = run_command(std::string(mcbsim_bin()) + " report " +
                               serve.prof_path);
  EXPECT_NE(rep.find("# mcbsim serving report"), std::string::npos);
  EXPECT_NE(rep.find("## Per-class latency"), std::string::npos);
  EXPECT_NE(rep.find("## Batch summary"), std::string::npos);
}

TEST(McbsimProfileTest, ProfiledTraceOutMatchesUnprofiled) {
  if (mcbsim_bin() == nullptr) GTEST_SKIP() << "MCBSIM_BIN not set";
  // The trace export reads only simulated time, so --profile must not add
  // or change one byte of it.
  const auto plain_path = temp_path("cli_plain_trace.json");
  const auto prof_path = temp_path("cli_prof_trace.json");
  const std::string base = " sort --p 8 --k 2 --n 128 --trace-out ";
  run_command(std::string(mcbsim_bin()) + base + plain_path);
  run_command(std::string(mcbsim_bin()) + base + prof_path + " --profile");
  const auto prof = read_file(prof_path);
  json_parse(prof);  // strict parser
  EXPECT_EQ(read_file(plain_path), prof);
}

TEST(McbsimObsTest, SweepWithoutObsStaysSpanFree) {
  if (mcbsim_bin() == nullptr) GTEST_SKIP() << "MCBSIM_BIN not set";
  const auto out = run_command(
      std::string(mcbsim_bin()) +
      " sweep --p 8 --k 2 --n 64 --algorithms select --seeds 1 --json");
  const auto doc = json_parse(out);
  EXPECT_EQ(doc.at("sweep").find("obs"), nullptr);
  for (const auto& trial : doc.at("trials").items()) {
    EXPECT_EQ(trial.find("spans"), nullptr);
  }
}

}  // namespace
}  // namespace mcb::util
