// In-process tests of the radiocast CLI driver (src/cli/cli.hpp): command
// parsing, artifact emission, exit codes, and end-to-end reproducibility.
#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <tuple>

namespace radiocast::cli {
namespace {

constexpr const char* kTinySpec = R"({
  "id": "cli_tiny",
  "topology": { "family": "geometric", "n": 16, "seed": 5, "radius": 0.5 },
  "algos": ["coded"],
  "k": [4],
  "seeds": 2,
  "seed_base": 42
})";

struct CliRun {
  int code = 0;
  std::string out, err;
};

CliRun run_cli(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  CliRun r;
  r.code = cli_main(args, out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

std::string temp_dir(const std::string& leaf) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(Cli, NoArgsPrintsUsageAndFails) {
  const CliRun r = run_cli({});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST(Cli, HelpSucceeds) {
  EXPECT_EQ(run_cli({"--help"}).code, 0);
  EXPECT_EQ(run_cli({"help"}).code, 0);
}

TEST(Cli, UnknownCommandFails) {
  const CliRun r = run_cli({"frobnicate"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, VersionReportsBuildProvenance) {
  const CliRun r = run_cli({"version"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("compiler:"), std::string::npos);
}

TEST(Cli, ValidatePrintsCanonicalForm) {
  const std::string dir = temp_dir("cli_validate");
  write_file(dir + "/spec.json", kTinySpec);
  const CliRun r = run_cli({"validate", dir + "/spec.json"});
  EXPECT_EQ(r.code, 0);
  // Defaults are materialized in the canonical form.
  EXPECT_NE(r.out.find("\"payload_bytes\": 16"), std::string::npos) << r.out;
}

TEST(Cli, ValidateRejectsBadSpecWithExitCode1) {
  const std::string dir = temp_dir("cli_validate_bad");
  write_file(dir + "/spec.json", R"({"id": "x", "algos": ["quantum"]})");
  const CliRun r = run_cli({"validate", dir + "/spec.json"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
  EXPECT_EQ(run_cli({"validate", dir + "/nonexistent.json"}).code, 1);
}

TEST(Cli, TopologyTooSmallForItsFamilyFailsCleanly) {
  const std::string dir = temp_dir("cli_tiny_topology");
  const auto spec = [&](const std::string& family, int n) {
    const std::string path = dir + "/" + family + std::to_string(n) + ".json";
    write_file(path, R"({"id":"tiny","topology":{"family":")" + family + R"(","n":)" +
                         std::to_string(n) + R"(},"k":[2],"seeds":1})");
    return path;
  };
  for (const auto& [family, n, min_n] :
       {std::tuple<std::string, int, int>{"path", 3, 4}, {"barbell", 5, 6}}) {
    const std::string expect = "topology.n must be >= " + std::to_string(min_n) +
                               " for family \"" + family + "\"";
    for (const CliRun& r : {run_cli({"validate", spec(family, n)}),
                            run_cli({"run", spec(family, n), "--out", dir, "--quiet"})}) {
      EXPECT_EQ(r.code, 1) << family;
      EXPECT_NE(r.err.find(expect), std::string::npos) << r.err;
    }
    EXPECT_EQ(run_cli({"run", spec(family, min_n), "--out", dir, "--quiet"}).code, 0)
        << family;
  }
  EXPECT_EQ(run_cli({"run", spec("star", 4), "--out", dir, "--quiet"}).code, 0);
}

TEST(Cli, HeldPacketPreflightFailsBeforeRunning) {
  const std::string dir = temp_dir("cli_preflight");
  const std::string path = dir + "/huge.json";
  write_file(path, R"({"id":"huge","topology":{"family":"path","n":5},)"
                   R"("k":[4000000000],"seeds":1})");
  for (const CliRun& r :
       {run_cli({"validate", path}), run_cli({"run", path, "--out", dir, "--quiet"})}) {
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("held packets need about 447"), std::string::npos) << r.err;
  }
  EXPECT_FALSE(std::filesystem::exists(dir + "/huge.results.json"));
}

TEST(Cli, OversizedTopologyPreflightFailsBeforeRunning) {
  const std::string dir = temp_dir("cli_edges");
  const std::string path = dir + "/dense.json";
  write_file(path, R"({"id":"dense","topology":{"family":"gnp","n":100000,"p":0.5},)"
                   R"("algos":["coded"],"k":[4]})");
  for (const CliRun& r :
       {run_cli({"validate", path}), run_cli({"run", path, "--out", dir, "--quiet"})}) {
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("topology expects about 2499975000 edges"), std::string::npos)
        << r.err;
  }
  EXPECT_FALSE(std::filesystem::exists(dir + "/dense.results.json"));
}

TEST(Cli, DenseNamedShapePreflightFailsBeforeRunning) {
  const std::string dir = temp_dir("cli_dense_named");
  const std::string path = dir + "/c.json";
  write_file(path, R"({"id":"c","topology":{"family":"complete","n":100000},"k":[4]})");
  for (const CliRun& r :
       {run_cli({"validate", path}), run_cli({"run", path, "--out", dir, "--quiet"})}) {
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("topology expects about 4999950000 edges"), std::string::npos)
        << r.err;
  }
  EXPECT_FALSE(std::filesystem::exists(dir + "/c.results.json"));
}

TEST(Cli, RetiredBitsetEngineIsRefused) {
  const std::string dir = temp_dir("cli_engine");
  const std::string path = dir + "/bitset.json";
  write_file(path, R"({"id":"bitset","engine":"bitset","k":[4],"seeds":1})");
  for (const CliRun& r :
       {run_cli({"validate", path}), run_cli({"run", path, "--out", dir, "--quiet"})}) {
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find(R"(only "scalar" exists)"), std::string::npos) << r.err;
  }
  EXPECT_FALSE(std::filesystem::exists(dir + "/bitset.results.json"));
  // The --engine flag is gone too, whatever its value.
  write_file(dir + "/spec.json", kTinySpec);
  const CliRun r =
      run_cli({"run", dir + "/spec.json", "--out", dir, "--engine", "scalar"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown option --engine"), std::string::npos) << r.err;
  EXPECT_FALSE(std::filesystem::exists(dir + "/cli_tiny.results.json"));
}

TEST(Cli, RunEmitsResultsManifestAndReport) {
  const std::string dir = temp_dir("cli_run");
  write_file(dir + "/spec.json", kTinySpec);
  const CliRun r = run_cli({"run", dir + "/spec.json", "--out", dir});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(std::filesystem::exists(dir + "/cli_tiny.results.json"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/cli_tiny.manifest.json"));
  // The rendered report and the manifest digest are on stdout.
  EXPECT_NE(r.out.find("### cli_tiny"), std::string::npos);
  EXPECT_NE(r.out.find("fnv1a64:"), std::string::npos);
  // The emitted manifest carries a wall-clock stamp in its environment.
  const std::string manifest = read_file(dir + "/cli_tiny.manifest.json");
  EXPECT_NE(manifest.find("\"timestamp_utc\": \"2"), std::string::npos);
}

TEST(Cli, RunTwiceIsByteIdenticalModuloTimestamp) {
  const std::string dir = temp_dir("cli_rerun");
  write_file(dir + "/spec.json", kTinySpec);
  ASSERT_EQ(run_cli({"run", dir + "/spec.json", "--out", dir + "/a", "--quiet"}).code, 0);
  ASSERT_EQ(run_cli({"run", dir + "/spec.json", "--out", dir + "/b", "--quiet",
                     "--threads", "3"})
                .code,
            0);
  EXPECT_EQ(read_file(dir + "/a/cli_tiny.results.json"),
            read_file(dir + "/b/cli_tiny.results.json"));
  // Manifests agree line-for-line outside the environment block's
  // timestamp/elapsed/threads fields.
  const auto strip_env = [](const std::string& text) {
    std::istringstream in(text);
    std::string out, line;
    while (std::getline(in, line)) {
      if (line.find("\"timestamp_utc\"") != std::string::npos ||
          line.find("\"elapsed_seconds\"") != std::string::npos ||
          line.find("\"threads\"") != std::string::npos)
        continue;
      out += line + "\n";
    }
    return out;
  };
  EXPECT_EQ(strip_env(read_file(dir + "/a/cli_tiny.manifest.json")),
            strip_env(read_file(dir + "/b/cli_tiny.manifest.json")));
}

TEST(Cli, SeedsOverrideWidensTheGrid) {
  const std::string dir = temp_dir("cli_seeds");
  write_file(dir + "/spec.json", kTinySpec);
  ASSERT_EQ(
      run_cli({"run", dir + "/spec.json", "--out", dir, "--seeds", "3", "--quiet"}).code,
      0);
  const std::string manifest = read_file(dir + "/cli_tiny.manifest.json");
  EXPECT_NE(manifest.find("\"seeds\": 3"), std::string::npos);
}

TEST(Cli, ReportRendersAnEmittedResultsFile) {
  const std::string dir = temp_dir("cli_report");
  write_file(dir + "/spec.json", kTinySpec);
  ASSERT_EQ(run_cli({"run", dir + "/spec.json", "--out", dir, "--quiet"}).code, 0);
  const CliRun r = run_cli({"report", dir + "/cli_tiny.results.json"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("### cli_tiny"), std::string::npos);
  EXPECT_NE(r.out.find("r/pkt"), std::string::npos);
}

TEST(Cli, ListSummarizesScenarioDirectory) {
  const std::string dir = temp_dir("cli_list");
  write_file(dir + "/good.json", kTinySpec);
  write_file(dir + "/bad.json", "{nope");
  const CliRun r = run_cli({"list", dir});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("cli_tiny [kbroadcast, 1 cells x 2 seeds]"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("INVALID"), std::string::npos);
}

TEST(Cli, RunUnknownOptionFails) {
  const CliRun r = run_cli({"run", "spec.json", "--frobnicate"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown option"), std::string::npos);
  const CliRun valued = run_cli({"run", "spec.json", "--shards", "2"});
  EXPECT_EQ(valued.code, 1);
  EXPECT_NE(valued.err.find("unknown option --shards"), std::string::npos) << valued.err;
}

TEST(Cli, RunRejectsMalformedIntegerFlags) {
  const std::string dir = temp_dir("cli_int_flags");
  write_file(dir + "/spec.json", kTinySpec);
  const struct {
    const char* flag;
    const char* value;
    const char* expect;
  } cases[] = {
      {"--seeds", "1x", "--seeds expects a positive integer, got '1x'"},
      {"--seeds", "-3", "--seeds expects a positive integer, got '-3'"},
      {"--seeds", "0", "--seeds expects a positive integer, got '0'"},
      {"--seeds", "abc", "--seeds expects a positive integer, got 'abc'"},
      {"--seeds", "", "--seeds expects a positive integer, got ''"},
      {"--seeds", " 2", "--seeds expects a positive integer, got ' 2'"},
      {"--threads", "-5", "--threads expects a non-negative integer, got '-5'"},
      {"--threads", "99999999999",
       "--threads expects a non-negative integer, got '99999999999'"},
      {"--threads", "4.0", "--threads expects a non-negative integer, got '4.0'"},
  };
  for (const auto& c : cases) {
    const CliRun r =
        run_cli({"run", dir + "/spec.json", "--out", dir, "--quiet", c.flag, c.value});
    EXPECT_EQ(r.code, 1) << c.flag << " " << c.value;
    EXPECT_NE(r.err.find(c.expect), std::string::npos) << r.err;
    EXPECT_FALSE(std::filesystem::exists(dir + "/cli_tiny.results.json"));
  }
  // The trace command shares the run option parser.
  const CliRun trace =
      run_cli({"trace", dir + "/spec.json", "--out", dir, "--seeds", "1x"});
  EXPECT_EQ(trace.code, 1);
  EXPECT_NE(trace.err.find("--seeds expects a positive integer"), std::string::npos);
  // Well-formed values at each flag's minimum still run.
  ASSERT_EQ(run_cli({"run", dir + "/spec.json", "--out", dir, "--quiet", "--seeds", "1",
                     "--threads", "0"})
                .code,
            0);
  EXPECT_NE(read_file(dir + "/cli_tiny.manifest.json").find("\"seeds\": 1"),
            std::string::npos);
}

}  // namespace
}  // namespace radiocast::cli
