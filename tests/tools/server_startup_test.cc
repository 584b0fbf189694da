// Startup-failure behavior of the fuzzymatch_server binary: a bad
// invocation must exit non-zero in bounded time with a one-line
// diagnostic on stderr — never hang, never crash, never start serving.
// Spawns the real binary (path injected by CMake as FM_SERVER_BINARY).
// fuzzymatch_cli (FM_CLI_BINARY) shares the flag parser, so it shares the
// unknown-flag and malformed-value contract.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

namespace fuzzymatch {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

/// Runs `binary` with `flags`, capturing combined output. The caller's
/// flags must make it exit on its own (startup failures do).
RunResult RunBinary(const char* binary, const std::string& flags) {
  RunResult result;
  const std::string cmd = std::string(binary) + " " + flags + " 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  if (pipe == nullptr) return result;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    result.output += buf;
  }
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

RunResult RunServer(const std::string& flags) {
  return RunBinary(FM_SERVER_BINARY, flags);
}

/// A minimal valid reference CSV, enough to get past loading so later
/// startup stages (socket bind) can be exercised.
std::string WriteTinyCsv() {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("fm_server_startup_" + std::to_string(::getpid()) + ".csv"))
          .string();
  std::ofstream out(path);
  out << "name,city,state,zipcode\n"
      << "acme corporation,rochester,ny,14623\n"
      << "globex incorporated,syracuse,ny,13201\n"
      << "initech limited,albany,ny,12203\n";
  return path;
}

/// The diagnostic contract: some single line carries the error.
void ExpectOneLineDiagnostic(const RunResult& run, const char* needle) {
  EXPECT_NE(run.output.find(needle), std::string::npos)
      << "diagnostic missing '" << needle << "' in:\n"
      << run.output;
  EXPECT_NE(run.output.find('\n'), std::string::npos);
}

TEST(ServerStartupTest, MissingRefFlagFailsWithUsage) {
  const RunResult run = RunServer("--port 0");
  EXPECT_EQ(run.exit_code, 1);
  ExpectOneLineDiagnostic(run, "requires --ref");
}

TEST(ServerStartupTest, NoArgsPrintsUsage) {
  const RunResult run = RunServer("");
  EXPECT_EQ(run.exit_code, 2);
  ExpectOneLineDiagnostic(run, "usage:");
}

TEST(ServerStartupTest, NonexistentReferenceFileFails) {
  const RunResult run =
      RunServer("--ref /nonexistent/fm_no_such_file.csv --port 0");
  EXPECT_EQ(run.exit_code, 1);
  ExpectOneLineDiagnostic(run, "cannot open");
}

TEST(ServerStartupTest, MalformedAccelBudgetFails) {
  const std::string csv = WriteTinyCsv();
  const RunResult run =
      RunServer("--ref " + csv + " --accel-budget-mb banana --port 0");
  EXPECT_EQ(run.exit_code, 1);
  ExpectOneLineDiagnostic(run, "accel-budget-mb");
  std::filesystem::remove(csv);
}

TEST(ServerStartupTest, OutOfRangeAccelBudgetFails) {
  const std::string csv = WriteTinyCsv();
  const RunResult run =
      RunServer("--ref " + csv + " --accel-budget-mb -3 --port 0");
  EXPECT_EQ(run.exit_code, 1);
  ExpectOneLineDiagnostic(run, "accel-budget-mb");
  std::filesystem::remove(csv);
}

TEST(ServerStartupTest, RemovedFlagsAreRejected) {
  // Retired options must fail loudly rather than be silently ignored.
  const std::string csv = WriteTinyCsv();
  for (const std::string flag :
       {"--lookup-path", "--replicas-per-shard", "--shards",
        "--no-such-flag"}) {
    SCOPED_TRACE(flag);
    const RunResult run =
        RunServer("--ref " + csv + " " + flag + " 2 --port 0");
    EXPECT_EQ(run.exit_code, 1);
    ExpectOneLineDiagnostic(run, ("unknown flag " + flag).c_str());
  }
  std::filesystem::remove(csv);
}

TEST(ServerStartupTest, RemovedWalFsyncModeIsRejected) {
  // `always` differed from `group` only by the group-commit sleep, which
  // is gone; the value must fail rather than fall back silently.
  const std::string csv = WriteTinyCsv();
  const RunResult run =
      RunServer("--ref " + csv + " --wal-fsync always --port 0");
  EXPECT_EQ(run.exit_code, 1);
  ExpectOneLineDiagnostic(run, "bad wal fsync mode 'always' (group|never)");
  EXPECT_EQ(run.output.find('\n'), run.output.size() - 1) << run.output;
  std::filesystem::remove(csv);
}

TEST(ServerStartupTest, CliRejectsRemovedFlags) {
  const std::string csv = WriteTinyCsv();
  const std::string db = csv + ".fmdb";
  for (const std::string flag :
       {"--lookup-path", "--replicas-per-shard", "--shards"}) {
    SCOPED_TRACE(flag);
    const RunResult run =
        RunBinary(FM_CLI_BINARY, "match --ref " + csv + " --input " + csv +
                                     " --out /dev/null " + flag + " 2");
    EXPECT_EQ(run.exit_code, 1);
    ExpectOneLineDiagnostic(run, ("unknown flag " + flag).c_str());
  }
  const RunResult build = RunBinary(
      FM_CLI_BINARY, "build --ref " + csv + " --db " + db + " --shards 2");
  EXPECT_EQ(build.exit_code, 1);
  ExpectOneLineDiagnostic(build, "unknown flag --shards");
  EXPECT_FALSE(std::filesystem::exists(db));
  std::filesystem::remove(csv);
}

TEST(ServerStartupTest, CliRejectsMalformedNumbers) {
  // Each value used to be read as 0 (or K = 0, which crashed every query).
  const std::string csv = WriteTinyCsv();
  const std::string match = "match --ref " + csv + " --input " + csv +
                            " --out /dev/null ";
  for (const auto& [flags, needle] :
       {std::pair<std::string, std::string>{"--k abc", "--k: 'abc'"},
        {"--k 0", "--k: 0 out of range"},
        {"--threshold x", "--threshold: 'x'"}}) {
    SCOPED_TRACE(flags);
    const RunResult run = RunBinary(FM_CLI_BINARY, match + flags);
    EXPECT_EQ(run.exit_code, 1);
    ExpectOneLineDiagnostic(run, needle.c_str());
    EXPECT_EQ(run.output.find('\n'), run.output.size() - 1) << run.output;
  }
  std::filesystem::remove(csv);
}

TEST(ServerStartupTest, CliRejectsUnknownProfile) {
  // An unknown error profile used to fall back to D2 silently.
  const std::string csv = WriteTinyCsv();
  const RunResult run = RunBinary(
      FM_CLI_BINARY, "corrupt --ref " + csv + " --out /dev/null --profile D9");
  EXPECT_EQ(run.exit_code, 1);
  ExpectOneLineDiagnostic(run, "--profile must be D1, D2 or D3");
  std::filesystem::remove(csv);
}

TEST(ServerStartupTest, AlreadyBoundPortFails) {
  // Hold the port ourselves so the server's bind must fail.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = ::inet_addr("127.0.0.1");
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);
  const int port = ntohs(addr.sin_port);

  const std::string csv = WriteTinyCsv();
  const RunResult run =
      RunServer("--ref " + csv + " --port " + std::to_string(port));
  EXPECT_EQ(run.exit_code, 1);
  ExpectOneLineDiagnostic(run, "error:");
  ::close(listener);
  std::filesystem::remove(csv);
}

}  // namespace
}  // namespace fuzzymatch
