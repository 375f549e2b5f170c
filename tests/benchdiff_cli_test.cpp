//===- tests/benchdiff_cli_test.cpp - bench-diff sentinel tests -----------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Spawns the real bench-diff binary (path injected by CMake) against
// synthetic BENCH-style reports and pins the exit-code contract CI relies
// on: 0 for a clean comparison, 1 for a regression (including the
// deliberately doubled-tavg fixture), 2 for unusable input.
//
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <fstream>
#include <string>

#include "gtest/gtest.h"

namespace {

struct RunResult {
  int ExitCode = -1;
  std::string Output;
};

RunResult runDiff(const std::string &Args) {
  RunResult R;
  std::string Cmd = std::string(BENCH_DIFF_BIN) + " " + Args + " 2>&1";
  FILE *Pipe = popen(Cmd.c_str(), "r");
  EXPECT_NE(Pipe, nullptr) << Cmd;
  if (!Pipe)
    return R;
  char Buf[4096];
  while (size_t N = fread(Buf, 1, sizeof(Buf), Pipe))
    R.Output.append(Buf, N);
  int Status = pclose(Pipe);
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

/// Writes a minimal writeStudyJson-shaped report. \p TavgScale multiplies
/// the timing cells; \p SolvedDrop subtracts from one solved count.
std::string writeReport(const std::string &Name, double TavgScale = 1.0,
                        unsigned SolvedDrop = 0) {
  // Prefix by test name: ctest runs each case as its own process, and
  // concurrent writers to a shared TempDir() filename race.
  std::string Path =
      ::testing::TempDir() +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      Name;
  std::ofstream Out(Path);
  char Buf[256];
  auto Cell = [&](const char *Cat, unsigned Solved, double Tavg,
                  const char *Sep) {
    std::snprintf(Buf, sizeof(Buf),
                  "      {\"category\": \"%s\", \"solved\": %u, \"total\": "
                  "10, \"tmin\": %.6f, \"tmax\": %.6f, \"tavg\": %.6f}%s\n",
                  Cat, Solved, 0.4 * Tavg, 3.0 * Tavg, Tavg, Sep);
    Out << Buf;
  };
  Out << "{\n  \"table\": \"unit\",\n"
         "  \"config\": {\"per_category\": 10, \"timeout_seconds\": 1.0, "
         "\"width\": 64, \"seed\": 1, \"jobs\": 1, \"stage_zero\": true, "
         "\"simplify\": true},\n"
         "  \"stage_zero\": {\"proved\": 12, \"refuted\": 0, "
         "\"fallthrough\": 8},\n"
         "  \"solvers\": [\n    {\"name\": \"BlastBV\", \"categories\": [\n";
  Cell("linear", 10 - SolvedDrop, 1.0 * TavgScale, ",");
  Cell("poly", 9, 2.0 * TavgScale, "");
  Out << "    ], \"total_solved\": 19, \"total\": 20}\n  ]\n}\n";
  return Path;
}

TEST(BenchDiffCli, IdenticalReportsPass) {
  std::string Base = writeReport("bd_base.json");
  RunResult R = runDiff(Base + " " + Base);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("result: PASS"), std::string::npos) << R.Output;
}

TEST(BenchDiffCli, NoiseWithinTolerancePasses) {
  std::string Base = writeReport("bd_base.json");
  std::string Cur = writeReport("bd_noisy.json", /*TavgScale=*/1.2);
  RunResult R = runDiff("--time-tol=0.5 " + Base + " " + Cur);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
}

TEST(BenchDiffCli, DoubledTavgFailsNonzero) {
  // The acceptance fixture: a deliberate 2x tavg regression must exit
  // non-zero under the default 50% tolerance.
  std::string Base = writeReport("bd_base.json");
  std::string Cur = writeReport("bd_slow.json", /*TavgScale=*/2.0);
  RunResult R = runDiff(Base + " " + Cur);
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("result: REGRESSION"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("tavg"), std::string::npos) << R.Output;
}

TEST(BenchDiffCli, SolvedDropFailsRegardlessOfTiming) {
  std::string Base = writeReport("bd_base.json");
  std::string Cur = writeReport("bd_unsolved.json", 1.0, /*SolvedDrop=*/2);
  RunResult R = runDiff(Base + " " + Cur);
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("solved 10 -> 8"), std::string::npos) << R.Output;
  // ... but an explicit slack waves it through.
  R = runDiff("--solved-slack=2 " + Base + " " + Cur);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
}

TEST(BenchDiffCli, GarbageInputExitsTwo) {
  std::string Base = writeReport("bd_base.json");
  std::string Garbage = ::testing::TempDir() + "bd_garbage.json";
  {
    std::ofstream Out(Garbage);
    Out << "not json at all{";
  }
  EXPECT_EQ(runDiff(Base + " " + Garbage).ExitCode, 2);
  EXPECT_EQ(runDiff(Base + " " + Base + ".missing").ExitCode, 2);
  EXPECT_EQ(runDiff("").ExitCode, 2) << "missing operands";
  EXPECT_EQ(runDiff("--bogus-flag " + Base + " " + Base).ExitCode, 2);
}

TEST(BenchDiffCli, ReportFileMirrorsStdout) {
  std::string Base = writeReport("bd_base.json");
  std::string Report = ::testing::TempDir() + "bd_report.txt";
  RunResult R = runDiff("--report=" + Report + " " + Base + " " + Base);
  EXPECT_EQ(R.ExitCode, 0);
  std::ifstream In(Report);
  ASSERT_TRUE(In.good());
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(Text.find("result: PASS"), std::string::npos);
}

} // namespace
