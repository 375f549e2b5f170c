//===- tools/bench-diff.cpp - BENCH_*.json perf-regression sentinel -------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compares two study reports written by writeStudyJson (the BENCH_*.json
/// files) cell by cell — per solver, per category: solved counts, Tmin /
/// Tmax / Tavg — plus the stage-0 counter split, and fails (exit 1) when
/// the current run regresses past the configured noise tolerance:
///
///   bench-diff [options] BASELINE.json CURRENT.json
///     --time-tol=FRAC       relative timing growth allowed (default 0.5)
///     --time-abs=SECONDS    absolute timing slack on top (default 0.05)
///     --solved-slack=N      allowed per-cell solved-count drop (default 0)
///     --allow-config-mismatch  compare despite differing run configs
///     --report=FILE         also write the report to FILE
///
/// A timing cell regresses when `current > baseline * (1 + tol) + abs`;
/// both knobs matter because short cells are dominated by scheduler noise
/// (absolute slack) and long cells by proportional drift (relative
/// tolerance). Solved counts are deterministic per config, so their default
/// slack is zero — a drop means a query stopped verifying in budget, the
/// one thing a perf sentinel must never wave through. Missing solvers or
/// categories in the current report fail likewise; new ones only warn.
///
/// Exit codes: 0 pass, 1 regression, 2 usage / unreadable or malformed
/// input / config mismatch. CI (bench-smoke) runs every bench twice —
/// against the checked-in baseline and against a deliberately regressed
/// fixture that must exit non-zero — so the sentinel itself is tested.
///
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace mba;

namespace {

struct Options {
  double TimeTol = 0.5;
  double TimeAbs = 0.05;
  unsigned SolvedSlack = 0;
  bool AllowConfigMismatch = false;
  std::string ReportPath;
  std::string BaselinePath, CurrentPath;
};

int usage() {
  std::fprintf(stderr,
               "usage: bench-diff [--time-tol=FRAC] [--time-abs=SECONDS] "
               "[--solved-slack=N] [--allow-config-mismatch] "
               "[--report=FILE] BASELINE.json CURRENT.json\n");
  return 2;
}

/// Report sink: stdout plus the optional --report file.
class Report {
public:
  explicit Report(const std::string &Path) {
    if (!Path.empty() && !(File = std::fopen(Path.c_str(), "w")))
      std::fprintf(stderr, "warning: cannot write report to '%s'\n",
                   Path.c_str());
  }
  ~Report() {
    if (File)
      std::fclose(File);
  }
  Report(const Report &) = delete;
  Report &operator=(const Report &) = delete;

  void line(const char *Fmt, ...) {
    va_list Args;
    va_start(Args, Fmt);
    char Buf[512];
    std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
    va_end(Args);
    std::printf("%s\n", Buf);
    if (File)
      std::fprintf(File, "%s\n", Buf);
  }

private:
  std::FILE *File = nullptr;
};

/// One solver/category cell of a report.
struct Cell {
  std::string Solver, Category;
  unsigned Solved = 0, Total = 0;
  bool HasTimes = false;
  double TMin = 0, TMax = 0, TAvg = 0;
};

/// Flattens the "solvers" array into cells; false on schema violations.
bool collectCells(const json::Value &Root, std::vector<Cell> &Out,
                  std::string &Err) {
  const json::Value *Solvers = Root.get("solvers");
  if (!Solvers || !Solvers->isArray()) {
    Err = "no \"solvers\" array";
    return false;
  }
  for (const json::Value &S : Solvers->elements()) {
    std::string Name(S.stringAt("name"));
    const json::Value *Cats = S.get("categories");
    if (Name.empty() || !Cats || !Cats->isArray()) {
      Err = "solver entry without name/categories";
      return false;
    }
    for (const json::Value &C : Cats->elements()) {
      Cell Cell;
      Cell.Solver = Name;
      Cell.Category = std::string(C.stringAt("category"));
      if (Cell.Category.empty()) {
        Err = "category entry without name";
        return false;
      }
      Cell.Solved = (unsigned)C.numberAt("solved");
      Cell.Total = (unsigned)C.numberAt("total");
      if (const json::Value *T = C.get("tavg")) {
        Cell.HasTimes = true;
        Cell.TAvg = T->asNumber();
        Cell.TMin = C.numberAt("tmin");
        Cell.TMax = C.numberAt("tmax");
      }
      Out.push_back(std::move(Cell));
    }
  }
  return true;
}

const Cell *findCell(const std::vector<Cell> &Cells, const Cell &Like) {
  for (const Cell &C : Cells)
    if (C.Solver == Like.Solver && C.Category == Like.Category)
      return &C;
  return nullptr;
}

/// The comparability key of a run: cells from runs with different scale,
/// width, seed or pipeline configuration measure different work.
std::string configKey(const json::Value &Root) {
  const json::Value *Config = Root.get("config");
  if (!Config)
    return "<none>";
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "per_category=%.0f timeout=%.3f width=%.0f seed=%.0f "
                "stage_zero=%d simplify=%d",
                Config->numberAt("per_category"),
                Config->numberAt("timeout_seconds"),
                Config->numberAt("width"), Config->numberAt("seed"),
                Config->get("stage_zero") && Config->get("stage_zero")->asBool(),
                Config->get("simplify") && Config->get("simplify")->asBool());
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t Len = std::strlen(Prefix);
      return std::strncmp(Arg, Prefix, Len) == 0 ? Arg + Len : nullptr;
    };
    if (const char *V = Value("--time-tol="))
      Opts.TimeTol = std::strtod(V, nullptr);
    else if (const char *V = Value("--time-abs="))
      Opts.TimeAbs = std::strtod(V, nullptr);
    else if (const char *V = Value("--solved-slack="))
      Opts.SolvedSlack = (unsigned)std::strtoul(V, nullptr, 10);
    else if (std::strcmp(Arg, "--allow-config-mismatch") == 0)
      Opts.AllowConfigMismatch = true;
    else if (const char *V = Value("--report="))
      Opts.ReportPath = V;
    else if (Arg[0] == '-' && Arg[1] == '-')
      return usage();
    else if (Opts.BaselinePath.empty())
      Opts.BaselinePath = Arg;
    else if (Opts.CurrentPath.empty())
      Opts.CurrentPath = Arg;
    else
      return usage();
  }
  if (Opts.CurrentPath.empty() || Opts.TimeTol < 0 || Opts.TimeAbs < 0)
    return usage();

  json::Value Baseline, Current;
  std::string Err;
  if (!json::parseFile(Opts.BaselinePath, Baseline, &Err)) {
    std::fprintf(stderr, "error: %s: %s\n", Opts.BaselinePath.c_str(),
                 Err.c_str());
    return 2;
  }
  if (!json::parseFile(Opts.CurrentPath, Current, &Err)) {
    std::fprintf(stderr, "error: %s: %s\n", Opts.CurrentPath.c_str(),
                 Err.c_str());
    return 2;
  }

  std::vector<Cell> BaseCells, CurCells;
  if (!collectCells(Baseline, BaseCells, Err)) {
    std::fprintf(stderr, "error: %s: %s\n", Opts.BaselinePath.c_str(),
                 Err.c_str());
    return 2;
  }
  if (!collectCells(Current, CurCells, Err)) {
    std::fprintf(stderr, "error: %s: %s\n", Opts.CurrentPath.c_str(),
                 Err.c_str());
    return 2;
  }

  Report Out(Opts.ReportPath);
  Out.line("bench-diff: %s -> %s", Opts.BaselinePath.c_str(),
           Opts.CurrentPath.c_str());
  Out.line("  tolerance: +%.0f%% relative, +%.3fs absolute, solved slack %u",
           Opts.TimeTol * 100, Opts.TimeAbs, Opts.SolvedSlack);

  std::string BaseConfig = configKey(Baseline), CurConfig = configKey(Current);
  if (BaseConfig != CurConfig) {
    Out.line("  config mismatch:");
    Out.line("    baseline: %s", BaseConfig.c_str());
    Out.line("    current:  %s", CurConfig.c_str());
    if (!Opts.AllowConfigMismatch) {
      std::fprintf(stderr, "error: run configs differ; cells are not "
                           "comparable (--allow-config-mismatch overrides)\n");
      return 2;
    }
  }

  unsigned Regressions = 0;
  for (const Cell &B : BaseCells) {
    std::string Label = B.Solver + "/" + B.Category;
    const Cell *C = findCell(CurCells, B);
    if (!C) {
      Out.line("  [FAIL] %-28s missing from current report", Label.c_str());
      ++Regressions;
      continue;
    }
    bool CellBad = false;
    std::string Detail;
    char Buf[160];
    // Solved counts are deterministic per config; any drop beyond the
    // explicit slack is a regression, however fast the remaining cells ran.
    if (C->Solved + Opts.SolvedSlack < B.Solved) {
      CellBad = true;
      std::snprintf(Buf, sizeof(Buf), " solved %u -> %u", B.Solved, C->Solved);
      Detail += Buf;
    }
    auto CheckTime = [&](const char *What, double Base, double Cur) {
      double Limit = Base * (1 + Opts.TimeTol) + Opts.TimeAbs;
      if (Cur > Limit) {
        CellBad = true;
        std::snprintf(Buf, sizeof(Buf), " %s %.3fs -> %.3fs (limit %.3fs)",
                      What, Base, Cur, Limit);
        Detail += Buf;
      }
    };
    if (B.HasTimes && C->HasTimes) {
      CheckTime("tavg", B.TAvg, C->TAvg);
      CheckTime("tmax", B.TMax, C->TMax);
    }
    if (CellBad) {
      Out.line("  [FAIL] %-28s%s", Label.c_str(), Detail.c_str());
      ++Regressions;
    } else {
      std::snprintf(Buf, sizeof(Buf), " solved %u/%u", C->Solved, C->Total);
      std::string Note = Buf;
      if (B.HasTimes && C->HasTimes) {
        double Delta = B.TAvg > 0 ? 100.0 * (C->TAvg - B.TAvg) / B.TAvg : 0;
        std::snprintf(Buf, sizeof(Buf), ", tavg %.3fs -> %.3fs (%+.0f%%)",
                      B.TAvg, C->TAvg, Delta);
        Note += Buf;
      }
      Out.line("  [ok]   %-28s%s", Label.c_str(), Note.c_str());
    }
  }
  for (const Cell &C : CurCells)
    if (!findCell(BaseCells, C))
      Out.line("  [new]  %s/%s (not in baseline)", C.Solver.c_str(),
               C.Category.c_str());

  // Stage-0 split: deterministic per config, so drift is worth seeing in
  // the report, but it is a behavior diff, not a perf regression — the
  // solved-count gate above catches any semantic fallout.
  auto StageZero = [](const json::Value &Root, const char *Key) {
    const json::Value *S = Root.get("stage_zero");
    return S ? (long long)S->numberAt(Key) : -1;
  };
  for (const char *Key : {"proved", "refuted", "fallthrough"}) {
    long long BaseN = StageZero(Baseline, Key), CurN = StageZero(Current, Key);
    if (BaseN != CurN)
      Out.line("  [note] stage_zero.%s %lld -> %lld", Key, BaseN, CurN);
  }

  if (Regressions) {
    Out.line("result: REGRESSION (%u failing cell%s)", Regressions,
             Regressions == 1 ? "" : "s");
    return 1;
  }
  Out.line("result: PASS (%zu cells compared)", BaseCells.size());
  return 0;
}
