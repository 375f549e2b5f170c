//===- examples/mba_cli.cpp - Swiss-army MBA command line -----------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// General-purpose CLI over the library:
///
///   mba_cli simplify '<expr>'            simplify one expression
///   mba_cli classify '<expr>'            category + metrics
///   mba_cli check '<a>' '<b>'            equivalence via all backends
///   mba_cli explain '<expr>'             simplify + verify with the flight
///                                        recorder on; render every stage,
///                                        rule fire and backend statistic
///   mba_cli sig '<expr>'                 signature vector (linear MBA)
///   mba_cli certify                      certify the shipped rewrite rules
///   mba_cli deobfuscate-ir <file>        run the IR deobfuscation pipeline
///                                        on a program and print the report
///   mba_cli dot '<expr>'                 expression DAG as Graphviz DOT
///   mba_cli dot --ir <file> [--def-use]  CFG (or def-use graph) as DOT
///
/// Options: --width=N (default 64), --timeout=SECONDS (check /
/// deobfuscate-ir verification; default 5), --no-verify (skip equivalence
/// verification of IR rewrites), --quiet (report only, no program dump),
/// --stats (print the telemetry registry summary — span timings and
/// pipeline counters — to stdout after the command), --query-log=FILE
/// (record every simplify/equivalence query of the command as JSONL; see
/// docs/OBSERVABILITY.md for the schema).
///
/// `certify` re-proves every shipped equality-saturation rule sound for all
/// bit widths and exits non-zero if any rule fails — CI runs it so an
/// unsound rule edit fails the build.
///
//===----------------------------------------------------------------------===//

#include "analysis/Rules.h"
#include "ast/Context.h"
#include "ast/DotPrinter.h"
#include "ast/ExprUtils.h"
#include "ast/Parser.h"
#include "ast/Printer.h"
#include "ir/IRDot.h"
#include "ir/Passes.h"
#include "ir/Program.h"
#include "mba/Classify.h"
#include "mba/Metrics.h"
#include "mba/Signature.h"
#include "mba/Simplifier.h"
#include "solvers/EquivalenceChecker.h"
#include "support/Json.h"
#include "support/QueryLog.h"
#include "support/Telemetry.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace mba;

namespace {

int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s [--width=N] [--timeout=S] [--stats] "
               "[--query-log=FILE] "
               "simplify|classify|check|explain|sig|certify|deobfuscate-ir|"
               "dot [<expr>|<file>] [<expr2>]\n"
               "       %s deobfuscate-ir [--no-verify] [--quiet] <file>\n"
               "       %s dot '<expr>' | dot --ir <file> [--def-use]\n",
               Prog, Prog, Prog);
  return 2;
}

/// Reads a whole file (or stdin for "-"). Exits with a message on failure.
std::string readFileOrDie(const char *Path) {
  std::ostringstream Buf;
  if (std::strcmp(Path, "-") == 0) {
    Buf << std::cin.rdbuf();
    return Buf.str();
  }
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path);
    std::exit(1);
  }
  Buf << In.rdbuf();
  return Buf.str();
}

const Expr *parseArg(Context &Ctx, const char *Text) {
  ParseResult R = parseExpr(Ctx, Text);
  if (!R.ok()) {
    std::fprintf(stderr, "parse error at offset %zu: %s\n", R.ErrorPos,
                 R.Error.c_str());
    std::exit(1);
  }
  return R.E;
}

/// Renders one scalar flight-recorder field for `explain`. Integral
/// numbers print without a decimal point; ns-suffixed keys get a friendly
/// milliseconds rendering next to the raw value.
void printExplainField(const std::string &Key, const json::Value &V) {
  std::printf("  %-20s ", Key.c_str());
  switch (V.kind()) {
  case json::Value::KBool:
    std::printf("%s", V.asBool() ? "true" : "false");
    break;
  case json::Value::KNumber: {
    double N = V.asNumber();
    if (N == (double)(long long)N)
      std::printf("%lld", (long long)N);
    else
      std::printf("%g", N);
    if (Key.size() > 3 && Key.compare(Key.size() - 3, 3, "_ns") == 0)
      std::printf(" (%.3f ms)", N / 1e6);
    break;
  }
  case json::Value::KString:
    std::printf("%s", V.asString().c_str());
    break;
  default:
    std::printf("?");
    break;
  }
  std::printf("\n");
}

/// Renders one captured flight-recorder record (a parsed JSONL line) as a
/// human-readable stage report: header, scalar fields, per-stage timings,
/// per-rule attribution.
void printExplainRecord(const json::Value &Rec) {
  std::printf("--- %s query (%.3f ms) ---\n",
              std::string(Rec.stringAt("kind", "?")).c_str(),
              Rec.numberAt("ns") / 1e6);
  for (const auto &M : Rec.members()) {
    if (M.first == "kind" || M.first == "seq" || M.first == "tid" ||
        M.first == "ns" || M.first == "stages" || M.first == "rules")
      continue;
    printExplainField(M.first, M.second);
  }
  if (const json::Value *Stages = Rec.get("stages")) {
    std::printf("  stages:\n");
    for (const json::Value &S : Stages->elements())
      std::printf("    %-24s %10.3f ms\n",
                  std::string(S.stringAt("name")).c_str(),
                  S.numberAt("ns") / 1e6);
  }
  if (const json::Value *Rules = Rec.get("rules")) {
    std::printf("  rules:%*sfires         ms   nodes\n", 24, "");
    for (const json::Value &R : Rules->elements()) {
      std::printf("    %-24s %7llu %10.3f",
                  std::string(R.stringAt("rule")).c_str(),
                  (unsigned long long)R.numberAt("fires"),
                  R.numberAt("ns") / 1e6);
      unsigned long long Before = (unsigned long long)R.numberAt("nodes_before");
      unsigned long long After = (unsigned long long)R.numberAt("nodes_after");
      if (Before || After)
        std::printf("   %llu -> %llu", Before, After);
      std::printf("\n");
    }
  }
}

} // namespace

int run(int Argc, char **Argv);

int main(int Argc, char **Argv) {
  bool Stats = false;
  const char *QueryLogPath = nullptr;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--stats") == 0)
      Stats = true;
    else if (std::strncmp(Argv[I], "--query-log=", 12) == 0)
      QueryLogPath = Argv[I] + 12;
  }
  if (Stats) {
    telemetry::setMetricsEnabled(true);
    telemetry::setTracingEnabled(true);
    telemetry::setThreadLabel("main");
  }
  if (QueryLogPath && !querylog::openFile(QueryLogPath)) {
    std::fprintf(stderr, "error: cannot open query log '%s'\n", QueryLogPath);
    return 1;
  }
  int Exit = run(Argc, Argv);
  if (QueryLogPath)
    querylog::close();
  if (Stats) {
    telemetry::setTracingEnabled(false);
    telemetry::printSummary(stdout);
  }
  return Exit;
}

int run(int Argc, char **Argv) {
  unsigned Width = 64;
  double Timeout = 5.0;
  bool NoVerify = false;
  bool DefUse = false;
  bool IRFile = false;
  bool Quiet = false;
  std::vector<const char *> Positional;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--stats") == 0 ||
        std::strncmp(Argv[I], "--query-log=", 12) == 0)
      continue;
    if (std::strcmp(Argv[I], "--no-verify") == 0) {
      NoVerify = true;
      continue;
    }
    if (std::strcmp(Argv[I], "--def-use") == 0) {
      DefUse = true;
      continue;
    }
    if (std::strcmp(Argv[I], "--ir") == 0) {
      IRFile = true;
      continue;
    }
    if (std::strcmp(Argv[I], "--quiet") == 0) {
      Quiet = true;
      continue;
    }
    if (std::sscanf(Argv[I], "--width=%u", &Width) == 1)
      continue;
    if (std::sscanf(Argv[I], "--timeout=%lf", &Timeout) == 1)
      continue;
    Positional.push_back(Argv[I]);
  }
  if (Positional.empty())
    return usage(Argv[0]);
  const std::string Command = Positional[0];
  if (Width < 1 || Width > 64) {
    std::fprintf(stderr, "width must be in [1, 64]\n");
    return 2;
  }

  if (Command == "certify") {
    RuleSet RS;
    addDefaultRules(RS);
    CertifySummary S = certifyRules(RS);
    for (const RuleCert &C : S.Results)
      if (C.ok())
        std::printf("  OK   %-28s %s\n", C.Name.c_str(),
                    certMethodName(C.Method));
      else
        std::printf("  FAIL %-28s %s\n", C.Name.c_str(), C.Detail.c_str());
    std::printf("%zu / %zu rules certified sound for all widths\n",
                S.NumCertified, S.Results.size());
    if (!S.allCertified()) {
      std::fprintf(stderr, "error: uncertified rules in the shipped table\n");
      return 1;
    }
    return 0;
  }

  if (Positional.size() < 2)
    return usage(Argv[0]);

  Context Ctx(Width);

  if (Command == "simplify") {
    const Expr *E = parseArg(Ctx, Positional[1]);
    MBASolver Solver(Ctx);
    const Expr *R = Solver.simplify(E);
    std::printf("%s\n", printExpr(Ctx, R).c_str());
    return 0;
  }

  if (Command == "classify") {
    const Expr *E = parseArg(Ctx, Positional[1]);
    ComplexityMetrics M = measureComplexity(Ctx, E);
    std::printf("category:    %s\n", mbaKindName(M.Kind));
    std::printf("variables:   %u\n", M.NumVariables);
    std::printf("alternation: %llu\n", (unsigned long long)M.Alternation);
    std::printf("length:      %zu\n", M.Length);
    std::printf("terms:       %llu\n", (unsigned long long)M.NumTerms);
    std::printf("max |coeff|: %llu\n", (unsigned long long)M.MaxCoefficient);
    return 0;
  }

  if (Command == "check") {
    if (Positional.size() < 3)
      return usage(Argv[0]);
    const Expr *A = parseArg(Ctx, Positional[1]);
    const Expr *B = parseArg(Ctx, Positional[2]);
    int Exit = 0;
    for (auto &C : makeAllCheckers()) {
      CheckResult R = C->check(Ctx, A, B, Timeout);
      std::printf("%-12s %-15s %.3f s\n", C->name().c_str(),
                  verdictName(R.Outcome), R.Seconds);
      if (R.Outcome == Verdict::NotEquivalent)
        Exit = 1;
    }
    return Exit;
  }

  if (Command == "explain") {
    const Expr *E = parseArg(Ctx, Positional[1]);
    // Capture the full decision trail in memory: simplify, then verify the
    // result against the input through the staged pipeline (stage-0 prover
    // in front of the BlastBV+AIG backend) — the same path a study
    // query takes.
    querylog::beginCapture();
    MBASolver Solver(Ctx);
    const Expr *R = Solver.simplify(E);
    StageZeroStats Stats;
    auto Checker = makeStagedChecker(Ctx, makeAigChecker(), &Stats,
                                     ProveBudget(), nullptr);
    CheckResult CR = Checker->check(Ctx, E, R, Timeout);
    std::vector<std::string> Lines = querylog::endCapture();

    std::printf("input:      %s\n", printExpr(Ctx, E).c_str());
    std::printf("simplified: %s\n", printExpr(Ctx, R).c_str());
    std::printf("verified:   %s (%s, %.3f s)\n\n",
                verdictName(CR.Outcome), Checker->name().c_str(), CR.Seconds);
    for (const std::string &Line : Lines) {
      json::Value Rec;
      std::string Err;
      if (!json::parse(Line, Rec, &Err)) {
        std::fprintf(stderr, "error: bad flight-recorder line: %s\n",
                     Err.c_str());
        return 1;
      }
      printExplainRecord(Rec);
    }
    return CR.Outcome == Verdict::Equivalent ? 0 : 1;
  }

  if (Command == "deobfuscate-ir") {
    std::string Text = readFileOrDie(Positional[1]);
    Diag D;
    auto P = Program::parse(Ctx, Text, &D);
    if (!P) {
      std::fprintf(stderr, "%s: %s\n", Positional[1], D.str().c_str());
      return 1;
    }
    PassOptions Opts;
    Opts.Verify = !NoVerify;
    Opts.VerifyTimeout = Timeout;
    ProgramReport Report = deobfuscateProgram(Ctx, *P, Opts);
    std::printf("%s", Report.str().c_str());
    if (Report.totalUnsoundBlocked() > 0)
      std::fprintf(stderr,
                   "warning: %zu candidate rewrite(s) failed verification "
                   "and were blocked\n",
                   Report.totalUnsoundBlocked());
    if (!Quiet) {
      std::printf("\n");
      std::printf("%s", P->print(Ctx).c_str());
    }
    return 0;
  }

  if (Command == "dot") {
    if (!IRFile) {
      const Expr *E = parseArg(Ctx, Positional[1]);
      std::printf("%s", toDot(Ctx, E).c_str());
      return 0;
    }
    std::string Text = readFileOrDie(Positional[1]);
    Diag D;
    auto P = Program::parse(Ctx, Text, &D);
    if (!P) {
      std::fprintf(stderr, "%s: %s\n", Positional[1], D.str().c_str());
      return 1;
    }
    for (const Function &F : P->Functions) {
      std::string Name = (DefUse ? "defuse_" : "cfg_") + F.Name;
      std::printf("%s", DefUse ? defUseToDot(Ctx, F, Name).c_str()
                               : cfgToDot(Ctx, F, Name).c_str());
    }
    return 0;
  }

  if (Command == "sig") {
    const Expr *E = parseArg(Ctx, Positional[1]);
    if (classifyMBA(Ctx, E) != MBAKind::Linear) {
      std::fprintf(stderr,
                   "signature vectors are defined for linear MBA only\n");
      return 1;
    }
    std::vector<const Expr *> Vars;
    auto Sig = computeSignature(Ctx, E, &Vars);
    std::printf("variables:");
    for (const Expr *V : Vars)
      std::printf(" %s", V->varName());
    std::printf("\nsignature: (");
    for (size_t I = 0; I != Sig.size(); ++I)
      std::printf("%s%lld", I ? ", " : "", (long long)Ctx.toSigned(Sig[I]));
    std::printf(")\n");
    return 0;
  }

  return usage(Argv[0]);
}
