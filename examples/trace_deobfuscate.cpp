//===- examples/trace_deobfuscate.cpp - Code-level deobfuscation ----------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Deobfuscation at the *code* level rather than the expression level:
/// reads a straight-line trace (the form a binary-analysis frontend lifts
/// an obfuscated basic block into), lowers it to one program-IR function
/// per requested output (ir/Program.h, parseTrace), runs the verified
/// region pipeline of ir/Passes.h on it, and prints the report and the
/// recovered minimal program.
///
///   ./build/examples/trace_deobfuscate              # built-in demo trace
///   ./build/examples/trace_deobfuscate file.trace out1 out2
///
/// Trace syntax: one `name = expr` per line; '#' comments; names never
/// assigned are inputs.
///
//===----------------------------------------------------------------------===//

#include "ast/Context.h"
#include "ir/Passes.h"
#include "ir/Program.h"
#include "mba/Metrics.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace mba;

namespace {

const char *DemoTrace = R"(# a protected checksum routine, as lifted
acc1 = (key | data) + (key & data)
acc2 = (acc1 ^ 13) + 2*(acc1 & 13)
mix  = (acc2 & ~data) - (~acc2 & data)
obf  = ((mix - acc2 | acc1) + (mix - acc2 & acc1)) - acc1
check = obf + acc2
scratch = acc1 * acc1 - mix
)";

} // namespace

int main(int Argc, char **Argv) {
  Context Ctx(64);

  std::string Text;
  std::vector<std::string> RootNames;
  if (Argc > 1) {
    std::ifstream File(Argv[1]);
    if (!File) {
      std::fprintf(stderr, "cannot open %s\n", Argv[1]);
      return 1;
    }
    std::ostringstream SS;
    SS << File.rdbuf();
    Text = SS.str();
    for (int I = 2; I < Argc; ++I)
      RootNames.push_back(Argv[I]);
  } else {
    Text = DemoTrace;
    RootNames = {"check"};
  }

  if (RootNames.empty()) {
    std::fprintf(stderr, "no roots requested\n");
    return 1;
  }
  Diag D;
  auto P = parseTrace(Ctx, Text, RootNames, &D);
  if (!P) {
    std::fprintf(stderr, "trace parse error: %s\n", D.str().c_str());
    return 1;
  }

  std::printf("--- lifted trace (%zu instructions) ---\n%s\n",
              P->Functions.front().entry().Insts.size(),
              printFunction(Ctx, P->Functions.front()).c_str());
  for (const Function &F : P->Functions) {
    const Expr *Flat = flattenValue(Ctx, F, F.entry().Term.Value);
    ComplexityMetrics M = measureComplexity(Ctx, Flat);
    std::printf("flattened %s: %s MBA, %llu alternations, length %zu\n",
                F.Name.c_str(), mbaKindName(M.Kind),
                (unsigned long long)M.Alternation, M.Length);
  }

  ProgramReport Report = deobfuscateProgram(Ctx, *P);
  std::printf("\n--- report ---\n%s", Report.str().c_str());
  std::printf("\n--- recovered program ---\n%s", P->print(Ctx).c_str());
  return 0;
}
