//===- solvers/Z3Checker.cpp - Z3 C++ API backend --------------------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "solvers/EquivalenceChecker.h"
#include "solvers/SmtLib.h"

#ifdef MBA_HAVE_Z3

#include "ast/ExprUtils.h"
#include "support/QueryLog.h"
#include "support/Stopwatch.h"
#include "support/Telemetry.h"

#include <z3++.h>

#include <functional>
#include <optional>
#include <unordered_map>

using namespace mba;

namespace {

class Z3Checker : public EquivalenceChecker {
public:
  std::string name() const override { return "Z3"; }

  CheckResult check(const Context &Ctx, const Expr *A, const Expr *B,
                    double TimeoutSeconds) override {
    MBA_TRACE_SPAN("solve.backend.Z3");
    // Same-kind scope: pass-through under a staged checker (fields land in
    // its record), a record of its own when the backend runs unstaged.
    querylog::QueryScope LogScope("check");
    if (querylog::Record *QR = querylog::active()) {
      QR->str("backend", name());
      QR->num("width", Ctx.width());
    }
    Stopwatch Timer;
    CheckResult Result;
    try {
      z3::context Z3Ctx;
      z3::solver Solver(Z3Ctx);
      z3::params Params(Z3Ctx);
      unsigned TimeoutMs =
          TimeoutSeconds >= 1e6 ? 0u : (unsigned)(TimeoutSeconds * 1000);
      if (TimeoutMs)
        Params.set("timeout", TimeoutMs);
      Solver.set(Params);

      std::unordered_map<const Expr *, z3::expr> Cache;
      z3::expr ZA = translate(Z3Ctx, Ctx, A, Cache);
      z3::expr ZB = translate(Z3Ctx, Ctx, B, Cache);
      Solver.add(ZA != ZB);

      switch (Solver.check()) {
      case z3::unsat:
        Result.Outcome = Verdict::Equivalent;
        break;
      case z3::sat:
        Result.Outcome = Verdict::NotEquivalent;
        break;
      case z3::unknown:
        Result.Outcome = Verdict::Timeout;
        break;
      }
    } catch (const z3::exception &) {
      Result.Outcome = Verdict::Timeout; // resource-out or internal error
    }
    Result.Seconds = Timer.seconds();
    if (querylog::Record *QR = querylog::active())
      QR->str("verdict", verdictName(Result.Outcome));
    return Result;
  }

private:
  /// Structural translation with DAG sharing. Iterative post-order keeps
  /// the recursion depth independent of the input.
  static z3::expr
  translate(z3::context &Z3Ctx, const Context &Ctx, const Expr *E,
            std::unordered_map<const Expr *, z3::expr> &Cache) {
    unsigned W = Ctx.width();
    // Cache is shared by both sides of a query: walk only what is new.
    forEachUnseenPostOrder(E, Cache, [&](const Expr *N) {
      auto Operand = [&](const Expr *C) -> z3::expr & {
        return Cache.at(C);
      };
      std::optional<z3::expr> Z;
      switch (N->kind()) {
      case ExprKind::Var:
        Z = Z3Ctx.bv_const(N->varName(), W);
        break;
      case ExprKind::Const:
        Z = Z3Ctx.bv_val((uint64_t)N->constValue(), W);
        break;
      case ExprKind::Not:
        Z = ~Operand(N->operand());
        break;
      case ExprKind::Neg:
        Z = -Operand(N->operand());
        break;
      case ExprKind::Add:
        Z = Operand(N->lhs()) + Operand(N->rhs());
        break;
      case ExprKind::Sub:
        Z = Operand(N->lhs()) - Operand(N->rhs());
        break;
      case ExprKind::Mul:
        Z = Operand(N->lhs()) * Operand(N->rhs());
        break;
      case ExprKind::And:
        Z = Operand(N->lhs()) & Operand(N->rhs());
        break;
      case ExprKind::Or:
        Z = Operand(N->lhs()) | Operand(N->rhs());
        break;
      case ExprKind::Xor:
        Z = Operand(N->lhs()) ^ Operand(N->rhs());
        break;
      }
      Cache.emplace(N, *Z);
    });
    return Cache.at(E);
  }
};

} // namespace

std::unique_ptr<EquivalenceChecker> mba::makeZ3Checker() {
  return std::make_unique<Z3Checker>();
}

std::optional<bool> mba::solveSmtLibWithZ3(const std::string &Script,
                                           double TimeoutSeconds) {
  try {
    z3::context Z3Ctx;
    z3::solver Solver(Z3Ctx);
    z3::params Params(Z3Ctx);
    if (TimeoutSeconds < 1e6)
      Params.set("timeout", (unsigned)(TimeoutSeconds * 1000));
    Solver.set(Params);
    Solver.from_string(Script.c_str());
    switch (Solver.check()) {
    case z3::sat:
      return true;
    case z3::unsat:
      return false;
    case z3::unknown:
      return std::nullopt;
    }
  } catch (const z3::exception &) {
  }
  return std::nullopt;
}

#else

std::unique_ptr<mba::EquivalenceChecker> mba::makeZ3Checker() {
  return nullptr;
}

std::optional<bool> mba::solveSmtLibWithZ3(const std::string &,
                                           double) {
  return std::nullopt;
}

#endif // MBA_HAVE_Z3
