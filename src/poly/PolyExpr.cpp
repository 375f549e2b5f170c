//===- poly/PolyExpr.cpp - Expression <-> polynomial conversion ----------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "poly/PolyExpr.h"

#include "ast/NodeMap.h"
#include "ast/Printer.h"

#include <algorithm>
#include <string>

using namespace mba;

std::optional<Polynomial> mba::exprToPolynomialGeneral(
    const Context &Ctx, const Expr *E,
    const std::function<std::optional<Polynomial>(const Expr *)> &AtomPoly) {
  uint64_t Mask = Ctx.mask();
  // Node -> its polynomial, or std::nullopt when it is outside the fragment
  // (or its expansion exceeded the cap).
  NodeMap<std::optional<Polynomial>> Memo;
  // Depth-first over an explicit stack, so deep chains cannot overflow the
  // call stack. The order is that of a recursive converter: AtomPoly sees a
  // node before its operands, the lhs sub-DAG is finished before the rhs
  // one starts, and the rhs is skipped once the lhs failed. Each frame is a
  // node and how many of its operands are converted.
  struct Frame {
    const Expr *N;
    unsigned Done;
  };
  std::vector<Frame> Stack{{E, 0}};
  while (!Stack.empty()) {
    auto [N, Done] = Stack.back();
    std::optional<Polynomial> R;
    if (Done == 0) {
      if (Memo.contains(N)) {
        Stack.pop_back();
        continue;
      }
      if (auto AtomResult = AtomPoly(N)) {
        R = std::move(AtomResult);
      } else if (N->isConst()) {
        R = Polynomial::constant(N->constValue(), Mask);
      } else if (N->is(ExprKind::Neg) || N->is(ExprKind::Add) ||
                 N->is(ExprKind::Sub) || N->is(ExprKind::Mul)) {
        Stack.back().Done = 1;
        Stack.push_back({N->getOperand(0), 0});
        continue;
      }
      // Otherwise a bitwise node or variable not designated as an atom:
      // the expression is outside the fragment this conversion handles.
    } else {
      // Read the operands' entries before the emplace below, which may
      // move every slot of the memo.
      const std::optional<Polynomial> &A = Memo.at(N->getOperand(0));
      if (N->is(ExprKind::Neg)) {
        if (A)
          R = A->negated();
      } else if (A && Done == 1) {
        Stack.back().Done = 2;
        Stack.push_back({N->rhs(), 0});
        continue;
      } else if (A) {
        const std::optional<Polynomial> &B = Memo.at(N->rhs());
        if (B && N->is(ExprKind::Add))
          R = *A + *B;
        else if (B && N->is(ExprKind::Sub))
          R = *A - *B;
        else if (B)
          R = tryMul(*A, *B); // respects the expansion cap
      }
    }
    Memo.emplace(N, std::move(R));
    Stack.pop_back();
  }
  return std::move(Memo.at(E));
}

std::optional<Polynomial>
mba::exprToPolynomial(const Context &Ctx, const Expr *E, AtomMap &Atoms,
                      const std::function<bool(const Expr *)> &IsAtom) {
  uint64_t Mask = Ctx.mask();
  return exprToPolynomialGeneral(
      Ctx, E, [&](const Expr *N) -> std::optional<Polynomial> {
        if (!IsAtom(N))
          return std::nullopt;
        return Polynomial::atom(Atoms.getOrCreate(N), Mask);
      });
}

namespace {

/// Builds the expression of one power product, multiplying factors in
/// printed order so the result does not depend on atom-id assignment.
const Expr *monomialExpr(Context &Ctx, const Monomial &M,
                         const AtomMap &Atoms) {
  std::vector<std::pair<std::string, const Expr *>> Factors;
  for (auto &[Id, Exp] : M.powers()) {
    const Expr *A = Atoms.expr(Id);
    std::string Key = printExpr(Ctx, A);
    for (uint32_t I = 0; I != Exp; ++I)
      Factors.push_back({Key, A});
  }
  std::sort(Factors.begin(), Factors.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  const Expr *Product = nullptr;
  for (auto &[Key, A] : Factors)
    Product = Product ? Ctx.getMul(Product, A) : A;
  assert(Product && "constant monomial has no expression");
  return Product;
}

/// Accumulates signed terms into a +/- chain. \p Factor may be null for a
/// pure-constant term.
class SumBuilder {
public:
  explicit SumBuilder(Context &Ctx) : Ctx(Ctx) {}

  void addTerm(uint64_t Coeff, const Expr *Factor) {
    Coeff &= Ctx.mask();
    if (!Coeff)
      return;
    bool Negative = Ctx.toSigned(Coeff) < 0;
    uint64_t Mag = Negative ? (0 - Coeff) & Ctx.mask() : Coeff;
    const Expr *Term;
    if (!Factor)
      Term = Ctx.getConst(Mag);
    else if (Mag == 1)
      Term = Factor;
    else
      Term = Ctx.getMul(Ctx.getConst(Mag), Factor);
    if (!Acc)
      Acc = Negative ? negate(Term) : Term;
    else
      Acc = Negative ? Ctx.getSub(Acc, Term) : Ctx.getAdd(Acc, Term);
  }

  const Expr *finish() { return Acc ? Acc : Ctx.getZero(); }

private:
  const Expr *negate(const Expr *E) {
    if (E->isConst())
      return Ctx.getConst(0 - E->constValue());
    return Ctx.getNeg(E);
  }

  Context &Ctx;
  const Expr *Acc = nullptr;
};

} // namespace

const Expr *mba::polynomialToExpr(Context &Ctx, const Polynomial &P,
                                  const AtomMap &Atoms) {
  // Order terms canonically: by total degree, then by the printed monomial.
  // Atom ids are assigned in registration order (input-dependent), so
  // sorting on them would make the output order depend on how the
  // polynomial was built; printing keys make re-simplification a fixpoint.
  struct TermRec {
    unsigned Degree;
    std::string Key;
    uint64_t Coeff;
    const Expr *Factor;
  };
  std::vector<TermRec> Terms;
  for (auto &[M, C] : P.terms()) {
    if (M.isConstant())
      continue;
    const Expr *Factor = monomialExpr(Ctx, M, Atoms);
    Terms.push_back({M.degree(), printExpr(Ctx, Factor), C, Factor});
  }
  std::sort(Terms.begin(), Terms.end(), [](const TermRec &A, const TermRec &B) {
    if (A.Degree != B.Degree)
      return A.Degree < B.Degree;
    return A.Key < B.Key;
  });

  SumBuilder Sum(Ctx);
  for (const TermRec &T : Terms)
    Sum.addTerm(T.Coeff, T.Factor);
  Sum.addTerm(P.constantTerm(), nullptr);
  return Sum.finish();
}

const Expr *mba::buildLinearCombination(
    Context &Ctx,
    const std::vector<std::pair<uint64_t, const Expr *>> &Terms,
    uint64_t Constant) {
  SumBuilder Sum(Ctx);
  for (auto &[Coeff, E] : Terms)
    Sum.addTerm(Coeff, E);
  Sum.addTerm(Constant, nullptr);
  return Sum.finish();
}
