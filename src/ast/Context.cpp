//===- ast/Context.cpp - Expression interning context ----------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ast/Context.h"
#include "ast/BitslicedEval.h"
#include "ast/ExprUtils.h"
#include "support/Cache.h"

#include <bit>

using namespace mba;

Context::Context(unsigned Width) : Width(Width) {
  assert(Width >= 1 && Width <= 64 && "width must be in [1, 64]");
  Mask = Width == 64 ? ~0ULL : ((1ULL << Width) - 1);
}

// Out of line so BitslicedExpr is complete where the cache is destroyed.
Context::~Context() = default;

const BitslicedExpr &Context::getBitsliced(const Expr *E) const {
  assertOwnedByCurrentThread();
  if (std::unique_ptr<BitslicedExpr> *Hit = BitslicedCache.find(E))
    return **Hit;
  auto Compiled = std::make_unique<BitslicedExpr>(*this, E);
  const BitslicedExpr &Result = *Compiled;
  BitslicedCache.emplace(E, std::move(Compiled));
  return Result;
}

uint64_t *Context::evalScratch(size_t Words) const {
  assertOwnedByCurrentThread();
  if (EvalScratch.size() < Words)
    EvalScratch.resize(Words);
  return EvalScratch.data();
}

namespace {

/// The fingerprint of a node of kind \p K before its name, value or
/// operands are mixed in.
uint64_t kindSeed(ExprKind K) {
  return hashMix64((uint64_t)K + 0x517cc1b727220a95ULL);
}

} // namespace

uint64_t mba::exprFingerprint(const Expr *E) {
  assert(E && "null expression");
  return E->isConst() ? hashCombine64(kindSeed(ExprKind::Const), E->Value)
                      : E->Value;
}

const Expr *Context::getVar(std::string_view Name) {
  assert(!Name.empty() && "variable name must be non-empty");
  assertOwnedByCurrentThread();
  auto It = VarsByName.find(Name);
  if (It != VarsByName.end())
    return It->second;

  const char *Interned = Alloc.copyString(Name.data(), Name.size());
  unsigned Index = (unsigned)Vars.size();
  uint64_t Fingerprint = hashCombine64(kindSeed(ExprKind::Var),
                                       hashBytes64(Name.data(), Name.size()));
  const Expr *E =
      Alloc.create<Expr>(Expr(ExprKind::Var, Interned, Index, Fingerprint));
  ++NumNodes;
  Vars.push_back(E);
  VarsByName.emplace(std::string(Name), E);
  return E;
}

namespace {

/// Hash of an interning key. The table indexes by the high bits, which the
/// final multiplication makes depend on every input bit.
uint64_t internHash(ExprKind K, const Expr *L, const Expr *R, uint64_t Aux) {
  uint64_t H = ((uint64_t)K + 1) * 0x9e3779b97f4a7c15ULL;
  H = (H ^ (uint64_t)(uintptr_t)L) * 0xbf58476d1ce4e5b9ULL;
  H = (H ^ (uint64_t)(uintptr_t)R) * 0x94d049bb133111ebULL;
  return (H ^ Aux) * 0x9e3779b97f4a7c15ULL;
}

} // namespace

size_t Context::probeInterned(uint64_t Hash, ExprKind K, const Expr *L,
                              const Expr *R, uint64_t Aux) const {
  size_t M = Interned.size() - 1;
  size_t I = (size_t)(Hash >> InternShift);
  while (const Expr *N = Interned[I].Node) {
    if (Interned[I].Hash == Hash && N->Kind == K && N->LHS == L &&
        N->RHS == R && (K != ExprKind::Const || N->Value == Aux))
      break;
    I = (I + 1) & M;
  }
  return I;
}

void Context::growInterned() {
  std::vector<InternSlot> Old = std::move(Interned);
  size_t NewSlots = Old.empty() ? 256 : Old.size() * 2;
  Interned = std::vector<InternSlot>(NewSlots);
  InternShift = 64 - (unsigned)std::countr_zero(NewSlots);
  size_t M = NewSlots - 1;
  for (const InternSlot &S : Old) {
    if (!S.Node)
      continue;
    size_t I = (size_t)(S.Hash >> InternShift);
    while (Interned[I].Node)
      I = (I + 1) & M;
    Interned[I] = S;
  }
}

const Expr *Context::intern(ExprKind K, const Expr *L, const Expr *R,
                            uint64_t Aux) {
  uint64_t Hash = internHash(K, L, R, Aux);
  size_t I = 0;
  if (!Interned.empty()) {
    I = probeInterned(Hash, K, L, R, Aux);
    if (const Expr *Hit = Interned[I].Node)
      return Hit;
  }
  size_t NumInterned = NumNodes - Vars.size();
  if ((NumInterned + 1) * 4 > Interned.size() * 3) {
    growInterned();
    I = probeInterned(Hash, K, L, R, Aux);
  }
  const Expr *E;
  if (K == ExprKind::Const) {
    E = Alloc.create<Expr>(Expr(K, nullptr, 0, Aux));
  } else {
    // Operand order matters (Sub is not commutative); hashCombine64 is
    // order-sensitive, so lhs-then-rhs keeps a-b distinct from b-a.
    uint64_t Fingerprint = hashCombine64(kindSeed(K), exprFingerprint(L));
    if (R)
      Fingerprint = hashCombine64(Fingerprint, exprFingerprint(R));
    E = Alloc.create<Expr>(Expr(K, Fingerprint, L, R));
  }
  Interned[I] = {Hash, E};
  ++NumNodes;
  return E;
}

const Expr *Context::getConst(uint64_t Value) {
  assertOwnedByCurrentThread();
  return intern(ExprKind::Const, nullptr, nullptr, Value & Mask);
}

const Expr *Context::getUnary(ExprKind K, const Expr *A) {
  assertOwnedByCurrentThread();
  assert(isUnaryKind(K) && "not a unary kind");
  assert(A && "null operand");
  return intern(K, A, nullptr, 0);
}

const Expr *Context::getBinary(ExprKind K, const Expr *A, const Expr *B) {
  assertOwnedByCurrentThread();
  assert(isBinaryKind(K) && "not a binary kind");
  assert(A && B && "null operand");
  return intern(K, A, B, 0);
}

const Expr *Context::findInterned(ExprKind K, const Expr *L, const Expr *R,
                                  uint64_t Aux) const {
  // Latent gap surfaced by the owner-thread capability annotations: this
  // read-only lookup touched the interning tables without the guardrail
  // (reads are unsafe too — the class is not safe for concurrent readers).
  assertOwnedByCurrentThread();
  if (K == ExprKind::Var)
    return Aux < Vars.size() ? Vars[Aux] : nullptr;
  if (Interned.empty())
    return nullptr;
  return Interned[probeInterned(internHash(K, L, R, Aux), K, L, R, Aux)].Node;
}

void Context::forEachOwnedNode(
    const std::function<void(const Expr *)> &Fn) const {
  assertOwnedByCurrentThread(); // same latent gap as findInterned
  for (const Expr *V : Vars)
    Fn(V);
  for (const InternSlot &S : Interned)
    if (S.Node)
      Fn(S.Node);
}

const Expr *Context::rebuild(const Expr *E, const Expr *NewLHS,
                             const Expr *NewRHS) {
  if (E->isLeaf())
    return E;
  if (E->isUnary()) {
    assert(NewLHS && "unary rebuild needs an operand");
    if (NewLHS == E->operand())
      return E;
    return getUnary(E->kind(), NewLHS);
  }
  assert(NewLHS && NewRHS && "binary rebuild needs both operands");
  if (NewLHS == E->lhs() && NewRHS == E->rhs())
    return E;
  return getBinary(E->kind(), NewLHS, NewRHS);
}
