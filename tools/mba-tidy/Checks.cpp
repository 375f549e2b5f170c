//===- tools/mba-tidy/Checks.cpp - Repo-specific lint checks --------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include <algorithm>
#include <tuple>

using namespace mba::tidy;

namespace {

using Tokens = std::vector<Token>;

/// Returns the index of the token matching the opener at \p Open
/// ('(' / '[' / '{'), treating all three bracket kinds as nesting, or
/// T.size() if unbalanced. Angle brackets are NOT handled here (they are
/// also comparison operators); see skipTemplateArgs.
size_t findBalanced(const Tokens &T, size_t Open) {
  int Depth = 0;
  for (size_t I = Open; I < T.size(); ++I) {
    const std::string &S = T[I].Text;
    if (S == "(" || S == "[" || S == "{")
      ++Depth;
    else if (S == ")" || S == "]" || S == "}") {
      if (--Depth == 0)
        return I;
    }
  }
  return T.size();
}

/// If T[I] is '<', returns the index just past the matching '>', treating
/// ">>" as two closers. Gives up (returns I) when a ';' or unbalanced
/// bracket intervenes — then it was a comparison, not template args.
size_t skipTemplateArgs(const Tokens &T, size_t I) {
  if (I >= T.size() || !T[I].is("<"))
    return I;
  int Depth = 0;
  for (size_t J = I; J < T.size(); ++J) {
    const std::string &S = T[J].Text;
    if (S == "<")
      ++Depth;
    else if (S == ">") {
      if (--Depth == 0)
        return J + 1;
    } else if (S == ">>") {
      Depth -= 2;
      if (Depth <= 0)
        return J + 1;
    } else if (S == ";" || S == "{" || S == "}") {
      return I; // not template arguments after all
    }
  }
  return I;
}

void emit(std::vector<Diagnostic> &Out, const SourceFile &SF, const Token &At,
          std::string_view CheckName, std::string Message) {
  Out.push_back({SF.Path, At.Line, At.Col, std::move(Message),
                 std::string(CheckName)});
}

//===----------------------------------------------------------------------===//
// Scope-aware tracking of Context and Expr variables, shared by the two
// cross-context checks.
//===----------------------------------------------------------------------===//

struct VarScopes {
  struct Info {
    bool IsContext = false;
    std::string ExprOrigin; // for Expr vars: owning Context name, "" = unknown
  };
  std::vector<std::map<std::string, Info>> Scopes{1};

  void enter() { Scopes.emplace_back(); }
  void leave() {
    if (Scopes.size() > 1)
      Scopes.pop_back();
  }
  void declare(const std::string &Name, Info I) {
    Scopes.back()[Name] = std::move(I);
  }
  const Info *lookup(const std::string &Name) const {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
      auto Found = It->find(Name);
      if (Found != It->end())
        return &Found->second;
    }
    return nullptr;
  }
  Info *lookupMutable(const std::string &Name) {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
      auto Found = It->find(Name);
      if (Found != It->end())
        return &Found->second;
    }
    return nullptr;
  }
  bool isContext(const std::string &Name) const {
    const Info *I = lookup(Name);
    return I && I->IsContext;
  }
};

/// Classifies the expression starting at T[I] (just past an '=') as an
/// Expr-producing RHS and returns the owning Context name, or "" when the
/// origin cannot be pinned down. Recognizes:
///   Ctx.getFoo(...)          -> "Ctx"
///   cloneExpr(Dst, ...)      -> "Dst"
///   OtherTrackedExprVar      -> its recorded origin
std::string classifyExprOrigin(const Tokens &T, size_t I,
                               const VarScopes &Vars) {
  if (I >= T.size() || !T[I].isIdent())
    return "";
  const std::string &Head = T[I].Text;
  if (Head == "cloneExpr" && I + 2 < T.size() && T[I + 1].is("(") &&
      T[I + 2].isIdent() && Vars.isContext(T[I + 2].Text))
    return T[I + 2].Text;
  if (I + 1 < T.size() && T[I + 1].is(".") && Vars.isContext(Head))
    return Head;
  const VarScopes::Info *Alias = Vars.lookup(Head);
  if (Alias && !Alias->IsContext && !Alias->ExprOrigin.empty() &&
      (I + 1 >= T.size() || T[I + 1].is(";") || T[I + 1].is(",") ||
       T[I + 1].is(")")))
    return Alias->ExprOrigin;
  return "";
}

/// Walks T[I..] looking for variable declarations and updating Vars /
/// scope depth. Returns true (and advances I past the declared name) when
/// a declaration was consumed at I. Shared pre-step for both context
/// checks so they agree on what a "Context variable" is.
bool consumeDeclaration(const Tokens &T, size_t &I, VarScopes &Vars) {
  // `Context [&*]* Name` — also matches reference params in signatures and
  // qualified spellings (`mba::ast::Context &Ctx`): qualification tokens
  // precede `Context`, so they never reach this pattern.
  if (T[I].is("Context")) {
    size_t J = I + 1;
    while (J < T.size() && (T[J].is("&") || T[J].is("*")))
      ++J;
    if (J < T.size() && T[J].isIdent() &&
        (J + 1 >= T.size() || !T[J + 1].is("::"))) {
      Vars.declare(T[J].Text, {/*IsContext=*/true, ""});
      I = J;
      return true;
    }
    return false;
  }
  // `Expr * Name [= RHS]` — tracks interned-node pointers. `const` before
  // Expr is irrelevant; the lexer hands us the `Expr` token either way.
  if (T[I].is("Expr") && I + 2 < T.size() && T[I + 1].is("*") &&
      T[I + 2].isIdent()) {
    std::string Name = T[I + 2].Text;
    std::string Origin;
    if (I + 3 < T.size() && T[I + 3].is("="))
      Origin = classifyExprOrigin(T, I + 4, Vars);
    Vars.declare(Name, {/*IsContext=*/false, Origin});
    I = I + 2;
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// mba-cross-context-expr
//===----------------------------------------------------------------------===//

class CrossContextExprCheck : public Check {
public:
  std::string_view name() const override { return "mba-cross-context-expr"; }
  std::string_view description() const override {
    return "Expr* interned in one Context passed into another Context's API "
           "without an intervening cloneExpr()";
  }

  void run(const SourceFile &SF, std::vector<Diagnostic> &Out) const override {
    const Tokens &T = SF.Tokens;
    VarScopes Vars;
    for (size_t I = 0; I < T.size(); ++I) {
      if (T[I].is("{")) {
        Vars.enter();
        continue;
      }
      if (T[I].is("}")) {
        Vars.leave();
        continue;
      }
      if (consumeDeclaration(T, I, Vars))
        continue;
      if (!T[I].isIdent())
        continue;
      // Reassignment keeps the origin fresh: `E = Ctx2.rebuild(...)`.
      if (I + 1 < T.size() && T[I + 1].is("=")) {
        if (VarScopes::Info *Known = Vars.lookupMutable(T[I].Text);
            Known && !Known->IsContext) {
          Known->ExprOrigin = classifyExprOrigin(T, I + 2, Vars);
          continue;
        }
      }
      // `B.method( ...args... )` with B a tracked Context.
      if (I + 3 < T.size() && T[I + 1].is(".") && T[I + 2].isIdent() &&
          T[I + 3].is("(") && Vars.isContext(T[I].Text))
        scanCallArgs(SF, T, I, /*OpenParen=*/I + 3, Vars, Out);
    }
  }

private:
  void scanCallArgs(const SourceFile &SF, const Tokens &T, size_t CtxIdx,
                    size_t OpenParen, const VarScopes &Vars,
                    std::vector<Diagnostic> &Out) const {
    const std::string &Callee = T[CtxIdx].Text;
    size_t Close = findBalanced(T, OpenParen);
    for (size_t J = OpenParen + 1; J < Close; ++J) {
      // cloneExpr(...) inside the argument list is the sanctioned way to
      // cross contexts — everything within its parens is exempt.
      if (T[J].is("cloneExpr") && J + 1 < Close && T[J + 1].is("(")) {
        J = findBalanced(T, J + 1);
        continue;
      }
      if (!T[J].isIdent())
        continue;
      // Skip member/qualified names and function call heads: only a bare
      // use of a tracked variable counts.
      if (J > 0 && (T[J - 1].is(".") || T[J - 1].is("->") || T[J - 1].is("::")))
        continue;
      if (J + 1 < T.size() && (T[J + 1].is("(") || T[J + 1].is("::")))
        continue;
      const VarScopes::Info *Info = Vars.lookup(T[J].Text);
      if (!Info || Info->IsContext || Info->ExprOrigin.empty() ||
          Info->ExprOrigin == Callee)
        continue;
      emit(Out, SF, T[J], name(),
           "'" + T[J].Text + "' was interned in Context '" + Info->ExprOrigin +
               "' but is passed to '" + Callee + "." + T[CtxIdx + 2].Text +
               "()'; hash-consed Expr* never cross contexts — use "
               "cloneExpr(" +
               Callee + ", " + T[J].Text + ") first");
    }
  }
};

//===----------------------------------------------------------------------===//
// mba-context-captured-by-pool
//===----------------------------------------------------------------------===//

class ContextCapturedByPoolCheck : public Check {
public:
  std::string_view name() const override {
    return "mba-context-captured-by-pool";
  }
  std::string_view description() const override {
    return "Context captured into a ThreadPool::parallelFor worker lambda; "
           "workers must build into per-worker Contexts";
  }

  void run(const SourceFile &SF, std::vector<Diagnostic> &Out) const override {
    const Tokens &T = SF.Tokens;
    VarScopes Vars;
    for (size_t I = 0; I < T.size(); ++I) {
      if (T[I].is("{")) {
        Vars.enter();
        continue;
      }
      if (T[I].is("}")) {
        Vars.leave();
        continue;
      }
      if (consumeDeclaration(T, I, Vars))
        continue;
      if (T[I].is("parallelFor") && I + 1 < T.size() && T[I + 1].is("("))
        checkCall(SF, T, /*OpenParen=*/I + 1, Vars, Out);
    }
  }

private:
  // Read-only Context accessors a worker may call on a shared Context:
  // they touch immutable configuration, never the interner.
  static bool isSharedSafeMethod(const std::string &M) {
    static const std::set<std::string> Safe = {"width", "mask", "truncate",
                                               "toSigned"};
    return Safe.count(M) > 0;
  }

  void checkCall(const SourceFile &SF, const Tokens &T, size_t OpenParen,
                 const VarScopes &Vars, std::vector<Diagnostic> &Out) const {
    size_t CallEnd = findBalanced(T, OpenParen);
    // Locate the lambda: first '[' directly inside the call's parens.
    size_t LB = OpenParen + 1;
    while (LB < CallEnd && !T[LB].is("["))
      ++LB;
    if (LB >= CallEnd)
      return;
    size_t CaptureEnd = findBalanced(T, LB);

    // Parse the capture list: a bare '&' or '=' item captures everything
    // in scope; otherwise only the named variables can leak in.
    bool CapturesAll = false;
    std::set<std::string> Named;
    for (size_t J = LB + 1; J + 1 < T.size() && J < CaptureEnd; ++J) {
      if ((T[J].is("&") || T[J].is("=")) &&
          (T[J + 1].is(",") || T[J + 1].is("]")))
        CapturesAll = true;
      else if (T[J].isIdent())
        Named.insert(T[J].Text);
    }

    // Find the lambda body braces.
    size_t BodyOpen = CaptureEnd + 1;
    while (BodyOpen < CallEnd && !T[BodyOpen].is("{")) {
      if (T[BodyOpen].is("(")) {
        BodyOpen = findBalanced(T, BodyOpen);
        if (BodyOpen >= CallEnd)
          return;
      }
      ++BodyOpen;
    }
    if (BodyOpen >= CallEnd)
      return;
    size_t BodyClose = findBalanced(T, BodyOpen);

    // Contexts declared inside the body are per-worker and fine — collect
    // them (plus any name they shadow) before flagging uses.
    std::set<std::string> BodyLocal;
    for (size_t J = BodyOpen + 1; J < BodyClose; ++J) {
      size_t K = J;
      VarScopes Local; // throwaway; we only want the declared name
      if (consumeDeclaration(T, K, Local)) {
        for (const auto &KV : Local.Scopes.back())
          BodyLocal.insert(KV.first);
        J = K;
      }
    }

    for (size_t J = BodyOpen + 1; J < BodyClose; ++J) {
      if (!T[J].isIdent() || BodyLocal.count(T[J].Text))
        continue;
      if (J > 0 && (T[J - 1].is(".") || T[J - 1].is("->") || T[J - 1].is("::")))
        continue;
      if (!Vars.isContext(T[J].Text))
        continue;
      if (!CapturesAll && !Named.count(T[J].Text))
        continue;
      if (J + 2 < T.size() && T[J + 1].is(".") && T[J + 2].isIdent() &&
          isSharedSafeMethod(T[J + 2].Text))
        continue;
      emit(Out, SF, T[J], name(),
           "Context '" + T[J].Text +
               "' is captured into a parallelFor worker lambda; the "
               "interner is single-owner — build into a per-worker Context "
               "and cloneExpr the results back instead");
    }
  }
};

//===----------------------------------------------------------------------===//
// mba-unnamed-raii
//===----------------------------------------------------------------------===//

class UnnamedRaiiCheck : public Check {
public:
  std::string_view name() const override { return "mba-unnamed-raii"; }
  std::string_view description() const override {
    return "Discarded RAII temporary (lock guard / trace span) that "
           "releases its resource at the end of the full expression";
  }

  void run(const SourceFile &SF, std::vector<Diagnostic> &Out) const override {
    static const std::set<std::string> RaiiTypes = {
        "SpanGuard",   "Stage",       "MutexLock",   "UniqueMutexLock",
        "SourceHandle", "lock_guard", "unique_lock", "scoped_lock",
        "shared_lock"};
    const Tokens &T = SF.Tokens;
    for (size_t I = 0; I < T.size(); ++I) {
      // Only statement-initial positions: a preceding identifier would
      // make this a declaration with the RAII type as a parameter/member.
      if (I > 0 && !(T[I - 1].is(";") || T[I - 1].is("{") || T[I - 1].is("}")))
        continue;
      // Optional `a::b::` qualification chain.
      size_t J = I;
      while (J + 1 < T.size() && T[J].isIdent() && T[J + 1].is("::"))
        J += 2;
      if (J >= T.size() || !T[J].isIdent() || !RaiiTypes.count(T[J].Text))
        continue;
      size_t K = skipTemplateArgs(T, J + 1);
      if (K >= T.size() || !(T[K].is("(") || T[K].is("{")))
        continue;
      size_t Close = findBalanced(T, K);
      if (Close + 1 >= T.size() || !T[Close + 1].is(";"))
        continue;
      // `Type();` and `Type(Args);` are also how constructors are
      // *declared* — only flag when the parens hold something that reads
      // as an expression, not a parameter list.
      if (Close == K + 1 || looksLikeParamList(T, K, Close))
        continue;
      emit(Out, SF, T[J], name(),
           "'" + T[J].Text +
               "' temporary is destroyed at the ';' — it guards nothing. "
               "Name it (e.g. `" +
               T[J].Text + " Guard(...);`)");
    }
  }

private:
  /// Heuristic: `const`, consecutive identifiers (`Mutex M`), or
  /// ident-&/&&/*-ident sequences mean a parameter list, i.e. a
  /// constructor declaration rather than a discarded temporary.
  static bool looksLikeParamList(const Tokens &T, size_t Open, size_t Close) {
    for (size_t J = Open + 1; J < Close; ++J) {
      if (T[J].is("const"))
        return true;
      if (T[J].isIdent() && J + 1 < Close && T[J + 1].isIdent())
        return true;
      if (T[J].isIdent() && J + 2 < Close &&
          (T[J + 1].is("&") || T[J + 1].is("&&") || T[J + 1].is("*")) &&
          T[J + 2].isIdent())
        return true;
    }
    return false;
  }
};

//===----------------------------------------------------------------------===//
// mba-isa-outside-seam
//===----------------------------------------------------------------------===//

/// Raw SIMD usage outside the wide-engine seam. src/support/Bitslice* is
/// the repository's single ISA boundary: the AVX2/AVX-512 back ends live
/// there behind runtime dispatch (bitslice::kernelsFor / activeKernels),
/// so every other file stays portable and the scalar/SIMD agreement tests
/// cover all vector code there is. Intrinsic calls, vector types,
/// CPU-feature macros, or the intrinsics headers anywhere else mean a
/// second dispatch seam is growing.
class IsaOutsideSeamCheck : public Check {
public:
  std::string_view name() const override { return "mba-isa-outside-seam"; }
  std::string_view description() const override {
    return "Raw AVX intrinsics or __AVX*__ feature tests outside "
           "src/support/Bitslice*; all ISA dispatch stays behind the "
           "wide-engine seam (bitslice::kernelsFor / activeKernels)";
  }

  void run(const SourceFile &SF, std::vector<Diagnostic> &Out) const override {
    // The seam itself is the sanctioned home of intrinsics and feature
    // macros (its own lint corpus file stands in for "everywhere else").
    if (SF.Path.find("src/support/Bitslice") != std::string::npos)
      return;
    for (const Token &T : SF.Tokens) {
      if (!T.isIdent() || !isRawIsaToken(T.Text))
        continue;
      emit(Out, SF, T, name(),
           "raw ISA surface '" + T.Text +
               "' outside src/support/Bitslice*; SIMD intrinsics and "
               "CPU-feature tests stay behind the one wide-engine seam — "
               "dispatch via bitslice::kernelsFor()/activeKernels() "
               "(tests override with forceIsa()/MBA_FORCE_ISA)");
    }
  }

private:
  /// Intrinsic calls (_mm*_*), vector types (__m128/__m256/__m512...),
  /// feature-test macros (__AVX*/__SSE*), and the intrinsics headers.
  /// String literals never reach here (the lexer strips them into String
  /// tokens), so messages about intrinsics stay silent.
  static bool isRawIsaToken(std::string_view S) {
    return S.starts_with("_mm_") || S.starts_with("_mm256_") ||
           S.starts_with("_mm512_") || S.starts_with("__m128") ||
           S.starts_with("__m256") || S.starts_with("__m512") ||
           S.starts_with("__AVX") || S.starts_with("__SSE") ||
           S == "immintrin" || S == "x86intrin";
  }
};

//===----------------------------------------------------------------------===//
// mba-raw-pointer-in-cache-key
//===----------------------------------------------------------------------===//

class RawPointerInCacheKeyCheck : public Check {
public:
  std::string_view name() const override {
    return "mba-raw-pointer-in-cache-key";
  }
  std::string_view description() const override {
    return "Pointer value folded into a 64-bit semantic cache key; keys "
           "must survive snapshot save/load across processes";
  }

  void run(const SourceFile &SF, std::vector<Diagnostic> &Out) const override {
    static const std::set<std::string> HashFns = {
        "hashCombine64", "hashMix64", "hashBytes64", "hashString64"};
    const Tokens &T = SF.Tokens;
    for (size_t I = 0; I + 1 < T.size(); ++I) {
      if (!T[I].isIdent() || !HashFns.count(T[I].Text) || !T[I + 1].is("("))
        continue;
      size_t Close = findBalanced(T, I + 1);
      for (size_t J = I + 2; J < Close; ++J) {
        if (T[J].is("uintptr_t") || T[J].is("intptr_t")) {
          emit(Out, SF, T[J], name(),
               "pointer identity reaches '" + T[I].Text +
                   "()' via " + T[J].Text +
                   "; interned addresses differ across processes, so this "
                   "key poisons persisted cache snapshots — hash the "
                   "expression's structural fingerprint instead");
        } else if (T[J].is("reinterpret_cast")) {
          if (integerTargetCast(T, J, Close))
            emit(Out, SF, T[J], name(),
                 "reinterpret_cast to an integer inside '" + T[I].Text +
                     "()' hashes a pointer value; semantic cache keys must "
                     "be address-free — hash the structural fingerprint "
                     "instead");
          // Either way, don't re-report identifiers inside the cast's
          // template arguments.
          if (J + 1 < Close && T[J + 1].is("<"))
            J = skipTemplateArgs(T, J + 1) - 1;
        }
      }
      I = Close;
    }
  }

private:
  /// reinterpret_cast<T> with no '*' in T converts *to* an integer, i.e.
  /// hashes the address itself. Pointer-target casts (e.g. to const
  /// char* for hashBytes64) read through the pointer and are fine.
  static bool integerTargetCast(const Tokens &T, size_t CastIdx,
                                size_t Limit) {
    if (CastIdx + 1 >= Limit || !T[CastIdx + 1].is("<"))
      return false;
    size_t End = skipTemplateArgs(T, CastIdx + 1);
    for (size_t J = CastIdx + 2; J + 1 < End; ++J)
      if (T[J].is("*"))
        return false;
    return true;
  }
};

//===----------------------------------------------------------------------===//
// mba-sat-solver-in-loop
//===----------------------------------------------------------------------===//

class SatSolverInLoopCheck : public Check {
public:
  std::string_view name() const override { return "mba-sat-solver-in-loop"; }
  std::string_view description() const override {
    return "Fresh SatSolver constructed inside a loop in src/solvers; a "
           "backend builds one solver per query, in the function that "
           "answers the query, never one per loop iteration";
  }

  void run(const SourceFile &SF, std::vector<Diagnostic> &Out) const override {
    // The one-solver-per-query rule binds the backend implementations only:
    // tests and micro-benchmarks build throwaway solvers in loops by
    // design, so the check is scoped to src/solvers (plus its own lint
    // corpus).
    if (SF.Path.find("src/solvers") == std::string::npos &&
        SF.Path.find("static_analysis") == std::string::npos)
      return;
    const Tokens &T = SF.Tokens;
    std::set<size_t> Sites;
    for (size_t I = 0; I + 1 < T.size(); ++I) {
      size_t BodyOpen = T.size();
      if ((T[I].is("for") || T[I].is("while")) && T[I + 1].is("(")) {
        size_t CondClose = findBalanced(T, I + 1);
        if (CondClose + 1 < T.size() && T[CondClose + 1].is("{"))
          BodyOpen = CondClose + 1;
      } else if (T[I].is("do") && T[I + 1].is("{")) {
        BodyOpen = I + 1;
      }
      if (BodyOpen >= T.size())
        continue;
      size_t BodyClose = findBalanced(T, BodyOpen);
      for (size_t J = BodyOpen + 1; J < BodyClose; ++J)
        if (T[J].is("SatSolver") && isConstruction(T, J))
          Sites.insert(J); // set: nested loops see the same site twice
    }
    for (size_t J : Sites)
      emit(Out, SF, T[J], name(),
           "fresh SatSolver constructed inside a loop; every iteration "
           "re-encodes the clauses and discards the learnt clauses the "
           "previous one paid for — build the solver once per query, "
           "outside the loop, and vary each iteration's constraints "
           "through solve(assumptions)");
  }

private:
  /// True when the SatSolver token at \p J is a construction site: a local
  /// declaration (`SatSolver S;` / `SatSolver S(...);`), a make_unique
  /// template argument, or a new-expression. References and pointers to a
  /// hoisted instance are the sanctioned shape and stay silent.
  static bool isConstruction(const Tokens &T, size_t J) {
    // Declaration of a value (not `SatSolver &Ref = ...` / `SatSolver *P`).
    if (J + 2 < T.size() && T[J + 1].isIdent() &&
        (T[J + 2].is(";") || T[J + 2].is("(") || T[J + 2].is("{")))
      return true;
    // Walk back over the `ns ::` qualification chain, then look for the
    // constructing context: `new [ns::]SatSolver` or
    // `make_unique<[ns::]SatSolver>`.
    size_t K = J;
    while (K >= 2 && T[K - 1].is("::") && T[K - 2].isIdent())
      K -= 2;
    if (K >= 1 && T[K - 1].is("new"))
      return true;
    if (K >= 2 && T[K - 1].is("<") && T[K - 2].is("make_unique"))
      return true;
    return false;
  }
};

} // namespace

std::vector<std::unique_ptr<Check>> mba::tidy::createAllChecks() {
  std::vector<std::unique_ptr<Check>> Checks;
  Checks.push_back(std::make_unique<ContextCapturedByPoolCheck>());
  Checks.push_back(std::make_unique<CrossContextExprCheck>());
  Checks.push_back(std::make_unique<IsaOutsideSeamCheck>());
  Checks.push_back(std::make_unique<RawPointerInCacheKeyCheck>());
  Checks.push_back(std::make_unique<SatSolverInLoopCheck>());
  Checks.push_back(std::make_unique<UnnamedRaiiCheck>());
  return Checks;
}

std::vector<Diagnostic>
mba::tidy::runChecks(const SourceFile &SF,
                     const std::vector<std::unique_ptr<Check>> &Checks,
                     const std::set<std::string> &Enabled) {
  std::vector<Diagnostic> All;
  for (const auto &C : Checks) {
    if (!Enabled.empty() && !Enabled.count(std::string(C->name())))
      continue;
    C->run(SF, All);
  }
  std::erase_if(All, [&](const Diagnostic &D) {
    return SF.Nolint.suppressed(D.Line, D.CheckName);
  });
  std::sort(All.begin(), All.end(), [](const Diagnostic &A,
                                       const Diagnostic &B) {
    return std::tie(A.Line, A.Col, A.CheckName) <
           std::tie(B.Line, B.Col, B.CheckName);
  });
  return All;
}
