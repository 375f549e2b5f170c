//===- solvers/SmtLibParser.cpp - SMT-LIB2 benchmark reader ---------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "solvers/SmtLibParser.h"

#include <cctype>
#include <cstdlib>
#include <vector>

using namespace mba;

namespace {

/// Deepest list nesting the s-expression reader accepts. parseOne, the
/// SExpr destructor and TermReader::read each recurse once per level, so
/// without a cap a deeply nested script overflows the stack. Exported MBA
/// queries nest a few dozen levels.
constexpr unsigned MaxNestingDepth = 2048;

/// Minimal s-expression representation.
struct SExpr {
  std::string Atom;          // nonempty for atoms
  std::vector<SExpr> Items;  // children for lists

  bool isAtom() const { return !Atom.empty(); }
};

class SExprParser {
public:
  explicit SExprParser(std::string_view Text) : Text(Text) {}

  /// Parses all toplevel s-expressions; nullopt on error.
  std::optional<std::vector<SExpr>> parseAll(std::string &Error) {
    std::vector<SExpr> Result;
    for (;;) {
      skipTrivia();
      if (Pos >= Text.size())
        return Result;
      auto S = parseOne(Error, 0);
      if (!S)
        return std::nullopt;
      Result.push_back(std::move(*S));
    }
  }

private:
  void skipTrivia() {
    for (;;) {
      while (Pos < Text.size() && std::isspace((unsigned char)Text[Pos]))
        ++Pos;
      if (Pos < Text.size() && Text[Pos] == ';') {
        while (Pos < Text.size() && Text[Pos] != '\n')
          ++Pos;
        continue;
      }
      return;
    }
  }

  /// Parses one s-expression nested \p Depth lists deep.
  std::optional<SExpr> parseOne(std::string &Error, unsigned Depth) {
    skipTrivia();
    if (Pos >= Text.size()) {
      Error = "unexpected end of input";
      return std::nullopt;
    }
    if (Text[Pos] == '(') {
      if (Depth == MaxNestingDepth) {
        Error = "nesting deeper than " + std::to_string(MaxNestingDepth) +
                " levels at offset " + std::to_string(Pos);
        return std::nullopt;
      }
      ++Pos;
      SExpr List;
      for (;;) {
        skipTrivia();
        if (Pos >= Text.size()) {
          Error = "unterminated list";
          return std::nullopt;
        }
        if (Text[Pos] == ')') {
          ++Pos;
          return List;
        }
        auto Child = parseOne(Error, Depth + 1);
        if (!Child)
          return std::nullopt;
        List.Items.push_back(std::move(*Child));
      }
    }
    if (Text[Pos] == ')') {
      Error = "unexpected ')'";
      return std::nullopt;
    }
    size_t Start = Pos;
    while (Pos < Text.size() && !std::isspace((unsigned char)Text[Pos]) &&
           Text[Pos] != '(' && Text[Pos] != ')' && Text[Pos] != ';')
      ++Pos;
    SExpr Atom;
    Atom.Atom = std::string(Text.substr(Start, Pos - Start));
    return Atom;
  }

  std::string_view Text;
  size_t Pos = 0;
};

/// Term translation context.
struct TermReader {
  Context &Ctx;
  std::string &Error;

  const Expr *read(const SExpr &S) {
    if (S.isAtom()) {
      // A declared constant (variable) or a plain decimal numeral.
      if (std::isdigit((unsigned char)S.Atom[0]))
        return Ctx.getConst(std::strtoull(S.Atom.c_str(), nullptr, 10));
      if (S.Atom.rfind("#x", 0) == 0)
        return Ctx.getConst(std::strtoull(S.Atom.c_str() + 2, nullptr, 16));
      return Ctx.getVar(S.Atom);
    }
    // (_ bvN w) literal?
    if (S.Items.size() == 3 && S.Items[0].Atom == "_" &&
        S.Items[1].Atom.rfind("bv", 0) == 0) {
      return Ctx.getConst(
          std::strtoull(S.Items[1].Atom.c_str() + 2, nullptr, 10));
    }
    if (S.Items.empty() || !S.Items[0].isAtom()) {
      Error = "malformed term";
      return nullptr;
    }
    const std::string &Op = S.Items[0].Atom;
    auto Unary = [&](ExprKind K) -> const Expr * {
      if (S.Items.size() != 2) {
        Error = Op + " expects one operand";
        return nullptr;
      }
      const Expr *A = read(S.Items[1]);
      return A ? Ctx.getUnary(K, A) : nullptr;
    };
    // SMT-LIB bv operators are left-associative n-ary; fold pairwise.
    auto Nary = [&](ExprKind K) -> const Expr * {
      if (S.Items.size() < 3) {
        Error = Op + " expects at least two operands";
        return nullptr;
      }
      const Expr *Acc = read(S.Items[1]);
      for (size_t I = 2; Acc && I != S.Items.size(); ++I) {
        const Expr *B = read(S.Items[I]);
        Acc = B ? Ctx.getBinary(K, Acc, B) : nullptr;
      }
      return Acc;
    };
    if (Op == "bvnot")
      return Unary(ExprKind::Not);
    if (Op == "bvneg")
      return Unary(ExprKind::Neg);
    if (Op == "bvadd")
      return Nary(ExprKind::Add);
    if (Op == "bvsub")
      return Nary(ExprKind::Sub);
    if (Op == "bvmul")
      return Nary(ExprKind::Mul);
    if (Op == "bvand")
      return Nary(ExprKind::And);
    if (Op == "bvor")
      return Nary(ExprKind::Or);
    if (Op == "bvxor")
      return Nary(ExprKind::Xor);
    Error = "unsupported operator '" + Op + "'";
    return nullptr;
  }
};

} // namespace

std::optional<SmtLibQuery> mba::parseSmtLibQuery(Context &Ctx,
                                                 std::string_view Script,
                                                 std::string *Error) {
  std::string Err;
  auto Fail = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg;
    return std::nullopt;
  };

  SExprParser Parser(Script);
  auto Top = Parser.parseAll(Err);
  if (!Top)
    return Fail(Err);

  SmtLibQuery Query;
  bool SawAssert = false;
  TermReader Reader{Ctx, Err};

  for (const SExpr &S : *Top) {
    if (S.isAtom() || S.Items.empty() || !S.Items[0].isAtom())
      return Fail("unexpected toplevel form");
    const std::string &Head = S.Items[0].Atom;
    if (Head == "set-logic" || Head == "set-info" || Head == "check-sat" ||
        Head == "exit" || Head == "get-model")
      continue;
    if (Head == "declare-const" || Head == "declare-fun") {
      // (declare-const name (_ BitVec w)); declare-fun adds an empty
      // argument list we require to be ().
      const SExpr *Sort = nullptr;
      if (Head == "declare-const" && S.Items.size() == 3)
        Sort = &S.Items[2];
      else if (Head == "declare-fun" && S.Items.size() == 4 &&
               !S.Items[2].isAtom() && S.Items[2].Items.empty())
        Sort = &S.Items[3];
      if (!Sort || Sort->isAtom() || Sort->Items.size() != 3 ||
          Sort->Items[1].Atom != "BitVec")
        return Fail("unsupported declaration (expect (_ BitVec w))");
      unsigned W =
          (unsigned)std::strtoul(Sort->Items[2].Atom.c_str(), nullptr, 10);
      if (Query.Width && Query.Width != W)
        return Fail("mixed bit-vector widths are not supported");
      Query.Width = W;
      if (W != Ctx.width())
        return Fail("script width " + std::to_string(W) +
                    " does not match context width " +
                    std::to_string(Ctx.width()));
      Ctx.getVar(S.Items[1].Atom);
      continue;
    }
    if (Head == "assert") {
      if (SawAssert)
        return Fail("multiple assertions are not supported");
      if (S.Items.size() != 2)
        return Fail("malformed assert");
      const SExpr *Body = &S.Items[1];
      bool Negated = false;
      if (!Body->isAtom() && Body->Items.size() == 2 &&
          Body->Items[0].Atom == "not") {
        Negated = true;
        Body = &Body->Items[1];
      }
      if (Body->isAtom() || Body->Items.size() != 3)
        return Fail("assert body must be (=|distinct lhs rhs)");
      const std::string &Rel = Body->Items[0].Atom;
      if (Rel != "=" && Rel != "distinct")
        return Fail("assert body must be (=|distinct lhs rhs)");
      Query.IsDistinct = (Rel == "distinct") != Negated;
      Query.Lhs = Reader.read(Body->Items[1]);
      if (!Query.Lhs)
        return Fail(Err);
      Query.Rhs = Reader.read(Body->Items[2]);
      if (!Query.Rhs)
        return Fail(Err);
      SawAssert = true;
      continue;
    }
    return Fail("unsupported command '" + Head + "'");
  }
  if (!SawAssert)
    return Fail("no assertion found");
  return Query;
}
