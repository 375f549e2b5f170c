//===- solvers/SmtLibParser.cpp - SMT-LIB2 benchmark reader ---------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "solvers/SmtLibParser.h"

#include <cctype>
#include <optional>
#include <utility>
#include <unordered_set>
#include <vector>

using namespace mba;

namespace {

/// Deepest list nesting the s-expression reader accepts. parseOne and the
/// SExpr destructor each recurse once per level, so without a cap a deeply
/// nested script overflows the stack. Exported MBA
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

/// Reads \p Digits, every one a digit of \p Base (2, 10 or 16), into
/// \p Value. False on an empty string, any other byte or a value of 2^64
/// or more.
bool readDigits(std::string_view Digits, unsigned Base, uint64_t &Value) {
  if (Digits.empty())
    return false;
  Value = 0;
  for (char C : Digits) {
    unsigned D;
    if (C >= '0' && C <= '9')
      D = (unsigned)(C - '0');
    else if (C >= 'a' && C <= 'f')
      D = (unsigned)(C - 'a') + 10;
    else if (C >= 'A' && C <= 'F')
      D = (unsigned)(C - 'A') + 10;
    else
      return false;
    if (D >= Base || Value > (UINT64_MAX - D) / Base)
      return false;
    Value = Value * Base + D;
  }
  return true;
}

/// True for an SMT-LIB simple symbol: letters, digits and
/// ~!@$%^&*_-+=<>.?/, not starting with a digit.
bool isSimpleSymbol(std::string_view Name) {
  if (Name.empty() || std::isdigit((unsigned char)Name[0]))
    return false;
  for (char C : Name)
    if (!std::isalnum((unsigned char)C) &&
        std::string_view("~!@$%^&*_-+=<>.?/").find(C) == std::string_view::npos)
      return false;
  return true;
}

/// Term translation context. Every literal must denote a value of the
/// context's width, which declarations have already matched to the
/// script's width; every symbol must be declared.
struct TermReader {
  Context &Ctx;
  std::string &Error;
  std::unordered_set<std::string> Declared;

  /// A constant of value \p V, or null with a diagnostic when \p V does
  /// not fit the width.
  const Expr *literal(const std::string &Text, uint64_t V) {
    if (V & ~Ctx.mask()) {
      Error = "literal '" + Text + "' does not fit in " +
              std::to_string(Ctx.width()) + " bits";
      return nullptr;
    }
    return Ctx.getConst(V);
  }

  /// A #b/#x literal, whose digit count fixes its width.
  const Expr *bitLiteral(const std::string &Atom) {
    if (Atom.size() < 2 || (Atom[1] != 'b' && Atom[1] != 'x')) {
      Error = "unsupported literal '" + Atom + "'";
      return nullptr;
    }
    unsigned Base = Atom[1] == 'b' ? 2 : 16;
    unsigned BitsPerDigit = Base == 2 ? 1 : 4;
    std::string_view Digits = std::string_view(Atom).substr(2);
    uint64_t V;
    if (Digits.size() * BitsPerDigit != Ctx.width()) {
      Error = "literal '" + Atom + "' has " +
              std::to_string(Digits.size() * BitsPerDigit) +
              " bits, the script width is " + std::to_string(Ctx.width());
      return nullptr;
    }
    if (!readDigits(Digits, Base, V)) {
      Error = "malformed literal '" + Atom + "'";
      return nullptr;
    }
    return Ctx.getConst(V);
  }

  /// A leaf term: a declared constant (variable), a #b/#x literal or a
  /// plain decimal numeral.
  const Expr *atom(const std::string &Atom) {
    if (std::isdigit((unsigned char)Atom[0])) {
      uint64_t V;
      if (!readDigits(Atom, 10, V)) {
        Error = "malformed numeral '" + Atom + "'";
        return nullptr;
      }
      return literal(Atom, V);
    }
    if (Atom[0] == '#')
      return bitLiteral(Atom);
    if (!Declared.count(Atom)) {
      Error = "undeclared symbol '" + Atom + "'";
      return nullptr;
    }
    return Ctx.getVar(Atom);
  }

  /// A (_ bvN w) literal.
  const Expr *bvLiteral(const SExpr &S) {
    const std::string &Value = S.Items[1].Atom;
    uint64_t V, W;
    if (!readDigits(std::string_view(Value).substr(2), 10, V) ||
        !readDigits(S.Items[2].Atom, 10, W)) {
      Error = "malformed literal (_ " + Value + " " + S.Items[2].Atom + ")";
      return nullptr;
    }
    if (W != Ctx.width()) {
      Error = "literal (_ " + Value + " " + S.Items[2].Atom +
              ") does not have the script width " +
              std::to_string(Ctx.width());
      return nullptr;
    }
    return literal(Value, V);
  }

  /// The operator of application \p S, checked against its operand count.
  std::optional<ExprKind> application(const SExpr &S) {
    if (S.Items.empty() || !S.Items[0].isAtom()) {
      Error = "malformed term";
      return std::nullopt;
    }
    static const std::pair<const char *, ExprKind> Ops[] = {
        {"bvnot", ExprKind::Not}, {"bvneg", ExprKind::Neg},
        {"bvadd", ExprKind::Add}, {"bvsub", ExprKind::Sub},
        {"bvmul", ExprKind::Mul}, {"bvand", ExprKind::And},
        {"bvor", ExprKind::Or},   {"bvxor", ExprKind::Xor}};
    const std::string &Op = S.Items[0].Atom;
    for (auto [Name, K] : Ops) {
      if (Op != Name)
        continue;
      if (isUnaryKind(K) && S.Items.size() != 2) {
        Error = Op + " expects one operand";
        return std::nullopt;
      }
      if (!isUnaryKind(K) && S.Items.size() < 3) {
        Error = Op + " expects at least two operands";
        return std::nullopt;
      }
      return K;
    }
    Error = "unsupported operator '" + Op + "'";
    return std::nullopt;
  }

  /// The term \p Root denotes, or null with a diagnostic. Operands are
  /// read left to right over an explicit stack, so the depth a term may
  /// nest to is the s-expression reader's cap, not the call stack's.
  const Expr *read(const SExpr &Root) {
    struct Frame {
      const SExpr *S;
      ExprKind Kind;
      size_t Next;       ///< index of the next operand in S->Items
      const Expr *Acc;   ///< operands folded so far
    };
    std::vector<Frame> Stack;
    // Reads leaf \p S into Leaf, or pushes the frame of application S and
    // clears Leaf. False on error.
    const Expr *Leaf = nullptr;
    auto Enter = [&](const SExpr &S) {
      Leaf = nullptr;
      if (S.isAtom())
        return (Leaf = atom(S.Atom)) != nullptr;
      if (S.Items.size() == 3 && S.Items[0].Atom == "_" &&
          S.Items[1].Atom.rfind("bv", 0) == 0)
        return (Leaf = bvLiteral(S)) != nullptr;
      std::optional<ExprKind> K = application(S);
      if (K)
        Stack.push_back({&S, *K, 1, nullptr});
      return K.has_value();
    };
    if (!Enter(Root))
      return nullptr;
    while (!Stack.empty()) {
      Frame &F = Stack.back();
      if (F.Next != F.S->Items.size()) {
        if (!Enter(F.S->Items[F.Next]))
          return nullptr;
        if (!Leaf)
          continue; // the operand's frame is on top
      } else {
        Leaf = F.Acc;
        Stack.pop_back();
        if (Stack.empty())
          break;
      }
      // Fold Leaf into the innermost open application. SMT-LIB bv
      // operators are left-associative n-ary; fold pairwise.
      Frame &G = Stack.back();
      if (isUnaryKind(G.Kind))
        G.Acc = Ctx.getUnary(G.Kind, Leaf);
      else
        G.Acc = G.Acc ? Ctx.getBinary(G.Kind, G.Acc, Leaf) : Leaf;
      ++G.Next;
    }
    return Leaf;
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
  TermReader Reader{Ctx, Err, {}};

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
          Sort->Items[0].Atom != "_" || Sort->Items[1].Atom != "BitVec")
        return Fail("unsupported declaration (expect (_ BitVec w))");
      uint64_t W;
      if (!readDigits(Sort->Items[2].Atom, 10, W))
        return Fail("malformed bit-vector width '" + Sort->Items[2].Atom +
                    "'");
      if (Query.Width && Query.Width != W)
        return Fail("mixed bit-vector widths are not supported");
      if (W != Ctx.width())
        return Fail("script width " + std::to_string(W) +
                    " does not match context width " +
                    std::to_string(Ctx.width()));
      Query.Width = (unsigned)W;
      const std::string &Name = S.Items[1].Atom;
      if (!isSimpleSymbol(Name))
        return Fail("unsupported symbol name '" + Name + "'");
      Reader.Declared.insert(Name);
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
