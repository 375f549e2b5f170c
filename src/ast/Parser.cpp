//===- ast/Parser.cpp - Text parser for MBA expressions ---------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ast/Parser.h"

#include "support/Telemetry.h"

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace mba;

namespace {

/// Deepest nesting of parentheses and prefix operators parseExpr accepts.
/// The parser recurses once per level (at most nine frames per parenthesis:
/// parseUnary, its body and parsePrimary, plus one parseBinary frame and one
/// more per rise in operator precedence), so without a cap a deeply nested
/// input overflows the stack. Generated and published MBA expressions nest
/// a few dozen levels.
constexpr unsigned MaxNestingDepth = 2048;

/// Byte classes of the grammar, as the C locale's <cctype> has them.
enum ByteClass : uint8_t {
  Space = 1,     ///< isspace: ' ' and \t \n \v \f \r
  Digit = 2,     ///< 0-9
  Alpha = 4,     ///< A-Z a-z _ (the first byte of an identifier)
  HexLetter = 8, ///< a-f A-F
};

constexpr std::array<uint8_t, 256> makeByteClasses() {
  std::array<uint8_t, 256> T{};
  for (char C : {' ', '\t', '\n', '\v', '\f', '\r'})
    T[(unsigned char)C] = Space;
  for (int C = '0'; C <= '9'; ++C)
    T[C] = Digit;
  for (int C = 'a'; C <= 'z'; ++C)
    T[C] = T[C - 'a' + 'A'] = Alpha | (C <= 'f' ? HexLetter : 0);
  T['_'] = Alpha;
  return T;
}

constexpr std::array<uint8_t, 256> ByteClasses = makeByteClasses();

bool is(char C, uint8_t Class) {
  return ByteClasses[(unsigned char)C] & Class;
}

/// Binding strength of a binary operator byte, 0 for any other byte.
/// Python/C order: '|' < '^' < '&' < '+' '-' < '*'.
constexpr std::array<uint8_t, 256> makeBinaryPrecedence() {
  std::array<uint8_t, 256> T{};
  T['|'] = 1;
  T['^'] = 2;
  T['&'] = 3;
  T['+'] = T['-'] = 4;
  T['*'] = 5;
  return T;
}

constexpr std::array<uint8_t, 256> BinaryPrecedence = makeBinaryPrecedence();

class ParserImpl {
public:
  ParserImpl(Context &Ctx, std::string_view Text) : Ctx(Ctx), Text(Text) {}

  ParseResult run() {
    const Expr *E = parseBinary();
    if (!E)
      return makeError();
    skipSpace();
    if (Pos != Text.size()) {
      fail("unexpected trailing input");
      return makeError();
    }
    ParseResult R;
    R.E = E;
    return R;
  }

private:
  ParseResult makeError() {
    ParseResult R;
    R.Error = ErrorMsg;
    R.ErrorPos = ErrorPos;
    return R;
  }

  void fail(const std::string &Msg) {
    if (ErrorMsg.empty()) {
      ErrorMsg = Msg;
      ErrorPos = Pos;
    }
  }

  void skipSpace() {
    while (Pos < Text.size() && is(Text[Pos], Space))
      ++Pos;
  }

  bool consume(char C) {
    skipSpace();
    if (Pos == Text.size() || Text[Pos] != C)
      return false;
    ++Pos;
    return true;
  }

  const Expr *combine(char Op, const Expr *L, const Expr *R) {
    switch (Op) {
    case '|':
      return Ctx.getOr(L, R);
    case '^':
      return Ctx.getXor(L, R);
    case '&':
      return Ctx.getAnd(L, R);
    case '+':
      return Ctx.getAdd(L, R);
    case '-':
      return Ctx.getSub(L, R);
    default:
      return Ctx.getMul(L, R);
    }
  }

  // expr := unary (binop unary)*, every binop left-associative.
  //
  // Precedence climbing: parses operands joined by operators that bind at
  // least as tightly as \p MinPrec, and recurses only where precedence
  // rises. Nodes are built in the order the recursive grammar (expr > xor >
  // and > sum > product > unary) would build them.
  const Expr *parseBinary(uint8_t MinPrec = 1) {
    const Expr *L = parseUnary();
    if (!L)
      return nullptr;
    for (;;) {
      skipSpace();
      char Op = Pos < Text.size() ? Text[Pos] : 0;
      uint8_t Prec = BinaryPrecedence[(unsigned char)Op];
      if (Prec < MinPrec) // also the end of the expression: Prec is 0
        return L;
      ++Pos;
      const Expr *R = parseBinary(Prec + 1);
      if (!R)
        return nullptr;
      L = combine(Op, L, R);
    }
  }

  // unary := ('-' | '~')* primary
  //
  // Every level of nesting — a prefix operator or a parenthesis, which
  // re-enters here through parsePrimary — passes through this function, so
  // the depth check lives here.
  const Expr *parseUnary() {
    if (Depth == MaxNestingDepth) {
      fail("nesting deeper than " + std::to_string(MaxNestingDepth) +
           " levels");
      return nullptr;
    }
    ++Depth;
    const Expr *E = parseUnaryBody();
    --Depth;
    return E;
  }

  const Expr *parseUnaryBody() {
    if (consume('-')) {
      const Expr *A = parseUnary();
      if (!A)
        return nullptr;
      // Fold -<const> directly so "-1" parses to the all-ones constant
      // rather than Neg(Const 1); the two are equal but the constant form
      // is what the paper's tables use.
      if (A->isConst())
        return Ctx.getConst(0 - A->constValue());
      return Ctx.getNeg(A);
    }
    if (consume('~')) {
      const Expr *A = parseUnary();
      if (!A)
        return nullptr;
      if (A->isConst())
        return Ctx.getConst(~A->constValue());
      return Ctx.getNot(A);
    }
    return parsePrimary();
  }

  // primary := NUMBER | IDENT | '(' expr ')'
  const Expr *parsePrimary() {
    skipSpace();
    if (Pos >= Text.size()) {
      fail("unexpected end of input");
      return nullptr;
    }
    char C = Text[Pos];
    if (C == '(') {
      ++Pos;
      const Expr *E = parseBinary();
      if (!E)
        return nullptr;
      if (!consume(')')) {
        fail("expected ')'");
        return nullptr;
      }
      return E;
    }
    if (is(C, Digit))
      return parseNumber();
    if (is(C, Alpha))
      return parseIdent();
    fail(std::string("unexpected character '") + C + "'");
    return nullptr;
  }

  const Expr *parseNumber() {
    unsigned Base = 10;
    if (Text.size() - Pos > 2 && Text[Pos] == '0' &&
        (Text[Pos + 1] == 'x' || Text[Pos + 1] == 'X')) {
      Base = 16;
      Pos += 2;
      if (!is(Text[Pos], Digit | HexLetter)) {
        fail("expected hex digits after 0x");
        return nullptr;
      }
    }
    // Constants are defined modulo 2^w: a literal past 64 bits wraps and
    // the context truncates it to the width.
    uint64_t Value = 0;
    for (; Pos < Text.size(); ++Pos) {
      char D = Text[Pos];
      unsigned V;
      if (is(D, Digit))
        V = D - '0';
      else if (Base == 16 && is(D, HexLetter))
        V = (D | 0x20) - 'a' + 10;
      else
        break;
      Value = Value * Base + V;
    }
    return Ctx.getConst(Value);
  }

  const Expr *parseIdent() {
    size_t Start = Pos;
    while (Pos < Text.size() && is(Text[Pos], Alpha | Digit))
      ++Pos;
    return Ctx.getVar(Text.substr(Start, Pos - Start));
  }

  Context &Ctx;
  std::string_view Text;
  size_t Pos = 0;
  unsigned Depth = 0; ///< parseUnary frames currently active
  std::string ErrorMsg;
  size_t ErrorPos = 0;
};

} // namespace

ParseResult mba::parseExpr(Context &Ctx, std::string_view Text) {
  MBA_TRACE_SPAN("ast.parse");
  static telemetry::Counter &Parses = telemetry::counter("ast.parses");
  Parses.add();
  return ParserImpl(Ctx, Text).run();
}

const Expr *mba::parseOrDie(Context &Ctx, std::string_view Text) {
  ParseResult R = parseExpr(Ctx, Text);
  if (!R.ok()) {
    std::fprintf(stderr, "parse error at offset %zu: %s\nin: %.*s\n",
                 R.ErrorPos, R.Error.c_str(), (int)Text.size(), Text.data());
    std::abort();
  }
  return R.E;
}
