//===- ast/Parser.cpp - Text parser for MBA expressions ---------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ast/Parser.h"

#include "support/Telemetry.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace mba;

namespace {

/// Deepest nesting of parentheses and prefix operators parseExpr accepts.
/// The descent recurses once per level (seven frames per parenthesis), so
/// without a cap a deeply nested input overflows the stack. Generated and
/// published MBA expressions nest a few dozen levels.
constexpr unsigned MaxNestingDepth = 2048;

class ParserImpl {
public:
  ParserImpl(Context &Ctx, std::string_view Text) : Ctx(Ctx), Text(Text) {}

  ParseResult run() {
    const Expr *E = parseOr();
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
    while (Pos < Text.size() && std::isspace((unsigned char)Text[Pos]))
      ++Pos;
  }

  bool peekIs(char C) {
    skipSpace();
    return Pos < Text.size() && Text[Pos] == C;
  }

  bool consume(char C) {
    if (!peekIs(C))
      return false;
    ++Pos;
    return true;
  }

  // expr := xor ('|' xor)*
  const Expr *parseOr() {
    const Expr *L = parseXor();
    if (!L)
      return nullptr;
    while (consume('|')) {
      const Expr *R = parseXor();
      if (!R)
        return nullptr;
      L = Ctx.getOr(L, R);
    }
    return L;
  }

  // xor := and ('^' and)*
  const Expr *parseXor() {
    const Expr *L = parseAnd();
    if (!L)
      return nullptr;
    while (consume('^')) {
      const Expr *R = parseAnd();
      if (!R)
        return nullptr;
      L = Ctx.getXor(L, R);
    }
    return L;
  }

  // and := sum ('&' sum)*
  const Expr *parseAnd() {
    const Expr *L = parseSum();
    if (!L)
      return nullptr;
    while (consume('&')) {
      const Expr *R = parseSum();
      if (!R)
        return nullptr;
      L = Ctx.getAnd(L, R);
    }
    return L;
  }

  // sum := product (('+' | '-') product)*
  const Expr *parseSum() {
    const Expr *L = parseProduct();
    if (!L)
      return nullptr;
    for (;;) {
      if (consume('+')) {
        const Expr *R = parseProduct();
        if (!R)
          return nullptr;
        L = Ctx.getAdd(L, R);
      } else if (consume('-')) {
        const Expr *R = parseProduct();
        if (!R)
          return nullptr;
        L = Ctx.getSub(L, R);
      } else {
        return L;
      }
    }
  }

  // product := unary ('*' unary)*
  const Expr *parseProduct() {
    const Expr *L = parseUnary();
    if (!L)
      return nullptr;
    while (consume('*')) {
      const Expr *R = parseUnary();
      if (!R)
        return nullptr;
      L = Ctx.getMul(L, R);
    }
    return L;
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
      const Expr *E = parseOr();
      if (!E)
        return nullptr;
      if (!consume(')')) {
        fail("expected ')'");
        return nullptr;
      }
      return E;
    }
    if (std::isdigit((unsigned char)C))
      return parseNumber();
    if (std::isalpha((unsigned char)C) || C == '_')
      return parseIdent();
    fail(std::string("unexpected character '") + C + "'");
    return nullptr;
  }

  const Expr *parseNumber() {
    size_t Start = Pos;
    int Base = 10;
    if (Text.size() - Pos > 2 && Text[Pos] == '0' &&
        (Text[Pos + 1] == 'x' || Text[Pos + 1] == 'X')) {
      Base = 16;
      Pos += 2;
      Start = Pos;
      if (Pos >= Text.size() || !std::isxdigit((unsigned char)Text[Pos])) {
        fail("expected hex digits after 0x");
        return nullptr;
      }
    }
    uint64_t Value = 0;
    bool Overflow = false;
    while (Pos < Text.size()) {
      char D = Text[Pos];
      int Digit;
      if (D >= '0' && D <= '9')
        Digit = D - '0';
      else if (Base == 16 && D >= 'a' && D <= 'f')
        Digit = D - 'a' + 10;
      else if (Base == 16 && D >= 'A' && D <= 'F')
        Digit = D - 'A' + 10;
      else
        break;
      uint64_t Next = Value * Base + Digit;
      if (Next / Base != Value || Next % Base != (uint64_t)Digit)
        Overflow = true; // wraps mod 2^64; still accepted, then truncated
      Value = Next;
      ++Pos;
    }
    (void)Start;
    (void)Overflow; // constants are defined modulo 2^w; wraparound is fine
    return Ctx.getConst(Value);
  }

  const Expr *parseIdent() {
    size_t Start = Pos;
    while (Pos < Text.size() &&
           (std::isalnum((unsigned char)Text[Pos]) || Text[Pos] == '_'))
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
