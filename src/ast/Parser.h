//===- ast/Parser.h - Text parser for MBA expressions -----------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for the surface syntax used by the paper and by
/// the public MBA datasets (Python/C operator precedence):
///
///   expr    := xor ('|' xor)*
///   xor     := and ('^' and)*
///   and     := sum ('&' sum)*
///   sum     := product (('+' | '-') product)*
///   product := unary ('*' unary)*
///   unary   := ('-' | '~')* primary
///   primary := NUMBER | IDENT | '(' expr ')'
///
/// NUMBER is a decimal or 0x-prefixed hexadecimal literal; IDENT is
/// [A-Za-z_][A-Za-z0-9_]*. Note that, as in Python and C, '&', '^' and '|'
/// bind *looser* than '+' and '*', so `x&y + 2` parses as `x & (y + 2)`.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_AST_PARSER_H
#define MBA_AST_PARSER_H

#include "ast/Context.h"
#include "ast/Expr.h"

#include <string>
#include <string_view>

namespace mba {

/// Result of a parse: either an expression, or an error message with the
/// offset of the offending character.
struct ParseResult {
  const Expr *E = nullptr;   ///< Parsed expression; null on error.
  std::string Error;         ///< Human-readable diagnostic; empty on success.
  size_t ErrorPos = 0;       ///< Byte offset of the error in the input.

  bool ok() const { return E != nullptr; }
};

/// Parses \p Text into an expression over \p Ctx. Variables are created in
/// the context on first mention. Input nested more than 2048 levels deep
/// (parentheses and prefix operators together) is rejected with a
/// diagnostic instead of exhausting the stack.
ParseResult parseExpr(Context &Ctx, std::string_view Text);

/// Parses \p Text and aborts with a diagnostic on failure. For tests and
/// internal tables whose inputs are known-valid.
const Expr *parseOrDie(Context &Ctx, std::string_view Text);

} // namespace mba

#endif // MBA_AST_PARSER_H
