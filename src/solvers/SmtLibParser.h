//===- solvers/SmtLibParser.h - SMT-LIB2 benchmark reader ------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reader for the QF_BV SMT-LIB2 subset that MBA equivalence benchmarks
/// use (and that toSmtLibQuery emits): bit-vector constant declarations,
/// the operators bvadd/bvsub/bvmul/bvand/bvor/bvxor/bvnot/bvneg, `(_ bvN
/// w)`, `#b`, `#x` and decimal literals, and one asserted (dis)equality.
/// This allows external MBA datasets shipped as .smt2 files to be pulled
/// into the library. Scripts come from outside the program, so anything
/// else is rejected rather than guessed at: undeclared symbols, literals
/// whose width is not the script's, and values that do not fit it.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_SOLVERS_SMTLIBPARSER_H
#define MBA_SOLVERS_SMTLIBPARSER_H

#include "ast/Context.h"
#include "ast/Expr.h"

#include <optional>
#include <string>
#include <string_view>

namespace mba {

/// A parsed equivalence benchmark.
struct SmtLibQuery {
  const Expr *Lhs = nullptr;
  const Expr *Rhs = nullptr;
  unsigned Width = 0;    ///< declared bit-vector width
  bool IsDistinct = true; ///< assert(distinct L R) vs assert(= L R)
};

/// Parses \p Script into \p Ctx. The context's width must equal the
/// script's declared width (diagnosed otherwise). Returns std::nullopt and
/// fills \p Error on malformed input or unsupported constructs.
std::optional<SmtLibQuery> parseSmtLibQuery(Context &Ctx,
                                            std::string_view Script,
                                            std::string *Error = nullptr);

} // namespace mba

#endif // MBA_SOLVERS_SMTLIBPARSER_H
