//===- tools/mba-tidy/Checks.h - Repo-specific lint checks ------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mba-tidy check framework: a Diagnostic record, an abstract Check,
/// and the registry of all repo-specific checks. Checks are token-level
/// matchers over a lexed SourceFile (see Lexer.h); each one encodes an
/// invariant of this codebase that the compiler cannot express:
///
///   mba-cross-context-expr      Expr* interned in one Context passed into
///                               another Context's API without cloneExpr.
///   mba-context-captured-by-pool  A Context captured into a
///                               ThreadPool::parallelFor worker lambda
///                               instead of per-worker Context instances.
///   mba-unnamed-raii            Discarded RAII temporaries (MutexLock,
///                               SpanGuard, std::lock_guard, ...) that
///                               release their resource immediately.
///   mba-isa-outside-seam        Raw SIMD intrinsics, vector types, or
///                               CPU-feature macros outside the
///                               src/support/Bitslice* dispatch seam.
///   mba-raw-pointer-in-cache-key  Pointer values folded into 64-bit
///                               semantic cache keys, which breaks
///                               cross-process snapshot persistence.
///   mba-sat-solver-in-loop      Fresh SatSolver constructed inside a
///                               loop in src/solvers instead of once per
///                               query in the function that answers it.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_TOOLS_MBATIDY_CHECKS_H
#define MBA_TOOLS_MBATIDY_CHECKS_H

#include "Lexer.h"

#include <memory>

namespace mba::tidy {

struct Diagnostic {
  std::string File;
  unsigned Line = 0;
  unsigned Col = 0;
  std::string Message;
  std::string CheckName;
};

class Check {
public:
  virtual ~Check() = default;
  virtual std::string_view name() const = 0;
  virtual std::string_view description() const = 0;
  /// Appends findings for \p SF to \p Out. NOLINT filtering happens in
  /// runChecks, not here.
  virtual void run(const SourceFile &SF, std::vector<Diagnostic> &Out) const = 0;
};

/// Instantiates every registered check, in stable (alphabetical) order.
std::vector<std::unique_ptr<Check>> createAllChecks();

/// Runs each check in \p Checks whose name is in \p Enabled (empty set =
/// run all) over \p SF and returns the findings that survive the file's
/// NOLINT suppressions, sorted by (line, col).
std::vector<Diagnostic>
runChecks(const SourceFile &SF,
          const std::vector<std::unique_ptr<Check>> &Checks,
          const std::set<std::string> &Enabled = {});

} // namespace mba::tidy

#endif // MBA_TOOLS_MBATIDY_CHECKS_H
