//===- mba_solver.h - Umbrella header for the MBA-Solver library -*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience umbrella for downstream users: one include pulls in the
/// public surface of the library. Individual headers remain the preferred
/// include for translation units that only need one subsystem.
///
/// \code
///   #include "mba_solver.h"
///
///   mba::Context Ctx(64);
///   const mba::Expr *E = mba::parseOrDie(Ctx, "(x&~y)+y");
///   mba::Pipeline P(Ctx, mba::PipelineConfig()); // the shipped path
///   std::string S = mba::printExpr(Ctx, P.simplify(E)); // "x|y"
///   mba::Verdict V = P.check(E, P.simplify(E)).Outcome; // Equivalent
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef MBA_MBA_SOLVER_H
#define MBA_MBA_SOLVER_H

// Expressions: construction, parsing, printing, evaluation, visualization.
#include "ast/BitslicedEval.h"
#include "ast/Context.h"
#include "ast/DotPrinter.h"
#include "ast/Evaluator.h"
#include "ast/Expr.h"
#include "ast/ExprUtils.h"
#include "ast/Parser.h"
#include "ast/Printer.h"

// Soundness checking: IR verifier and abstract domains.
#include "analysis/AbstractInterp.h"
#include "analysis/KnownBits.h"
#include "analysis/Verifier.h"

// Static equivalence proving: e-graph, certified rules, saturation prover.
#include "analysis/EGraph.h"
#include "analysis/Prover.h"
#include "analysis/Rules.h"

// The MBA theory core: classification, metrics, signatures, simplification.
#include "mba/Basis.h"
#include "mba/BooleanMin.h"
#include "mba/Classify.h"
#include "mba/Metrics.h"
#include "mba/Signature.h"
#include "mba/Simplifier.h"

// Obfuscation / dataset generation.
#include "gen/Corpus.h"
#include "gen/EncodeArithmetic.h"
#include "gen/Obfuscator.h"
#include "gen/SeedIdentities.h"

// Equivalence checking: the configurable pipeline, its backends, and
// SMT-LIB interop.
#include "solvers/EquivalenceChecker.h"
#include "solvers/Pipeline.h"
#include "solvers/SmtLib.h"
#include "solvers/SmtLibParser.h"

// The program IR (multi-block SSA; straight-line traces lower into it).
#include "ir/Program.h"

// Bulk-evaluation kernels and the worker pool behind parallel studies.
#include "support/Bitslice.h"
#include "support/ThreadPool.h"

#endif // MBA_MBA_SOLVER_H
