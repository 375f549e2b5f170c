//===- ir/Program.h - Multi-block SSA program IR ----------------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small SSA program IR: functions made of basic blocks with phi nodes,
/// straight-line MBA instructions, and branches on MBA-expressible
/// conditions. This is the representation a lifter hands to the MBA
/// deobfuscation pipeline (ir/Passes.h). A straight-line trace is the
/// degenerate single-block case and lowers into it (parseTrace).
///
/// Textual grammar (one construct per line, '#' comments, flexible
/// whitespace):
///
///   program  := function*
///   function := 'func' '@' IDENT '(' [IDENT (',' IDENT)*] ')' '{'
///               block+ '}'
///   block    := IDENT ':' phi* inst* term
///   phi      := IDENT '=' 'phi' '[' IDENT ':' value ']'
///                            (',' '[' IDENT ':' value ']')*
///   inst     := IDENT '=' expr            # expr from ast/Parser.h
///   term     := 'jmp' IDENT
///             | 'br' expr ',' IDENT ',' IDENT   # taken iff expr != 0
///             | 'ret' expr
///   value    := IDENT | NUMBER | '-' NUMBER
///
/// SSA discipline: every name is defined at most once per function; every
/// use must be dominated by its definition; a block's phi incoming labels
/// must be exactly its CFG predecessors. Violations are parse/verify
/// errors with line/column diagnostics (see Diag).
///
//===----------------------------------------------------------------------===//

#ifndef MBA_IR_PROGRAM_H
#define MBA_IR_PROGRAM_H

#include "ast/Context.h"
#include "ast/Expr.h"

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mba {

/// 1-based position of a construct (or error) in the IR source text.
/// Programs built programmatically carry the default {0, 0}.
struct SourceLoc {
  unsigned Line = 0;
  unsigned Col = 0;
};

/// One parse/verify diagnostic: position, the offending token, and a
/// human-readable message.
struct Diag {
  unsigned Line = 0;
  unsigned Col = 0;
  std::string Token;   ///< offending token (may be empty)
  std::string Message; ///< human-readable description

  /// "line L, col C: message (near 'token')".
  std::string str() const;
};

/// One phi node: Dest takes the incoming value matching the predecessor
/// the block was entered from. Incoming values are variables or constants.
/// All phis of a block are evaluated in parallel before its instructions.
struct PhiNode {
  const Expr *Dest = nullptr; ///< always a Var node
  /// (predecessor block id, incoming value) pairs.
  std::vector<std::pair<unsigned, const Expr *>> Incoming;
  SourceLoc Loc;

  /// The value flowing in from block \p Pred, or null if absent.
  const Expr *incomingFor(unsigned Pred) const {
    for (const auto &[B, V] : Incoming)
      if (B == Pred)
        return V;
    return nullptr;
  }
};

/// One assignment: Dest (a Var node) takes the value of Rhs.
struct IRInst {
  const Expr *Dest = nullptr; ///< always a Var node
  const Expr *Rhs = nullptr;
  SourceLoc Loc;
};

/// Block terminator kinds.
enum class TermKind : uint8_t {
  Jump,   ///< unconditional jump to Succs[0]
  Branch, ///< to Succs[0] iff Cond != 0, else Succs[1]
  Ret     ///< return Value from the function
};

/// A block's terminator. Successors are block ids within the function.
struct Terminator {
  TermKind Kind = TermKind::Ret;
  const Expr *Cond = nullptr;  ///< Branch only
  unsigned Succs[2] = {0, 0};  ///< Jump: [0]; Branch: [0]=taken, [1]=not
  const Expr *Value = nullptr; ///< Ret only
  SourceLoc Loc;

  unsigned numSuccessors() const {
    return Kind == TermKind::Ret ? 0 : (Kind == TermKind::Jump ? 1 : 2);
  }
};

/// One basic block: phis, then straight-line instructions, then the
/// terminator. Identified inside its function by index (id) and by name.
struct BasicBlock {
  std::string Name;
  std::vector<PhiNode> Phis;
  std::vector<IRInst> Insts;
  Terminator Term;
};

/// One function: named parameters (the SSA inputs) and basic blocks;
/// Blocks[0] is the entry.
struct Function {
  std::string Name;
  std::vector<const Expr *> Params; ///< Var nodes
  std::vector<BasicBlock> Blocks;

  BasicBlock &entry() { return Blocks.front(); }
  const BasicBlock &entry() const { return Blocks.front(); }
  unsigned numBlocks() const { return (unsigned)Blocks.size(); }

  /// Block id of \p Name, or -1.
  int findBlock(std::string_view Name) const;
};

/// A parsed (or constructed) program: an ordered list of functions.
struct Program {
  std::vector<Function> Functions;

  /// Parses the textual IR into \p Ctx, running full SSA verification
  /// (verifyFunction) on every function. On failure returns nullopt and
  /// fills \p D when given.
  static std::optional<Program> parse(Context &Ctx, std::string_view Text,
                                      Diag *D = nullptr);

  /// Renders the program back to parseable text (the canonical form:
  /// parse(print(P)) reproduces print(P) exactly).
  std::string print(const Context &Ctx) const;

  Function *findFunction(std::string_view Name);
  const Function *findFunction(std::string_view Name) const;
};

/// Lowers a straight-line trace to one single-block function per name in
/// \p Roots. A trace is the form a lifter hands over for one obfuscated
/// basic block:
///
///   t1 = (x | y) + (x & y)     # '#' comments, one assignment per line
///   out = t1 - y
///
/// Names never assigned are the trace's inputs. Each function is named
/// after its root, takes the inputs in name order as parameters, runs the
/// whole trace and ends in 'ret <root>'. Lines are parsed as IR
/// instructions and every function is verified (verifyFunction), so
/// redefinition, self-use and use-before-def are reported like any SSA
/// violation, numbered by the trace's own lines. Everything downstream —
/// interpretFunction, flattenValue, the ir/Passes.h pipeline, printing —
/// is the program IR's.
std::optional<Program> parseTrace(Context &Ctx, std::string_view Text,
                                  const std::vector<std::string> &Roots,
                                  Diag *D = nullptr);

/// Renders one function in the textual grammar.
std::string printFunction(const Context &Ctx, const Function &F);

/// Executes \p F on \p Args (indexed like F.Params; missing values are 0).
/// Returns the 'ret' value, or nullopt when \p MaxSteps block transfers
/// did not reach a 'ret' (runaway loop guard).
std::optional<uint64_t> interpretFunction(const Context &Ctx,
                                          const Function &F,
                                          std::span<const uint64_t> Args,
                                          size_t MaxSteps = 1 << 16);

/// Total expression-node volume of a function: DAG nodes of every
/// instruction rhs, branch condition and return value, plus one per phi
/// incoming. The node-count metric of the deobfuscation report.
size_t countFunctionNodes(const Function &F);

/// Number of phis + instructions across all blocks.
size_t countFunctionInsts(const Function &F);

} // namespace mba

#endif // MBA_IR_PROGRAM_H
