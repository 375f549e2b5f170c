//===- ir/Program.cpp - Multi-block SSA program IR --------------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Program.h"

#include "ast/Evaluator.h"
#include "ast/ExprUtils.h"
#include "ast/Parser.h"
#include "ast/Printer.h"
#include "ir/Dataflow.h"
#include "support/QueryLog.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

using namespace mba;

std::string Diag::str() const {
  std::string S = "line " + std::to_string(Line) + ", col " +
                  std::to_string(Col) + ": " + Message;
  if (!Token.empty())
    S += " (near '" + Token + "')";
  return S;
}

int Function::findBlock(std::string_view Name) const {
  for (unsigned I = 0; I != Blocks.size(); ++I)
    if (Blocks[I].Name == Name)
      return (int)I;
  return -1;
}

Function *Program::findFunction(std::string_view Name) {
  for (Function &F : Functions)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

const Function *Program::findFunction(std::string_view Name) const {
  return const_cast<Program *>(this)->findFunction(Name);
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

/// Cursor over one source line with 1-based column tracking.
struct LineCursor {
  std::string_view Text; ///< the line, comment already stripped
  size_t Pos = 0;        ///< 0-based offset
  unsigned LineNo = 0;

  /// 1-based column of the next token (leading whitespace skipped), so
  /// diagnostics point at the token itself.
  unsigned col() {
    skipWs();
    return (unsigned)Pos + 1;
  }

  void skipWs() {
    while (Pos < Text.size() && std::isspace((unsigned char)Text[Pos]))
      ++Pos;
  }

  bool atEnd() {
    skipWs();
    return Pos >= Text.size();
  }

  char peek() {
    skipWs();
    return Pos < Text.size() ? Text[Pos] : '\0';
  }

  bool consume(char C) {
    if (peek() != C)
      return false;
    ++Pos;
    return true;
  }

  /// The token starting at the cursor: an identifier/number run or one
  /// punctuation character. Empty at end of line.
  std::string peekToken() {
    skipWs();
    if (Pos >= Text.size())
      return "";
    size_t E = Pos;
    if (std::isalnum((unsigned char)Text[E]) || Text[E] == '_') {
      while (E < Text.size() &&
             (std::isalnum((unsigned char)Text[E]) || Text[E] == '_'))
        ++E;
    } else {
      ++E;
    }
    return std::string(Text.substr(Pos, E - Pos));
  }

  /// Consumes and returns an identifier, or "" if none starts here.
  std::string ident() {
    skipWs();
    if (Pos >= Text.size())
      return "";
    char C = Text[Pos];
    if (!std::isalpha((unsigned char)C) && C != '_')
      return "";
    size_t E = Pos;
    while (E < Text.size() &&
           (std::isalnum((unsigned char)Text[E]) || Text[E] == '_'))
      ++E;
    std::string S(Text.substr(Pos, E - Pos));
    Pos = E;
    return S;
  }

  std::string_view rest() {
    skipWs();
    return Text.substr(Pos);
  }
};

/// Splits \p Text into comment-stripped lines; every construct of the IR
/// (and of a trace) is line-oriented.
std::vector<std::string_view> splitLines(std::string_view Text) {
  std::vector<std::string_view> Lines;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string_view::npos)
      End = Text.size();
    std::string_view L = Text.substr(Pos, End - Pos);
    size_t Hash = L.find('#');
    if (Hash != std::string_view::npos)
      L = L.substr(0, Hash);
    Lines.push_back(L);
    if (End == Text.size())
      break;
    Pos = End + 1;
  }
  return Lines;
}

struct ProgramParser {
  Context &Ctx;
  Diag *D;
  Program P;

  Function *F = nullptr;    ///< currently open function
  BasicBlock *BB = nullptr; ///< currently open block
  // Pending label fixups: phi/terminator labels resolved per function.
  // Targets are addressed by indices, never pointers — F->Blocks (and a
  // block's Phis) reallocate while the function is still being parsed.
  struct LabelRef {
    std::string Name;
    unsigned Line, Col;
    unsigned Block; ///< index into F->Blocks
    int Phi;        ///< phi index within the block, or -1 for terminator
    unsigned Slot;  ///< Succs index (terminator) or incoming index (phi)
  };
  std::vector<LabelRef> Refs;
  std::unordered_map<const Expr *, SourceLoc> FnDefs; // per-function

  ProgramParser(Context &Ctx, Diag *D) : Ctx(Ctx), D(D) {}

  bool fail(unsigned Line, unsigned Col, std::string Token,
            std::string Message) {
    if (D)
      *D = Diag{Line, Col, std::move(Token), std::move(Message)};
    return false;
  }

  bool fail(LineCursor &C, std::string Message) {
    return fail(C.LineNo, C.col(), C.peekToken(), std::move(Message));
  }

  /// Parses an instruction/branch/ret operand expression from the rest of
  /// the line up to \p Stop (npos = end). Reports ast parser errors with
  /// the error column mapped back into the line.
  const Expr *parseOperand(LineCursor &C, size_t Stop, std::string_view What) {
    C.skipWs();
    size_t Len = (Stop == std::string_view::npos ? C.Text.size() : Stop);
    if (Len < C.Pos)
      Len = C.Pos;
    std::string_view Slice = C.Text.substr(C.Pos, Len - C.Pos);
    if (Slice.empty()) {
      fail(C, "expected " + std::string(What));
      return nullptr;
    }
    ParseResult R = parseExpr(Ctx, Slice);
    if (!R.ok()) {
      size_t ErrPos = C.Pos + std::min(R.ErrorPos, Slice.size());
      LineCursor At = C;
      At.Pos = ErrPos;
      fail(C.LineNo, At.col(), At.peekToken(),
           "bad " + std::string(What) + ": " + R.Error);
      return nullptr;
    }
    C.Pos = Len;
    return R.E;
  }

  /// A phi incoming value: a variable or (possibly negated) constant.
  const Expr *parsePhiValue(LineCursor &C) {
    size_t Close = C.Text.find(']', C.Pos);
    const Expr *V = parseOperand(C, Close, "phi incoming value");
    if (!V)
      return nullptr;
    // The expression parser folds nothing; accept `- literal` shapes too.
    if (V->is(ExprKind::Neg) && V->operand()->isConst())
      V = Ctx.getConst(Ctx.truncate(0 - V->operand()->constValue()));
    if (!V->isVar() && !V->isConst()) {
      fail(C.LineNo, C.col(), "",
           "phi incoming values must be variables or constants");
      return nullptr;
    }
    return V;
  }

  /// 'name = phi [label: value], ...' or 'name = expr' into the open
  /// block — the instruction-line grammar shared by programs and traces.
  bool parseAssignment(LineCursor &C) {
    unsigned LineNo = C.LineNo;
    unsigned DCol = C.col();
    std::string DName = C.ident();
    if (DName.empty())
      return fail(C, "expected 'name = expr', a terminator, or a label");
    if (!C.consume('='))
      return fail(C, "expected '=' after '" + DName + "'");
    const Expr *Dest = Ctx.getVar(DName);
    if (auto It = FnDefs.find(Dest); It != FnDefs.end())
      return fail(LineNo, DCol, DName,
                  "redefinition of '" + DName + "' (first defined at line " +
                      std::to_string(It->second.Line) +
                      "; functions are in SSA form)");
    FnDefs.emplace(Dest, SourceLoc{LineNo, DCol});

    LineCursor Save = C;
    std::string MaybePhi = C.ident();
    if (MaybePhi == "phi" && (C.peek() == '[' || C.atEnd())) {
      if (!BB->Insts.empty())
        return fail(LineNo, DCol, DName,
                    "phi nodes must precede all instructions of the block");
      PhiNode Phi;
      Phi.Dest = Dest;
      Phi.Loc = {LineNo, DCol};
      while (true) {
        if (!C.consume('['))
          return fail(C, "expected '[' to open a phi incoming");
        unsigned LCol = C.col();
        std::string Label = C.ident();
        if (Label.empty())
          return fail(LineNo, LCol, C.peekToken(),
                      "expected a predecessor label in the phi incoming");
        if (!C.consume(':'))
          return fail(C, "expected ':' after the phi predecessor label");
        const Expr *V = parsePhiValue(C);
        if (!V)
          return false;
        if (!C.consume(']'))
          return fail(C, "expected ']' to close the phi incoming");
        Phi.Incoming.emplace_back(0U, V);
        // The phi will be pushed at index BB->Phis.size() below.
        Refs.push_back({Label, LineNo, LCol, F->numBlocks() - 1,
                        (int)BB->Phis.size(),
                        (unsigned)(Phi.Incoming.size() - 1)});
        if (C.consume(','))
          continue;
        if (C.atEnd())
          break;
        return fail(C, "expected ',' or end of line after a phi incoming");
      }
      if (Phi.Incoming.empty())
        return fail(LineNo, DCol, DName, "phi needs at least one incoming");
      BB->Phis.push_back(std::move(Phi));
      return true;
    }
    C = Save;

    const Expr *Rhs = parseOperand(C, std::string_view::npos, "expression");
    if (!Rhs)
      return false;
    BB->Insts.push_back(IRInst{Dest, Rhs, SourceLoc{LineNo, DCol}});
    return true;
  }

  /// A trace: every non-blank line is an instruction of the single block
  /// opened in \p Fn.
  bool parseTraceBody(std::string_view Text, Function &Fn) {
    std::vector<std::string_view> Lines = splitLines(Text);
    F = &Fn;
    BB = &Fn.Blocks.emplace_back();
    BB->Name = "entry";
    for (unsigned LineNo = 1; LineNo <= Lines.size(); ++LineNo) {
      LineCursor C{Lines[LineNo - 1], 0, LineNo};
      if (!C.atEnd() && !parseAssignment(C))
        return false;
    }
    return true;
  }

  bool parse(std::string_view Text) {
    std::vector<std::string_view> Lines = splitLines(Text);
    bool BlockDone = false; // saw the terminator

    auto closeFunction = [&](LineCursor &C) -> bool {
      if (BB && !BlockDone)
        return fail(C.LineNo, 1, "",
                    "block '" + BB->Name +
                        "' has no terminator (jmp/br/ret) before the "
                        "function ends");
      if (F->Blocks.empty())
        return fail(C.LineNo, 1, "",
                    "function '@" + F->Name + "' has no blocks");
      for (LabelRef &R : Refs) {
        int Id = F->findBlock(R.Name);
        if (Id < 0)
          return fail(R.Line, R.Col, R.Name,
                      "unknown block label '" + R.Name + "'");
        BasicBlock &RB = F->Blocks[R.Block];
        if (R.Phi >= 0)
          RB.Phis[R.Phi].Incoming[R.Slot].first = (unsigned)Id;
        else
          RB.Term.Succs[R.Slot] = (unsigned)Id;
      }
      Refs.clear();
      FnDefs.clear();
      F = nullptr;
      BB = nullptr;
      return true;
    };

    for (unsigned LineNo = 1; LineNo <= Lines.size(); ++LineNo) {
      LineCursor C{Lines[LineNo - 1], 0, LineNo};
      if (C.atEnd())
        continue;

      // 'func @name(params) {'
      if (!F) {
        unsigned KwCol = C.col();
        std::string Kw = C.ident();
        if (Kw != "func")
          return fail(LineNo, KwCol, Kw.empty() ? C.peekToken() : Kw,
                      "expected 'func' at top level");
        if (!C.consume('@'))
          return fail(C, "expected '@' before the function name");
        unsigned NameCol = C.col();
        std::string Name = C.ident();
        if (Name.empty())
          return fail(LineNo, NameCol, C.peekToken(),
                      "expected function name after '@'");
        if (!C.consume('('))
          return fail(C, "expected '(' after the function name");
        P.Functions.emplace_back();
        F = &P.Functions.back();
        F->Name = Name;
        if (!C.consume(')')) {
          while (true) {
            unsigned PCol = C.col();
            std::string PName = C.ident();
            if (PName.empty())
              return fail(LineNo, PCol, C.peekToken(),
                          "expected parameter name");
            const Expr *PV = Ctx.getVar(PName);
            if (FnDefs.count(PV))
              return fail(LineNo, PCol, PName,
                          "duplicate parameter '" + PName + "'");
            FnDefs.emplace(PV, SourceLoc{LineNo, PCol});
            F->Params.push_back(PV);
            if (C.consume(','))
              continue;
            if (C.consume(')'))
              break;
            return fail(C, "expected ',' or ')' in the parameter list");
          }
        }
        if (!C.consume('{'))
          return fail(C, "expected '{' to open the function body");
        if (!C.atEnd())
          return fail(C, "unexpected trailing text after '{'");
        BB = nullptr;
        BlockDone = false;
        continue;
      }

      // '}' closes the function.
      if (C.peek() == '}') {
        C.consume('}');
        if (!C.atEnd())
          return fail(C, "unexpected trailing text after '}'");
        if (!closeFunction(C))
          return false;
        continue;
      }

      // 'label:'  — a line consisting of one identifier and ':'.
      {
        LineCursor Save = C;
        unsigned LCol = C.col();
        std::string Label = C.ident();
        if (!Label.empty() && C.consume(':') && C.atEnd()) {
          if (BB && !BlockDone)
            return fail(LineNo, LCol, Label,
                        "block '" + BB->Name +
                            "' has no terminator (jmp/br/ret) before "
                            "label '" + Label + "'");
          if (F->findBlock(Label) >= 0)
            return fail(LineNo, LCol, Label,
                        "duplicate block label '" + Label + "'");
          F->Blocks.emplace_back();
          BB = &F->Blocks.back();
          BB->Name = Label;
          BlockDone = false;
          continue;
        }
        C = Save;
      }

      if (!BB)
        return fail(C, "expected a block label before instructions");
      if (BlockDone)
        return fail(C, "instruction after the block terminator");

      // Terminators.
      {
        LineCursor Save = C;
        unsigned KwCol = C.col();
        std::string Kw = C.ident();
        if (Kw == "jmp") {
          unsigned TCol = C.col();
          std::string Target = C.ident();
          if (Target.empty())
            return fail(LineNo, TCol, C.peekToken(),
                        "expected a target label after 'jmp'");
          if (!C.atEnd())
            return fail(C, "unexpected trailing text after the jump target");
          BB->Term = Terminator{TermKind::Jump, nullptr, {0, 0}, nullptr,
                                SourceLoc{LineNo, KwCol}};
          Refs.push_back({Target, LineNo, TCol, F->numBlocks() - 1, -1, 0});
          BlockDone = true;
          continue;
        }
        if (Kw == "br") {
          size_t Comma = C.Text.find(',', C.Pos);
          if (Comma == std::string_view::npos)
            return fail(C, "expected 'br <cond>, <label>, <label>'");
          const Expr *Cond = parseOperand(C, Comma, "branch condition");
          if (!Cond)
            return false;
          C.consume(',');
          unsigned T1Col = C.col();
          std::string T1 = C.ident();
          if (T1.empty())
            return fail(LineNo, T1Col, C.peekToken(),
                        "expected the taken label after the condition");
          if (!C.consume(','))
            return fail(C, "expected ',' between branch labels");
          unsigned T2Col = C.col();
          std::string T2 = C.ident();
          if (T2.empty())
            return fail(LineNo, T2Col, C.peekToken(),
                        "expected the fall-through label");
          if (!C.atEnd())
            return fail(C, "unexpected trailing text after the branch");
          BB->Term = Terminator{TermKind::Branch, Cond, {0, 0}, nullptr,
                                SourceLoc{LineNo, KwCol}};
          Refs.push_back({T1, LineNo, T1Col, F->numBlocks() - 1, -1, 0});
          Refs.push_back({T2, LineNo, T2Col, F->numBlocks() - 1, -1, 1});
          BlockDone = true;
          continue;
        }
        if (Kw == "ret") {
          const Expr *V = parseOperand(C, std::string_view::npos,
                                       "return value");
          if (!V)
            return false;
          BB->Term = Terminator{TermKind::Ret, nullptr, {0, 0}, V,
                                SourceLoc{LineNo, KwCol}};
          BlockDone = true;
          continue;
        }
        C = Save;
      }

      if (!parseAssignment(C))
        return false;
    }

    if (F) {
      unsigned Last = (unsigned)Lines.size();
      return fail(Last, 1, "",
                  "unexpected end of input inside function '@" + F->Name +
                      "' (missing '}')");
    }
    return true;
  }
};

} // namespace

std::optional<Program> Program::parse(Context &Ctx, std::string_view Text,
                                      Diag *D) {
  static const querylog::StageDef ParseStage{"ir.parse", nullptr,
                                             "ir.parse_calls"};
  querylog::Stage Stage(ParseStage);

  ProgramParser PP(Ctx, D);
  if (!PP.parse(Text))
    return std::nullopt;
  for (const Function &F : PP.P.Functions)
    if (!verifyFunction(Ctx, F, D))
      return std::nullopt;
  return std::move(PP.P);
}

std::optional<Program> mba::parseTrace(Context &Ctx, std::string_view Text,
                                       const std::vector<std::string> &Roots,
                                       Diag *D) {
  ProgramParser PP(Ctx, D);
  Function Body;
  if (!PP.parseTraceBody(Text, Body))
    return std::nullopt;
  // The inputs: names read but never assigned, in name order.
  std::vector<const Expr *> Inputs;
  for (const IRInst &I : Body.entry().Insts)
    for (const Expr *V : collectVariables(I.Rhs))
      if (!PP.FnDefs.count(V))
        Inputs.push_back(V);
  std::sort(Inputs.begin(), Inputs.end(), [](const Expr *A, const Expr *B) {
    return std::strcmp(A->varName(), B->varName()) < 0;
  });
  Inputs.erase(std::unique(Inputs.begin(), Inputs.end()), Inputs.end());

  Program P;
  for (const std::string &Root : Roots) {
    Function &F = P.Functions.emplace_back(Body);
    F.Name = Root;
    F.Params = Inputs;
    F.entry().Term.Value = Ctx.getVar(Root);
    if (!verifyFunction(Ctx, F, D))
      return std::nullopt;
  }
  return P;
}

//===----------------------------------------------------------------------===//
// Printer
//===----------------------------------------------------------------------===//

std::string mba::printFunction(const Context &Ctx, const Function &F) {
  std::string Out = "func @" + F.Name + "(";
  for (size_t I = 0; I != F.Params.size(); ++I) {
    if (I)
      Out += ", ";
    Out += F.Params[I]->varName();
  }
  Out += ") {\n";
  for (const BasicBlock &BB : F.Blocks) {
    Out += BB.Name + ":\n";
    for (const PhiNode &P : BB.Phis) {
      Out += "  ";
      Out += P.Dest->varName();
      Out += " = phi ";
      for (size_t I = 0; I != P.Incoming.size(); ++I) {
        if (I)
          Out += ", ";
        Out += "[" + F.Blocks[P.Incoming[I].first].Name + ": " +
               printExpr(Ctx, P.Incoming[I].second) + "]";
      }
      Out += '\n';
    }
    for (const IRInst &I : BB.Insts) {
      Out += "  ";
      Out += I.Dest->varName();
      Out += " = ";
      Out += printExpr(Ctx, I.Rhs);
      Out += '\n';
    }
    const Terminator &T = BB.Term;
    switch (T.Kind) {
    case TermKind::Jump:
      Out += "  jmp " + F.Blocks[T.Succs[0]].Name + "\n";
      break;
    case TermKind::Branch:
      Out += "  br " + printExpr(Ctx, T.Cond) + ", " +
             F.Blocks[T.Succs[0]].Name + ", " + F.Blocks[T.Succs[1]].Name +
             "\n";
      break;
    case TermKind::Ret:
      Out += "  ret " + printExpr(Ctx, T.Value) + "\n";
      break;
    }
  }
  Out += "}\n";
  return Out;
}

std::string Program::print(const Context &Ctx) const {
  std::string Out;
  for (size_t I = 0; I != Functions.size(); ++I) {
    if (I)
      Out += '\n';
    Out += printFunction(Ctx, Functions[I]);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Interpreter
//===----------------------------------------------------------------------===//

std::optional<uint64_t>
mba::interpretFunction(const Context &Ctx, const Function &F,
                       std::span<const uint64_t> Args, size_t MaxSteps) {
  std::unordered_map<const Expr *, uint64_t> Env;
  for (size_t I = 0; I != F.Params.size(); ++I)
    Env[F.Params[I]] = Ctx.truncate(I < Args.size() ? Args[I] : 0);

  unsigned Cur = 0;
  int Prev = -1;
  for (size_t Step = 0; Step != MaxSteps; ++Step) {
    const BasicBlock &BB = F.Blocks[Cur];
    if (!BB.Phis.empty()) {
      assert(Prev >= 0 && "phi in a block entered without a predecessor");
      // Parallel phi semantics: read all incomings before writing any dest.
      std::vector<uint64_t> Vals(BB.Phis.size());
      for (size_t I = 0; I != BB.Phis.size(); ++I) {
        const Expr *In = BB.Phis[I].incomingFor((unsigned)Prev);
        assert(In && "verifier guarantees an incoming per predecessor");
        Vals[I] = evaluate(Ctx, In, Env);
      }
      for (size_t I = 0; I != BB.Phis.size(); ++I)
        Env[BB.Phis[I].Dest] = Vals[I];
    }
    for (const IRInst &I : BB.Insts)
      Env[I.Dest] = evaluate(Ctx, I.Rhs, Env);

    const Terminator &T = BB.Term;
    switch (T.Kind) {
    case TermKind::Ret:
      return evaluate(Ctx, T.Value, Env);
    case TermKind::Jump:
      Prev = (int)Cur;
      Cur = T.Succs[0];
      break;
    case TermKind::Branch: {
      uint64_t C = evaluate(Ctx, T.Cond, Env);
      Prev = (int)Cur;
      Cur = C != 0 ? T.Succs[0] : T.Succs[1];
      break;
    }
    }
  }
  return std::nullopt; // fuel exhausted
}

//===----------------------------------------------------------------------===//
// Size metrics
//===----------------------------------------------------------------------===//

size_t mba::countFunctionNodes(const Function &F) {
  size_t N = 0;
  for (const BasicBlock &BB : F.Blocks) {
    for (const PhiNode &P : BB.Phis)
      N += 1 + P.Incoming.size();
    for (const IRInst &I : BB.Insts)
      N += countDagNodes(I.Rhs);
    if (BB.Term.Kind == TermKind::Branch)
      N += countDagNodes(BB.Term.Cond);
    else if (BB.Term.Kind == TermKind::Ret)
      N += countDagNodes(BB.Term.Value);
  }
  return N;
}

size_t mba::countFunctionInsts(const Function &F) {
  size_t N = 0;
  for (const BasicBlock &BB : F.Blocks)
    N += BB.Phis.size() + BB.Insts.size();
  return N;
}
