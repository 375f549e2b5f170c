//===- synth/Synthesizer.cpp - Enumerative MBA synthesizer ----------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "synth/Synthesizer.h"

#include "ast/BitslicedEval.h"
#include "ast/ExprUtils.h"
#include "poly/PolyExpr.h"
#include "support/Bitslice.h"
#include "support/Cache.h"
#include "support/RNG.h"
#include "support/Stopwatch.h"
#include "synth/Basis3.h"
#include "synth/TermBank.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <vector>

using namespace mba;
using namespace mba::synth;

namespace {

/// Process-wide memo of query semantics -> recipe. Values are tiny PODs;
/// hits must (and do) re-validate against the live target, so a collision
/// degrades to a wasted rebuild, never a wrong result.
ShardedCache<uint64_t> &recipeCache() {
  static ShardedCache<uint64_t> C(1 << 14);
  return C;
}

/// A Recipe is packed into one cache word: kind (2 bits) and the two truth
/// columns; coefficients and constant are re-derived from the live corner
/// values, which the key already covers.
uint64_t packRecipe(uint8_t K, uint32_t T1, uint32_t T2) {
  return (uint64_t)K | ((uint64_t)T1 << 2) | ((uint64_t)T2 << 34);
}

/// Semantic key of one query: everything the match depends on.
uint64_t queryKey(unsigned Width, unsigned NumVars,
                  std::span<const uint64_t> Corners,
                  std::span<const uint64_t> Samples) {
  uint64_t H = hashMix64(0x53594e544853ULL ^ ((uint64_t)Width << 8 | NumVars));
  for (uint64_t V : Corners)
    H = hashCombine64(H, V);
  for (uint64_t V : Samples)
    H = hashCombine64(H, V);
  return H;
}

/// Input spaces of at most 2^this assignments are small enough to settle
/// by enumeration: 2^24 points (three variables at width 8) take about a
/// second through the SIMD wide engine.
constexpr unsigned MaxEnumerationBits = 24;

/// Decides A == B by evaluating both on every assignment of \p Vars, which
/// must cover the variables of both sides and span at most
/// MaxEnumerationBits input bits. Agreement everywhere is a proof.
bool agreeEverywhere(const Context &Ctx, const Expr *A, const Expr *B,
                     std::span<const Expr *const> Vars) {
  const unsigned W = Ctx.width();
  const unsigned NumVars = (unsigned)Vars.size();
  assert(W * NumVars <= MaxEnumerationBits);
  const BitslicedExpr &EA = Ctx.getBitsliced(A);
  const BitslicedExpr &EB = Ctx.getBitsliced(B);
  const unsigned Lanes = BitslicedExpr::wideLanes();

  unsigned MaxIndex = 0;
  for (const Expr *V : Vars)
    MaxIndex = std::max(MaxIndex, V->varIndex());
  std::vector<uint64_t> Inputs((size_t)NumVars * Lanes);
  std::vector<const uint64_t *> LanePtrs(MaxIndex + 1, nullptr);
  for (unsigned I = 0; I != NumVars; ++I)
    LanePtrs[Vars[I]->varIndex()] = Inputs.data() + (size_t)I * Lanes;
  std::vector<uint64_t> OutA(Lanes), OutB(Lanes);

  // Point P assigns variable I the I-th width-sized digit of P.
  const uint64_t Total = uint64_t(1) << (W * NumVars);
  for (uint64_t Base = 0; Base < Total; Base += Lanes) {
    const unsigned N = (unsigned)std::min<uint64_t>(Lanes, Total - Base);
    for (unsigned I = 0; I != NumVars; ++I)
      for (unsigned J = 0; J != N; ++J)
        Inputs[(size_t)I * Lanes + J] = ((Base + J) >> (I * W)) & Ctx.mask();
    EA.evaluateBlock(LanePtrs, N, OutA.data());
    EB.evaluateBlock(LanePtrs, N, OutB.data());
    if (!std::equal(OutA.begin(), OutA.begin() + N, OutB.begin()))
      return false;
  }
  return true;
}

} // namespace

Synthesizer::Synthesizer(Context &Ctx, SynthOptions Opts)
    : Ctx(Ctx), Opts(Opts) {
  this->Opts.MaxVars = std::min(this->Opts.MaxVars, MaxBasisVars);
}

Synthesizer::~Synthesizer() = default;

const Expr *Synthesizer::build(const Recipe &R,
                               std::span<const Expr *const> Vars) const {
  switch (R.K) {
  case Recipe::None:
    return nullptr;
  case Recipe::Const:
    return Ctx.getConst(R.C);
  case Recipe::Single:
    return buildLinearCombination(
        Ctx, {{R.A1, bitwiseFromTruth(Ctx, Vars, R.T1)}}, R.C);
  case Recipe::Pair:
    return buildLinearCombination(Ctx,
                                  {{R.A1, bitwiseFromTruth(Ctx, Vars, R.T1)},
                                   {R.A2, bitwiseFromTruth(Ctx, Vars, R.T2)}},
                                  R.C);
  }
  return nullptr;
}

bool Synthesizer::agrees(const Recipe &R, std::span<const uint64_t> Corners,
                         std::span<const uint64_t> Samples,
                         const uint64_t *Minterms) const {
  const uint64_t Mask = Ctx.mask();
  const size_t N = Samples.size();
  // Corners: a bitwise term contributes 0 or all-ones (-1), so row r's
  // expected value is C minus the coefficients of the terms whose truth
  // bit r is set.
  for (size_t Row = 0; Row != Corners.size(); ++Row) {
    uint64_t Expected = R.C;
    if (R.K != Recipe::Const) {
      if ((R.T1 >> Row) & 1)
        Expected -= R.A1;
      if (R.K == Recipe::Pair && ((R.T2 >> Row) & 1))
        Expected -= R.A2;
    }
    if (Corners[Row] != (Expected & Mask))
      return false;
  }
  // Samples, early-exit on first mismatch.
  for (size_t J = 0; J != N; ++J) {
    uint64_t V = R.C;
    if (R.K != Recipe::Const) {
      V += R.A1 * termValue(Minterms, N, R.T1, J);
      if (R.K == Recipe::Pair)
        V += R.A2 * termValue(Minterms, N, R.T2, J);
    }
    if (Samples[J] != (V & Mask))
      return false;
  }
  return true;
}

bool Synthesizer::verify(const Expr *E, const Expr *Candidate) {
  if (!Opts.Verify)
    return true;
  if (!Verifier) {
    PipelineConfig Config;
    Config.TimeoutSeconds = Opts.VerifyTimeoutSeconds;
    Verifier = std::make_unique<Pipeline>(Ctx, Config);
  }
  Stopwatch Timer;
  CheckResult R = Verifier->check(E, Candidate);
  bool Proved = R.Outcome == Verdict::Equivalent;
  // A miter can exhaust the SAT budget even at width 8; when the input
  // space is small, enumerating it settles the query instead.
  if (R.Outcome == Verdict::Timeout) {
    std::vector<const Expr *> Vars = collectVariables(E);
    for (const Expr *V : collectVariables(Candidate))
      if (std::find(Vars.begin(), Vars.end(), V) == Vars.end())
        Vars.push_back(V);
    if (Ctx.width() * Vars.size() <= MaxEnumerationBits) {
      ++Stats.Enumerated;
      Proved = agreeEverywhere(Ctx, E, Candidate, Vars);
    }
  }
  Stats.VerifySeconds += Timer.seconds();
  // Any other timeout is rejection: only a proof installs a candidate.
  return Proved;
}

const Expr *Synthesizer::synthesize(const Expr *E) {
  ++Stats.Queries;
  std::vector<const Expr *> Vars = collectVariables(E);
  const unsigned T = (unsigned)Vars.size();
  if (T == 0 || T > Opts.MaxVars) {
    ++Stats.Unsupported;
    return nullptr;
  }
  const unsigned Rows = 1u << T;
  const uint64_t Mask = Ctx.mask();

  // Target semantics: the 2^t truth-table corners (raw values — unlike
  // computeSignature's negated convention), one block of at most
  // 2^MaxBasisVars lanes, so one mask word per variable ...
  const BitslicedExpr &CE = Ctx.getBitsliced(E);
  unsigned MaxIndex = 0;
  for (const Expr *V : Vars)
    MaxIndex = std::max(MaxIndex, V->varIndex());
  std::vector<uint64_t> VarMasks(MaxIndex + 1, 0);
  for (unsigned I = 0; I != T; ++I)
    VarMasks[Vars[I]->varIndex()] = bitslice::cornerMask(T - 1 - I, 0);
  uint64_t Corners[1u << MaxBasisVars];
  CE.evaluateCorners(VarMasks, Rows, Corners);

  // ... plus a deterministic random batch on the active back end.
  // The seed depends only on (width, arity), so equal-semantics targets
  // sample identically and the memo key below is truly semantic.
  const unsigned N = Opts.NumSamples;
  RNG Rng(hashCombine64(hashMix64(0x53594e544853ULL + Ctx.width()), T));
  std::vector<uint64_t> Inputs((size_t)T * N);
  for (unsigned J = 0; J != N; ++J)
    for (unsigned I = 0; I != T; ++I)
      Inputs[(size_t)I * N + J] = Rng.next() & Mask;
  std::vector<const uint64_t *> LanePtrs(MaxIndex + 1, nullptr);
  const uint64_t *VarVals[MaxBasisVars];
  for (unsigned I = 0; I != T; ++I) {
    VarVals[I] = Inputs.data() + (size_t)I * N;
    LanePtrs[Vars[I]->varIndex()] = VarVals[I];
  }
  std::vector<uint64_t> Samples = CE.evaluatePoints(LanePtrs, N);

  // Minterm value arrays: after this, every bank candidate evaluates in
  // O(popcount) word ORs per point with no expression construction.
  std::vector<uint64_t> Minterms((size_t)Rows * N);
  mintermValues({VarVals, T}, T, N, Mask, Minterms.data());

  const uint64_t Key =
      queryKey(Ctx.width(), T, {Corners, Rows}, Samples);
  const uint32_t Full = (1u << Rows) - 1;
  uint64_t Packed;
  if (recipeCache().lookup(Key, Packed)) {
    ++Stats.CacheHits;
    Recipe R;
    R.K = (Recipe::Kind)(Packed & 3);
    if (R.K == Recipe::None)
      return nullptr;
    R.T1 = (uint32_t)((Packed >> 2) & 0xFFFFFFFFu);
    R.T2 = (uint32_t)(Packed >> 34);
    // Re-derive the coefficients from the live corners, then re-check and
    // re-prove: the memo is an accelerator, not an oracle. A collision can
    // hand us out-of-range or degenerate truths — treated exactly like a
    // failed re-check (fall through to the full search).
    bool Valid = true;
    if (R.K == Recipe::Const) {
      R.C = Corners[0];
    } else if (R.K == Recipe::Single) {
      Valid = R.T1 >= 1 && R.T1 < Full;
      if (Valid) {
        R.C = Corners[(unsigned)std::countr_one(R.T1)];  // first off-row
        R.A1 = (R.C - Corners[(unsigned)std::countr_zero(R.T1)]) & Mask;
        Valid = R.A1 != 0;
      }
    } else {
      uint32_t Only1 = R.T1 & ~R.T2, Only2 = R.T2 & ~R.T1;
      uint32_t R00 = (R.T1 | R.T2) < Full ? ~(R.T1 | R.T2) & Full : 0;
      Valid = R.T1 >= 1 && R.T1 <= Full && R.T2 >= 1 && R.T2 <= Full &&
              Only1 && Only2 && R00;
      if (Valid) {
        R.C = Corners[(unsigned)std::countr_zero(R00)];
        R.A1 = (R.C - Corners[(unsigned)std::countr_zero(Only1)]) & Mask;
        R.A2 = (R.C - Corners[(unsigned)std::countr_zero(Only2)]) & Mask;
        Valid = R.A1 != 0 && R.A2 != 0;
      }
    }
    if (Valid && agrees(R, {Corners, Rows}, Samples, Minterms.data())) {
      const Expr *Candidate = build(R, Vars);
      if (Candidate && verify(E, Candidate)) {
        ++Stats.Installed;
        return Candidate;
      }
      ++Stats.VerifyRejected;
      return nullptr;
    }
    // Collision (semantics differ from the recipe's origin): fall through
    // to a fresh search, which overwrites the entry.
  }

  Recipe Found;

  // Shape 1: a constant.
  bool AllConst = std::all_of(Corners + 1, Corners + Rows,
                              [&](uint64_t V) { return V == Corners[0]; }) &&
                  std::all_of(Samples.begin(), Samples.end(),
                              [&](uint64_t V) { return V == Corners[0]; });
  if (AllConst) {
    Found.K = Recipe::Const;
    Found.C = Corners[0];
  }

  std::span<const BankTerm> Bank = termBank(T);

  // Shape 2: a*f + c. The coefficients are read off two corners — f is 0
  // on an off-row (value c) and all-ones on an on-row (value c - a) — and
  // the remaining corners + samples filter.
  if (Found.K == Recipe::None) {
    for (const BankTerm &BT : Bank) {
      unsigned On = (unsigned)std::countr_zero(BT.Truth);
      unsigned Off = (unsigned)std::countr_one(BT.Truth);
      Recipe R;
      R.K = Recipe::Single;
      R.T1 = BT.Truth;
      R.C = Corners[Off];
      R.A1 = (R.C - Corners[On]) & Mask;
      if (!R.A1)
        continue; // degenerate: a constant, handled above
      if (agrees(R, {Corners, Rows}, Samples, Minterms.data())) {
        Found = R;
        break;
      }
    }
  }

  // Shape 3: a1*f1 + a2*f2 + c, scanned in rank order so the first match
  // is the cheapest. Pairs must expose all three corner classes (both
  // terms 0; only f1; only f2) to read the coefficients off — complement
  // pairs have no both-0 row and are exactly the single-term shapes with
  // a constant folded in, already covered above.
  if (Found.K == Recipe::None && T >= 2) {
    size_t Scanned = 0;
    for (size_t I = 0;
         I != Bank.size() && Found.K == Recipe::None &&
         Scanned < Opts.MaxPairCandidates;
         ++I) {
      for (size_t J = I + 1;
           J != Bank.size() && Scanned < Opts.MaxPairCandidates; ++J) {
        ++Scanned;
        uint32_t T1 = Bank[I].Truth, T2 = Bank[J].Truth;
        uint32_t Only1 = T1 & ~T2, Only2 = T2 & ~T1;
        uint32_t R00 = ~(T1 | T2) & Full;
        if (!Only1 || !Only2 || !R00)
          continue;
        Recipe R;
        R.K = Recipe::Pair;
        R.T1 = T1;
        R.T2 = T2;
        R.C = Corners[(unsigned)std::countr_zero(R00)];
        R.A1 = (R.C - Corners[(unsigned)std::countr_zero(Only1)]) & Mask;
        R.A2 = (R.C - Corners[(unsigned)std::countr_zero(Only2)]) & Mask;
        if (!R.A1 || !R.A2)
          continue; // a single-term (or constant) shape in disguise
        if (agrees(R, {Corners, Rows}, Samples, Minterms.data())) {
          Found = R;
          break;
        }
      }
    }
  }

  if (Found.K == Recipe::None) {
    recipeCache().insert(Key, packRecipe(Recipe::None, 0, 0));
    return nullptr;
  }
  ++Stats.Matched;
  const Expr *Candidate = build(Found, Vars);
  if (!verify(E, Candidate)) {
    ++Stats.VerifyRejected;
    // Memoize the failure too: an equal-semantics retry would fail the
    // same proof.
    recipeCache().insert(Key, packRecipe(Recipe::None, 0, 0));
    return nullptr;
  }
  recipeCache().insert(Key, packRecipe(Found.K, Found.T1, Found.T2));
  ++Stats.Installed;
  return Candidate;
}

std::function<const Expr *(Context &, const Expr *)>
Synthesizer::fallbackHook() {
  return [this](Context &C, const Expr *E) -> const Expr * {
    if (&C != &Ctx)
      return nullptr; // bound to one context; see header
    return synthesize(E);
  };
}
