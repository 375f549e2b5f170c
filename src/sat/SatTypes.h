//===- sat/SatTypes.h - Literals, variables, clauses ------------*- C++ -*-===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Core types of the CDCL SAT solver: variables are dense 0-based integers,
/// literals use the standard 2*var+sign packing (even = positive), and
/// clauses live in one flat word arena.
///
//===----------------------------------------------------------------------===//

#ifndef MBA_SAT_SATTYPES_H
#define MBA_SAT_SATTYPES_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace mba::sat {

/// A propositional variable (dense index).
using Var = uint32_t;

constexpr Var InvalidVar = UINT32_MAX;

/// A literal: variable with sign, packed as 2*var + (negated ? 1 : 0).
class Lit {
public:
  Lit() : Code(UINT32_MAX) {}
  Lit(Var V, bool Negated) : Code(2 * V + (Negated ? 1 : 0)) {}

  static Lit fromCode(uint32_t Code) {
    Lit L;
    L.Code = Code;
    return L;
  }

  Var var() const { return Code >> 1; }
  bool negated() const { return Code & 1; }
  Lit operator~() const { return fromCode(Code ^ 1); }
  uint32_t code() const { return Code; }
  bool valid() const { return Code != UINT32_MAX; }

  bool operator==(const Lit &O) const { return Code == O.Code; }
  bool operator!=(const Lit &O) const { return Code != O.Code; }
  bool operator<(const Lit &O) const { return Code < O.Code; }

private:
  uint32_t Code;
};

/// Ternary assignment value.
enum class LBool : int8_t { False = -1, Undef = 0, True = 1 };

inline LBool lboolFromBool(bool B) { return B ? LBool::True : LBool::False; }
inline LBool operator~(LBool V) { return (LBool)(-(int8_t)V); }

/// Offset of a clause's header in the solver's ClauseArena.
using ClauseRef = uint32_t;
constexpr ClauseRef InvalidClause = UINT32_MAX;

/// A clause in place in a ClauseArena: a three-word header (size << 2 |
/// deleted << 1 | learnt, then the activity as a double) followed by the
/// literal codes. A view over \p WordT (uint32_t or const uint32_t); it
/// stays valid until the arena grows or is compacted.
template <typename WordT> class ClauseView {
public:
  static constexpr uint32_t HeaderWords = 3;

  explicit ClauseView(WordT *Words) : W(Words) {}

  uint32_t size() const { return W[0] >> 2; }
  bool learnt() const { return W[0] & 1; }
  bool deleted() const { return W[0] & 2; }
  double activity() const {
    double A;
    std::memcpy(&A, W + 1, sizeof A);
    return A;
  }
  Lit operator[](uint32_t I) const { return Lit::fromCode(W[HeaderWords + I]); }

  void markDeleted()
    requires(!std::is_const_v<WordT>)
  {
    W[0] |= 2;
  }
  void setActivity(double A)
    requires(!std::is_const_v<WordT>)
  {
    std::memcpy(W + 1, &A, sizeof A);
  }
  void swapLits(uint32_t I, uint32_t J)
    requires(!std::is_const_v<WordT>)
  {
    std::swap(W[HeaderWords + I], W[HeaderWords + J]);
  }

private:
  WordT *W;
};

using Clause = ClauseView<uint32_t>;
using ConstClause = ClauseView<const uint32_t>;

/// The clause database as one flat array of words (MiniSat style): no
/// allocation per clause, and a clause's literals sit next to its header.
/// Clauses are visited in allocation order by stepping with next() from
/// offset 0 to end(); deletion only marks a clause, and the solver
/// compacts.
class ClauseArena {
public:
  ClauseRef alloc(std::span<const Lit> Lits, bool Learnt, double Activity) {
    assert(Words.size() + Clause::HeaderWords + Lits.size() < InvalidClause &&
           "clause arena exhausted");
    ClauseRef R = (ClauseRef)Words.size();
    Words.resize(Words.size() + Clause::HeaderWords);
    Words[R] = (uint32_t)Lits.size() << 2 | (Learnt ? 1 : 0);
    (*this)[R].setActivity(Activity);
    for (Lit L : Lits)
      Words.push_back(L.code());
    return R;
  }

  Clause operator[](ClauseRef R) { return Clause(&Words[R]); }
  ConstClause operator[](ClauseRef R) const { return ConstClause(&Words[R]); }

  /// One past the last word.
  ClauseRef end() const { return (ClauseRef)Words.size(); }
  ClauseRef next(ClauseRef R) const {
    return R + Clause::HeaderWords + (Words[R] >> 2);
  }

  /// Moves clause \p From down to offset \p To (To <= From) as a live
  /// clause, keeping only the literals \p Keep accepts in their order;
  /// returns the offset just past the moved clause.
  template <typename KeepFn>
  ClauseRef moveDown(ClauseRef From, ClauseRef To, KeepFn Keep) {
    assert(To <= From && "clauses only move down");
    uint32_t Header = Words[From];
    Words[To + 1] = Words[From + 1];
    Words[To + 2] = Words[From + 2];
    uint32_t Size = Header >> 2, Kept = 0;
    for (uint32_t I = 0; I != Size; ++I) {
      uint32_t Code = Words[From + Clause::HeaderWords + I];
      if (Keep(Lit::fromCode(Code)))
        Words[To + Clause::HeaderWords + Kept++] = Code;
    }
    Words[To] = Kept << 2 | (Header & 1);
    return To + Clause::HeaderWords + Kept;
  }

  /// Drops every word from \p End on (the tail left by moveDown).
  void truncate(ClauseRef End) { Words.resize(End); }

private:
  std::vector<uint32_t> Words;
};

} // namespace mba::sat

#endif // MBA_SAT_SATTYPES_H
