//===- support/Bitslice.cpp - Bitsliced word kernels and ISA dispatch -----===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Bitslice.h"
#include "support/BitsliceKernels.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

using namespace mba::bitslice;

void mba::bitslice::transpose64(uint64_t M[64]) {
  // Hacker's Delight 7-3 style recursive block swap: exchange the
  // off-diagonal j x j sub-blocks for j = 32, 16, ..., 1.
  unsigned J = 32;
  uint64_t Mask = 0x00000000FFFFFFFFULL;
  for (; J; J >>= 1, Mask ^= Mask << J) {
    for (unsigned K = 0; K < 64; K = (K + J + 1) & ~J) {
      uint64_t T = (M[K] ^ (M[K + J] << J)) & ~Mask;
      M[K] ^= T;
      M[K + J] ^= T >> J;
    }
  }
}

//===----------------------------------------------------------------------===//
// Wide engine dispatch
//===----------------------------------------------------------------------===//

const WideKernels *mba::bitslice::detail::scalarWideKernels() {
  static const WideKernels Table = wide::makeKernels<1>(Isa::Scalar);
  return &Table;
}

const char *mba::bitslice::isaName(Isa I) {
  switch (I) {
  case Isa::Scalar:
    return "scalar";
  case Isa::Avx2:
    return "avx2";
  case Isa::Avx512:
    return "avx512";
  }
  return "scalar";
}

bool mba::bitslice::parseIsaName(std::string_view Name, Isa &Out) {
  if (Name == "scalar") {
    Out = Isa::Scalar;
    return true;
  }
  if (Name == "avx2") {
    Out = Isa::Avx2;
    return true;
  }
  if (Name == "avx512") {
    Out = Isa::Avx512;
    return true;
  }
  return false;
}

Isa mba::bitslice::bestSupportedIsa() {
  static const Isa Best = [] {
#if (defined(__x86_64__) || defined(_M_X64)) && defined(__GNUC__)
    if (detail::avx512WideKernels() && __builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512vl"))
      return Isa::Avx512;
    if (detail::avx2WideKernels() && __builtin_cpu_supports("avx2"))
      return Isa::Avx2;
#endif
    return Isa::Scalar;
  }();
  return Best;
}

bool mba::bitslice::isaSupported(Isa I) { return I <= bestSupportedIsa(); }

namespace {

constexpr int kIsaUnset = -2; ///< read MBA_FORCE_ISA on next activeIsa()
constexpr int kIsaAuto = -1;  ///< no override; follow bestSupportedIsa()

/// The forced-ISA cell. Atomic so benches forcing an ISA while worker
/// threads evaluate is a race only on *which* ISA a block uses, never on
/// results (all back ends are bit-identical).
std::atomic<int> ForcedIsa{kIsaUnset};

} // namespace

Isa mba::bitslice::activeIsa() {
  int F = ForcedIsa.load(std::memory_order_relaxed);
  if (F == kIsaUnset) {
    F = kIsaAuto;
    if (const char *Env = std::getenv("MBA_FORCE_ISA")) {
      Isa Parsed;
      if (parseIsaName(Env, Parsed))
        F = (int)Parsed;
      else
        std::fprintf(stderr,
                     "warning: MBA_FORCE_ISA=%s not recognized "
                     "(scalar|avx2|avx512); using auto detection\n",
                     Env);
    }
    ForcedIsa.store(F, std::memory_order_relaxed);
  }
  Isa Best = bestSupportedIsa();
  if (F == kIsaAuto)
    return Best;
  Isa Want = (Isa)F;
  return Want <= Best ? Want : Best;
}

void mba::bitslice::forceIsa(Isa I) {
  ForcedIsa.store((int)I, std::memory_order_relaxed);
}

void mba::bitslice::clearForcedIsa() {
  ForcedIsa.store(kIsaUnset, std::memory_order_relaxed);
}

const WideKernels &mba::bitslice::kernelsFor(Isa I) {
  Isa Best = bestSupportedIsa();
  Isa Use = I <= Best ? I : Best;
  const WideKernels *T = nullptr;
  switch (Use) {
  case Isa::Avx512:
    T = detail::avx512WideKernels();
    if (T)
      break;
    [[fallthrough]];
  case Isa::Avx2:
    T = detail::avx2WideKernels();
    if (T)
      break;
    [[fallthrough]];
  case Isa::Scalar:
    T = detail::scalarWideKernels();
    break;
  }
  return *T;
}
