// mba-tidy corpus: discarded RAII temporaries. Each unnamed guard is
// destroyed at its own ';', so the critical section it was meant to
// protect runs unlocked (or the trace span records ~0ns).
#include <mutex>

#include "support/QueryLog.h"
#include "support/ThreadSafety.h"
#include "support/Telemetry.h"

void unlockedCriticalSection(std::mutex &Mu, int &Counter) {
  std::lock_guard<std::mutex>(Mu); // EXPECT: mba-unnamed-raii
  ++Counter;
}

void guardGoneImmediately(mba::support::Mutex &Mu, int &Counter) {
  mba::support::MutexLock(Mu); // EXPECT: mba-unnamed-raii
  ++Counter;
}

void zeroLengthSpan() {
  mba::support::SpanGuard("simplify.total"); // EXPECT: mba-unnamed-raii
}

void zeroLengthStage(const mba::querylog::StageDef &Def) {
  mba::querylog::Stage(Def); // EXPECT: mba-unnamed-raii
}
