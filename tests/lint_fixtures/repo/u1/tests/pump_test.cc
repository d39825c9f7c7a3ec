// Test code reaches TestOnlyPump, but tests are not an entry point: U1
// still flags its members.
#include "u1/src/lib.h"

void PumpTest() {
  u1::TestOnlyPump pump;
  pump.Start();
  pump.Stop();
}
