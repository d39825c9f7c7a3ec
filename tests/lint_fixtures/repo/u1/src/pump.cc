// U1 class gate: shipped code calls Start/Stop, but only on Service.
// TestOnlyPump is never mentioned outside u1/tests/, so its members
// are dead even though their names are reached.
#include "u1/src/lib.h"

namespace u1 {

void Service::Start() {}
void Service::Stop() {}

void TestOnlyPump::Start() {}
void TestOnlyPump::Stop() {}

}  // namespace u1
