// U1 suppression without a reason is malformed (P1) and suppresses
// nothing, so the U1 underneath still fires.
#include "u1/src/lib.h"

namespace u1 {

// hivesim-lint: allow(U1)
int Undocumented() { return 4; }

}  // namespace u1
