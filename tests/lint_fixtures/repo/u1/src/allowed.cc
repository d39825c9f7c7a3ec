// U1 suppression: a dead function with a named consumer stays behind an
// allow(U1) pragma that gives the reason.
#include "u1/src/lib.h"

namespace u1 {

// hivesim-lint: allow(U1) reason=the next release's exporter reads it
int Documented() { return 3; }

}  // namespace u1
