// Test code writes `unwritten`, but tests are not an entry point: K1
// still flags it.
#include "k1/src/knobs.h"

void TuneForTest(k1::UnwrittenConfig* config) { config->unwritten = 2; }
