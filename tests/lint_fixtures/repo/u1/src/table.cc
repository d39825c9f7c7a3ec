// U1 and file-scope tables: HandleA and HandleB are reached only as
// entries of kHandlers, which Dispatch indexes.
#include "u1/src/lib.h"

namespace u1 {
namespace {

int HandleA() { return 10; }
int HandleB() { return 20; }

struct Handler {
  int (*fn)();
};
const Handler kHandlers[] = {{&HandleA}, {&HandleB}};

}  // namespace

int Dispatch(int index) { return kHandlers[index].fn(); }

}  // namespace u1
