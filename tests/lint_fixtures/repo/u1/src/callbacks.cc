// U1 and callbacks: OnTick is only ever passed as a function pointer and
// OnDone only as a std::function; neither is called by name.
#include "u1/src/lib.h"

namespace u1 {

void RunWithPointer(void (*callback)(int)) { callback(1); }

void RunWithFunction(const std::function<void(int)>& callback) {
  callback(2);
}

void OnTick(int value) { (void)value; }

void OnDone(int value) { (void)value; }

}  // namespace u1
