// A miniature library for the U1 fixtures: u1/tools/ is the shipped
// entry point, u1/tests/ only exercises it.
#ifndef U1_LIB_H_
#define U1_LIB_H_

#include <functional>
#include <string>

namespace u1 {

/// Shipped: tools start and stop it.
class Service {
 public:
  void Start();
  void Stop();
};

/// Only a test constructs it; its method names collide with Service's.
class TestOnlyPump {
 public:
  void Start();
  void Stop();
};

class Policy {
 public:
  virtual ~Policy() = default;
  virtual int Decide() const = 0;
};
Policy* MakeGreedyPolicy();

void RunWithPointer(void (*callback)(int));
void RunWithFunction(const std::function<void(int)>& callback);
void OnTick(int value);
void OnDone(int value);

int Dispatch(int index);

int Documented();
int Undocumented();

/// Shipped: the tool renders one as CSV.
class Table {
 public:
  std::string ToCsv() const;
};

/// Shipped: the tool records into one, but never renders it; its ToCsv
/// shares a name with Table's.
class Recorder {
 public:
  void Record(int value);
  std::string ToCsv() const;
};

}  // namespace u1

#endif  // U1_LIB_H_
