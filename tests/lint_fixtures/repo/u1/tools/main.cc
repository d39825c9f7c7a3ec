// The shipped entry point of the U1 fixtures.
#include <functional>
#include <memory>
#include <string>

#include "u1/src/lib.h"

int main() {
  u1::Service service;
  service.Start();
  std::unique_ptr<u1::Policy> policy(u1::MakeGreedyPolicy());
  int total = policy->Decide();
  u1::RunWithPointer(&u1::OnTick);
  const std::function<void(int)> done = u1::OnDone;
  u1::RunWithFunction(done);
  total += u1::Dispatch(0);
  u1::Table table;
  const std::string csv = table.ToCsv();
  u1::Recorder recorder;
  recorder.Record(total);
  service.Stop();
  return total == 0 || csv.empty() ? 1 : 0;
}
