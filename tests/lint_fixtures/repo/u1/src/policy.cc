// U1 and virtual dispatch: the tool calls Decide() through a Policy
// pointer. GreedyPolicy is constructed by shipped code, so its override
// is reached; UnusedPolicy is never constructed, so its override is not.
#include "u1/src/lib.h"

namespace u1 {
namespace {

class GreedyPolicy : public Policy {
 public:
  int Decide() const override;
};

class UnusedPolicy : public Policy {
 public:
  int Decide() const override;
};

}  // namespace

int GreedyPolicy::Decide() const { return 1; }

int UnusedPolicy::Decide() const { return 2; }

Policy* MakeGreedyPolicy() { return new GreedyPolicy(); }

}  // namespace u1
