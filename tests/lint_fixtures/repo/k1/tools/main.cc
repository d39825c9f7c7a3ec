// The shipped entry point of the K1 fixtures.
#include "k1/src/knobs.h"

int main(int argc, char** argv) {
  (void)argv;
  k1::UnwrittenConfig config;
  config.rounds = argc;
  k1::SameLiteralOptions fast;
  fast.same = 8;
  k1::SameLiteralOptions slow;
  slow.same = 8;
  k1::TwoLiteralRequest small;
  small.varied = 4;
  k1::TwoLiteralRequest large;
  large.varied = 5;
  const k1::PositionalSpec table{3, 4};
  return k1::Run(config, fast, small, table, k1::AllowedConfig()) +
         k1::Run(config, slow, large, table, {});
}
