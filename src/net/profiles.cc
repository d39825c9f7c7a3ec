#include "net/profiles.h"

#include "common/units.h"

namespace hivesim::net {

namespace {
/// Shorthand: set a symmetric path quoted in Mb/s and ms.
void AddPathMbps(Topology& t, SiteId a, SiteId b, double mbps, double rtt_ms) {
  t.SetPath(a, b, MbpsToBytesPerSec(mbps), MsToSec(rtt_ms));
}

/// Wide-area provider path: the quoted Mb/s is the *single-stream* iperf
/// measurement (what Tables 3/4 report); the physical path carries ~4x
/// that, reachable with parallel streams (Section 7: Hivemind's per-peer
/// streams raise utilization on exactly these links).
void AddWanPathMbps(Topology& t, SiteId a, SiteId b, double stream_mbps,
                    double rtt_ms) {
  t.SetPath(a, b, MbpsToBytesPerSec(4 * stream_mbps), MsToSec(rtt_ms),
            MbpsToBytesPerSec(stream_mbps));
}
}  // namespace

Topology StandardWorld() {
  Topology t;
  // Order must match the StandardSite enum.
  t.AddSite("gc-us-central1", Provider::kGoogleCloud, Continent::kUs);
  t.AddSite("gc-europe-west1", Provider::kGoogleCloud, Continent::kEu);
  t.AddSite("gc-asia-east1", Provider::kGoogleCloud, Continent::kAsia);
  t.AddSite("gc-australia-se1", Provider::kGoogleCloud, Continent::kAus);
  t.AddSite("aws-us-west-2", Provider::kAws, Continent::kUs);
  t.AddSite("azure-us-south-2", Provider::kAzure, Continent::kUs);
  t.AddSite("lambda-us-west", Provider::kLambdaLabs, Continent::kUs);
  t.AddSite("onprem-eu", Provider::kOnPremise, Continent::kEu);

  // Intra-site connectivity (Table 3 diagonal, Table 4 diagonal, Sec. 3).
  AddPathMbps(t, kGcUs, kGcUs, 6900, 0.7);
  AddPathMbps(t, kGcEu, kGcEu, 6900, 0.7);
  AddPathMbps(t, kGcAsia, kGcAsia, 6900, 0.7);
  AddPathMbps(t, kGcAus, kGcAus, 6900, 0.7);
  AddPathMbps(t, kAwsUsWest, kAwsUsWest, 4900, 0.7);
  AddPathMbps(t, kAzureUsSouth, kAzureUsSouth, 7600, 0.7);
  AddPathMbps(t, kLambdaUsWest, kLambdaUsWest, 3300, 0.3);
  AddPathMbps(t, kOnPremEu, kOnPremEu, 10000, 0.1);

  // GC inter-zone (Table 3, single-stream iperf). Iowa is the best-
  // connected region; the weakest links are EU<->ASIA/AUS at ~80 Mb/s and
  // ~270 ms.
  AddWanPathMbps(t, kGcUs, kGcEu, 210, 103);
  AddWanPathMbps(t, kGcUs, kGcAsia, 130, 160);
  AddWanPathMbps(t, kGcUs, kGcAus, 120, 180);
  AddWanPathMbps(t, kGcEu, kGcAsia, 80, 270);
  AddWanPathMbps(t, kGcEu, kGcAus, 80, 280);
  AddWanPathMbps(t, kGcAsia, kGcAus, 110, 130);

  // Multi-cloud (Table 4): GC and AWS share an Internet exchange point
  // (1.5-1.8 Gb/s, ~15 ms); Azure sits in us-south (0.5 Gb/s, 51 ms).
  AddWanPathMbps(t, kGcUs, kAwsUsWest, 1650, 15.3);
  AddWanPathMbps(t, kGcUs, kAzureUsSouth, 500, 51);
  AddWanPathMbps(t, kAwsUsWest, kAzureUsSouth, 500, 45);

  // LambdaLabs peering (not measured by the paper beyond intra-region;
  // modeled as ordinary US inter-cloud connectivity).
  AddWanPathMbps(t, kLambdaUsWest, kGcUs, 1000, 12);
  AddWanPathMbps(t, kLambdaUsWest, kAwsUsWest, 1000, 12);
  AddWanPathMbps(t, kLambdaUsWest, kAzureUsSouth, 500, 51);
  AddWanPathMbps(t, kLambdaUsWest, kGcEu, 200, 120);
  AddWanPathMbps(t, kLambdaUsWest, kGcAsia, 130, 160);
  AddWanPathMbps(t, kLambdaUsWest, kGcAus, 120, 180);

  // On-premise building in Europe (Table 5). The physical paths carry
  // several Gb/s (verified by the Section 7 multi-stream microbenchmark:
  // 6 Gb/s within the EU, 4 Gb/s to the US with 80 streams); single-stream
  // throughput is window/RTT-capped by OnPremNetConfig().
  AddPathMbps(t, kOnPremEu, kGcEu, 6000, 16.5);
  AddPathMbps(t, kOnPremEu, kGcUs, 4000, 150.5);
  AddPathMbps(t, kOnPremEu, kLambdaUsWest, 4000, 158.8);
  AddPathMbps(t, kOnPremEu, kAwsUsWest, 4000, 150.0);
  AddPathMbps(t, kOnPremEu, kAzureUsSouth, 2000, 160.0);
  AddPathMbps(t, kOnPremEu, kGcAsia, 2000, 290);
  AddPathMbps(t, kOnPremEu, kGcAus, 2000, 300);

  // Remaining cross pairs follow the GC continental profile.
  AddWanPathMbps(t, kAwsUsWest, kGcEu, 210, 110);
  AddWanPathMbps(t, kAwsUsWest, kGcAsia, 130, 160);
  AddWanPathMbps(t, kAwsUsWest, kGcAus, 120, 180);
  AddWanPathMbps(t, kAzureUsSouth, kGcEu, 200, 120);
  AddWanPathMbps(t, kAzureUsSouth, kGcAsia, 130, 170);
  AddWanPathMbps(t, kAzureUsSouth, kGcAus, 120, 190);

  return t;
}

NodeNetConfig CloudVmNetConfig() {
  NodeNetConfig cfg;
  cfg.tcp_window_bytes = 8e6;
  return cfg;
}

NodeNetConfig OnPremNetConfig() {
  NodeNetConfig cfg;
  // 1.05 MB / 16.5 ms RTT = 509 Mb/s to the EU data center;
  // 1.05 MB / 150.5 ms  =  56 Mb/s to the US (Table 5 measures 60-80).
  cfg.tcp_window_bytes = 1.05e6;
  return cfg;
}

const std::map<std::string, SiteId>& SiteAliases() {
  static const auto& aliases = *new std::map<std::string, SiteId>{
      {"gc-us", kGcUs},     {"gc-eu", kGcEu},
      {"gc-asia", kGcAsia}, {"gc-aus", kGcAus},
      {"aws", kAwsUsWest},  {"azure", kAzureUsSouth},
      {"lambda", kLambdaUsWest}, {"onprem", kOnPremEu},
  };
  return aliases;
}

}  // namespace hivesim::net
