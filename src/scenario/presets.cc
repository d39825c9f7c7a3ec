// The builtin scenario packs a sweep's `--chaos NAME` resolves to
// (`wan-degrade`/`partition`/`churn`, plus the documented diurnal
// example). The committed files under scenarios/ hold the exact canonical
// serialization of these packs (tests enforce the byte identity), so a
// builtin name and its pack file can never drift apart.

#include "scenario/scenario.h"

#include "common/strings.h"

namespace hivesim::scenario {

namespace {

ScenarioPack WanDegradePack() {
  ScenarioPack pack;
  pack.name = "wan-degrade";
  pack.description =
      "WAN path between the fleet's first two distinct sites degrades to "
      "10% bandwidth +100 ms RTT for the middle quarter of the run";
  WanSpec wan;
  wan.a = {"$site0"};
  wan.b = {"$site1"};
  wan.window = {0.25, 0.25, /*frac=*/true};
  wan.bandwidth_factor = 0.10;
  wan.extra_rtt_ms = 100;
  wan.when = When::kAlways;
  pack.wan.push_back(wan);
  return pack;
}

ScenarioPack PartitionPack() {
  ScenarioPack pack;
  pack.name = "partition";
  pack.description =
      "Full partition of the fleet's first two distinct sites for run "
      "fraction [0.5, 0.625]; single-site fleets get the degrade window "
      "instead (partitioning a site against itself would sever every "
      "peer from every other)";
  WanSpec partition;
  partition.a = {"$site0"};
  partition.b = {"$site1"};
  partition.window = {0.5, 0.125, /*frac=*/true};
  partition.bandwidth_factor = 0;
  partition.extra_rtt_ms = 0;
  partition.when = When::kMultiSite;
  pack.wan.push_back(partition);
  WanSpec fallback;
  fallback.a = {"$site0"};
  fallback.b = {"$site1"};
  fallback.window = {0.5, 0.125, /*frac=*/true};
  fallback.bandwidth_factor = 0.10;
  fallback.extra_rtt_ms = 100;
  fallback.when = When::kSingleSite;
  pack.wan.push_back(fallback);
  return pack;
}

ScenarioPack ChurnPack() {
  ScenarioPack pack;
  pack.name = "churn";
  pack.description =
      "Churn burst over run fraction [0.4, 0.6): up to two peers (never "
      "the first, so the swarm survives) crash and return 10 minutes "
      "later";
  CrashStormSpec storm;
  storm.peers.kind = PeerSelector::Kind::kAllButFirst;
  storm.window = {0.4, 0.2, /*frac=*/true};
  storm.crashes = 2;
  storm.restart_after_sec = 600;
  pack.crash_storms.push_back(storm);
  return pack;
}

ScenarioPack ZoneDiurnalPack() {
  ScenarioPack pack;
  pack.name = "zone-diurnal";
  pack.description =
      "Diurnal WAN tide on the fleet's first inter-site path (6-hour "
      "cycle) plus a correlated US zone-wide preemption storm at run "
      "fraction [0.5, 0.625]: half the US peers crash and return 10 "
      "minutes later";
  DiurnalWanSpec tide;
  tide.a = {"$site0"};
  tide.b = {"$site1"};
  tide.hourly_bandwidth_factor = {1, 0.85, 0.7, 0.55, 0.7, 0.85};
  pack.diurnal_wan.push_back(tide);
  ZoneStormSpec storm;
  storm.zone = net::Continent::kUs;
  storm.window = {0.5, 0.125, /*frac=*/true};
  storm.hazard_multiplier = 1;
  storm.crash_fraction = 0.5;
  storm.restart_after_sec = 600;
  pack.zone_storms.push_back(storm);
  return pack;
}

}  // namespace

const std::vector<std::string>& BuiltinScenarioNames() {
  static const auto& names = *new std::vector<std::string>{
      "wan-degrade", "partition", "churn", "zone-diurnal"};
  return names;
}

Result<ScenarioPack> BuiltinScenario(std::string_view name) {
  if (name == "wan-degrade") return WanDegradePack();
  if (name == "partition") return PartitionPack();
  if (name == "churn") return ChurnPack();
  if (name == "zone-diurnal") return ZoneDiurnalPack();
  return Status::InvalidArgument(
      StrCat("unknown builtin scenario '", name, "' (",
             StrJoin(BuiltinScenarioNames(), ", "), ")"));
}

}  // namespace hivesim::scenario
