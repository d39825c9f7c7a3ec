#ifndef HIVESIM_SCENARIO_SCENARIO_H_
#define HIVESIM_SCENARIO_SCENARIO_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "faults/chaos.h"
#include "net/location.h"

namespace hivesim::scenario {

/// Scenario packs: fault scripts as *data*, and the one form in which a
/// fault script enters a world. A pack is a JSON file (or the same
/// `ScenarioPack` built in code) describing WAN windows, diurnal
/// bandwidth/preemption curves, correlated zone-wide preemption storms,
/// multi-job WAN contention, and node churn. `Compile` turns it into the
/// `faults::ChaosSchedule` the injector arms, and is the only producer
/// of one. Packs are compiled against a concrete fleet (`FleetView`), so
/// one file means "the same failure, relative to this fleet" for every
/// fleet. docs/SCENARIOS.md is the schema reference.

/// How a pack event refers to a site: a fixed alias ("gc-us", "aws", ...)
/// or a fleet-relative "$siteN" — the N-th *distinct* site of the fleet
/// in first-appearance order, clamped to the last one (so "$site1" on a
/// single-site fleet degrades the fleet's own intra-site path, exactly
/// like the legacy presets did). Validated at parse, resolved at compile.
struct SiteRef {
  std::string text;
};

/// Scope guard for an event: apply always, only when the fleet spans
/// more than one distinct site, or only when it does not. This is how
/// the `partition` preset's single-site fallback is expressed as data.
enum class When {
  kAlways,
  kMultiSite,
  kSingleSite,
};

/// A start/duration pair, either in absolute seconds or as fractions of
/// the run duration (resolved as `frac * duration_sec` at compile time,
/// reproducing the legacy presets' arithmetic bit for bit).
struct TimeWindow {
  double start = 0;
  double duration = 0;
  bool frac = false;
};

/// One WAN window: bandwidth scaled by `bandwidth_factor` (0 = full
/// partition) and `extra_rtt_ms` added for the window.
struct WanSpec {
  SiteRef a;
  SiteRef b;
  TimeWindow window;
  double bandwidth_factor = 1.0;
  double extra_rtt_ms = 0;
  When when = When::kAlways;
};

/// Multi-job WAN contention: `jobs` equal-share training jobs on the
/// path give each job 1/jobs of the bandwidth for the window.
struct ContentionSpec {
  SiteRef a;
  SiteRef b;
  TimeWindow window;
  int jobs = 2;
};

/// Diurnal WAN bandwidth schedule: hour h of the run (wrapping over the
/// curve) scales the path's bandwidth by `hourly_bandwidth_factor[h %
/// size]`. Factor 1 hours compile to nothing.
struct DiurnalWanSpec {
  SiteRef a;
  SiteRef b;
  std::vector<double> hourly_bandwidth_factor;
};

/// The pack's spot market: a world built with this section rents every
/// spot fleet member as an auto-restarting VM on a `cloud::SpotMarket`
/// with this 30-day interruption rate (finite, within [0, 1)), so spot
/// interruptions remove and re-join trainer peers. Every hazard event
/// (spot storms, diurnal preemption, zone-storm hazards) needs it.
struct SpotMarketSpec {
  double monthly_interruption_rate = 0.10;
};

/// True when `rate` is a valid `monthly_interruption_rate`: finite and
/// within [0, 1) (1 would make the hazard infinite). The pack parser,
/// `Compile` (so every world built from an in-code pack) and CLI inputs
/// all check rates with this.
bool IsMonthlyRate(double rate);

/// A scripted spot-hazard window (requires the `spot_market` section).
struct SpotStormSpec {
  net::Continent zone = net::Continent::kUs;
  TimeWindow window;
  double hazard_multiplier = 1.0;
};

/// Diurnal per-zone preemption curve: hour h multiplies the zone's spot
/// interruption hazard by `hourly_multiplier[h % size]` (the daylight
/// capacity crunches of transient-GPU fleets). Multiplier 1 hours
/// compile to nothing; requires the `spot_market` section.
struct DiurnalPreemptionSpec {
  net::Continent zone = net::Continent::kUs;
  std::vector<double> hourly_multiplier;
};

/// A correlated zone-wide preemption storm: every spot VM in `zone` sees
/// `hazard_multiplier` on its hazard for the window (compiled only when
/// != 1), and `crash_fraction` of the fleet's peers in that zone crash
/// at seeded-random times inside the window, restarting
/// `restart_after_sec` later (< 0 = never). This is the trainer-visible
/// form of zone-correlated preemption and needs no `spot_market` section
/// when `hazard_multiplier` is 1.
struct ZoneStormSpec {
  net::Continent zone = net::Continent::kUs;
  TimeWindow window;
  double hazard_multiplier = 1.0;
  double crash_fraction = 0.5;
  double restart_after_sec = -1;
};

/// A scripted crash of fleet peer `peer` (member index, 0-based).
struct CrashSpec {
  int peer = 0;
  double at = 0;
  // hivesim-lint: allow(K1) reason=a flag against its false default: the pack parser sets it for "unit": "frac", and the fuzz generator for its fractional crash times
  bool frac = false;
  double restart_after_sec = -1;
};

/// Which peers a crash storm draws from.
struct PeerSelector {
  enum class Kind {
    kAll,
    kAllButFirst,  ///< Legacy churn: never the first, the swarm survives.
    kList,         ///< Explicit member indices.
  };
  Kind kind = Kind::kAllButFirst;
  std::vector<int> list;
};

/// A randomized churn burst over the window; `crashes` is clamped to the
/// number of resolved peers at compile (legacy churn's min(2, n)).
struct CrashStormSpec {
  PeerSelector peers;
  TimeWindow window;
  int crashes = 1;
  double restart_after_sec = -1;
};

/// Reproducer context written by `hivesim fuzz`: everything needed to
/// re-run the failing world without the generating campaign.
struct ReproInfo {
  bool present = false;
  std::string fleet;  ///< Fleet spec, "gc-us:2,aws:1".
  uint64_t seed = 1;  ///< World/injector seed.
  double duration_sec = 0;
  int target_batch_size = 0;
  std::string model;   ///< Model short name ("CONV").
  std::string oracle;  ///< Failing oracle id at capture time.
};

/// A parsed scenario pack. Section order here is the canonical event
/// order everywhere: serialization, compilation, and the fuzzer's
/// shrinking all walk wan -> contention -> diurnal_wan -> spot_storms ->
/// diurnal_preemption -> zone_storms -> crashes -> crash_storms.
/// `spot_market` is world setup, not an event; it serializes before the
/// event sections.
struct ScenarioPack {
  std::string name;
  std::string description;
  std::optional<SpotMarketSpec> spot_market;
  std::vector<WanSpec> wan;
  std::vector<ContentionSpec> contention;
  std::vector<DiurnalWanSpec> diurnal_wan;
  std::vector<SpotStormSpec> spot_storms;
  std::vector<DiurnalPreemptionSpec> diurnal_preemption;
  std::vector<ZoneStormSpec> zone_storms;
  std::vector<CrashSpec> crashes;
  std::vector<CrashStormSpec> crash_storms;
  ReproInfo repro;

  /// Total number of events across every section.
  size_t NumEvents() const {
    return wan.size() + contention.size() + diurnal_wan.size() +
           spot_storms.size() + diurnal_preemption.size() +
           zone_storms.size() + crashes.size() + crash_storms.size();
  }
};

/// The fleet a pack is compiled against: member order is cluster member
/// order (peer indices), `distinct_sites` is first-appearance order
/// (what "$siteN" resolves through).
struct FleetMember {
  net::NodeId node = 0;
  net::SiteId site = 0;
  net::Continent continent = net::Continent::kUs;
};
struct FleetView {
  std::vector<FleetMember> members;
  std::vector<net::SiteId> distinct_sites;
};

/// Builds a view from members, deriving `distinct_sites`.
FleetView MakeFleetView(std::vector<FleetMember> members);

// --- Parsing / serialization ------------------------------------------

/// Parses a JSON scenario pack (schema "hivesim-scenario/1"). Strict:
/// unknown keys, wrong types, and out-of-range values are
/// InvalidArgument errors tagged with the byte offset of the offending
/// value — malformed fields never fall back to defaults.
Result<ScenarioPack> ParseScenario(std::string_view text);

/// Reads `path` and parses it with `ParseScenario`, whatever its
/// extension. A parse error is InvalidArgument prefixed with the path;
/// an unreadable file is IOError.
Result<ScenarioPack> LoadScenarioFile(const std::string& path);

/// Canonical serialization: compact JsonWriter JSON with fixed key
/// order, every event field explicit, and round-tripping numbers.
/// Deterministic — `ParseScenario(ScenarioToJson(p))` reproduces `p`
/// and re-serializes to identical bytes (the fuzzer's reproducer files
/// and the committed preset packs rely on this).
std::string ScenarioToJson(const ScenarioPack& pack);

// --- Compilation ------------------------------------------------------

/// Resolves a site ref against the fleet; error only for aliases the
/// standard world does not know (caught at parse already). An empty
/// fleet resolves nothing — Compile returns an empty schedule for it.
Result<net::SiteId> ResolveSiteRef(const SiteRef& ref,
                                   const FleetView& fleet);

/// Compiles the pack against a fleet into the chaos schedule to arm.
/// `duration_sec` anchors fractional windows and diurnal curves. Errors
/// are peer indices out of range, a `spot_market` rate outside [0, 1),
/// and (belt) schedule validation; events guarded by a non-matching
/// `when` clause, crash storms resolving to zero peers, and
/// factor/multiplier-1 diurnal hours compile to nothing.
Result<faults::ChaosSchedule> Compile(const ScenarioPack& pack,
                                      const FleetView& fleet,
                                      double duration_sec);

// --- Builtin packs (the sweep chaos axis's named entries) -------------

/// Names of the builtin packs: "wan-degrade", "partition", "churn",
/// plus the documented diurnal example "zone-diurnal".
const std::vector<std::string>& BuiltinScenarioNames();

/// The builtin pack for `name`; InvalidArgument for unknown names.
/// `scenarios/<name>.json` in the repo holds the identical canonical
/// bytes (tests enforce file == ScenarioToJson(BuiltinScenario(name))).
Result<ScenarioPack> BuiltinScenario(std::string_view name);

/// Zone (continent) name parsing for pack fields: "US", "EU", "ASIA",
/// "AUS" (the names `net::ContinentName` prints).
Result<net::Continent> ParseZoneName(std::string_view name);

}  // namespace hivesim::scenario

#endif  // HIVESIM_SCENARIO_SCENARIO_H_
