#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "core/catalog.h"
#include "fuzz/fuzz.h"
#include "fuzz/internal.h"
#include "net/profiles.h"

namespace hivesim::fuzz {

namespace {

using internal::kSites;
constexpr int kNumSites = static_cast<int>(sizeof(kSites) / sizeof(kSites[0]));

/// Shrink-friendly grids: every generated value sits on the same absolute
/// grids the shrinker bisects over (1/64 run fractions, 1/16 factors), so
/// minimized packs stay within the generated value space.
double FracGrid(Rng& rng, int lo, int hi) {
  return static_cast<double>(rng.UniformInt(lo, hi)) / 64.0;
}

/// Per-(site-pair) window allocation state. `cursor` is the run fraction
/// the next window may start at (keeps wan/contention windows on one pair
/// sorted and non-overlapping); `diurnal` locks the pair to its curve.
struct PairState {
  double cursor = 0;
  bool diurnal = false;
};

/// A window starting at or after `cursor`, on the 1/64 grid, advancing
/// the cursor past it (plus a 1/64 gap). Fails when the pair's timeline
/// is nearly used up.
bool AllocWindow(Rng& rng, double* cursor, scenario::TimeWindow* window) {
  if (*cursor > 0.85) return false;
  const double start = *cursor + FracGrid(rng, 0, 4);
  const double max_duration = 1.0 - start;
  if (max_duration < 1.0 / 64.0) return false;
  const int max_steps =
      std::min(8, static_cast<int>(max_duration * 64.0));
  const double duration = FracGrid(rng, 1, max_steps);
  window->start = start;
  window->duration = duration;
  window->frac = true;
  *cursor = start + duration + 1.0 / 64.0;
  return true;
}

std::pair<int, int> PickPair(Rng& rng, int num_sites) {
  if (num_sites < 2) return {0, 1};  // "$site1" clamps to the only site.
  const int a = static_cast<int>(rng.UniformInt(0, num_sites - 1));
  int b = static_cast<int>(rng.UniformInt(0, num_sites - 2));
  if (b >= a) ++b;
  return {std::min(a, b), std::max(a, b)};
}

scenario::SiteRef Ref(int index) {
  return {StrCat("$site", index)};
}

double PickRestart(Rng& rng) {
  switch (rng.UniformInt(0, 2)) {
    case 0:
      return -1;
    case 1:
      return 300;
    default:
      return 600;
  }
}

void SortPack(scenario::ScenarioPack& pack) {
  std::stable_sort(pack.wan.begin(), pack.wan.end(),
                   [](const scenario::WanSpec& x, const scenario::WanSpec& y) {
                     return x.window.start < y.window.start;
                   });
  std::stable_sort(pack.contention.begin(), pack.contention.end(),
                   [](const scenario::ContentionSpec& x,
                      const scenario::ContentionSpec& y) {
                     return x.window.start < y.window.start;
                   });
  std::stable_sort(pack.zone_storms.begin(), pack.zone_storms.end(),
                   [](const scenario::ZoneStormSpec& x,
                      const scenario::ZoneStormSpec& y) {
                     return x.window.start < y.window.start;
                   });
  std::stable_sort(pack.crashes.begin(), pack.crashes.end(),
                   [](const scenario::CrashSpec& x,
                      const scenario::CrashSpec& y) { return x.at < y.at; });
  std::stable_sort(pack.crash_storms.begin(), pack.crash_storms.end(),
                   [](const scenario::CrashStormSpec& x,
                      const scenario::CrashStormSpec& y) {
                     return x.window.start < y.window.start;
                   });
}

/// A FleetView equivalent to what provisioning would produce: members in
/// group order with placeholder node ids (compile only needs order,
/// sites, and continents — good enough for canonical-form checking
/// without building a world).
scenario::FleetView SpecFleetView(const core::ClusterSpec& spec) {
  const net::Topology topology = net::StandardWorld();
  std::vector<scenario::FleetMember> members;
  net::NodeId next = 1;
  for (const core::VmGroup& group : spec.groups) {
    for (int i = 0; i < group.count; ++i) {
      members.push_back(
          {next++, group.site, topology.site(group.site).continent});
    }
  }
  return scenario::MakeFleetView(std::move(members));
}

Status WindowsSortedAndDisjoint(
    const std::map<std::string, std::vector<std::pair<double, double>>>&
        by_pair) {
  for (const auto& [pair, windows] : by_pair) {
    double last_end = -1;
    for (const auto& [start, end] : windows) {
      if (start < last_end) {
        return Status::InvalidArgument(
            StrCat("overlapping windows on pair ", pair));
      }
      last_end = end;
    }
  }
  return Status::OK();
}

std::string PairKey(const scenario::SiteRef& a, const scenario::SiteRef& b) {
  return a.text <= b.text ? StrCat(a.text, "|", b.text)
                          : StrCat(b.text, "|", a.text);
}

}  // namespace

FuzzCase GenerateCase(const FuzzOptions& options, int iteration) {
  const uint64_t case_seed =
      options.seed ^
      (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(iteration + 1));
  Rng rng(case_seed);

  FuzzCase fuzz_case;
  // Reproducer packs store the seed as a JSON number, so it must survive
  // a double round-trip: keep it in the 52-bit integer-exact range. (The
  // first fuzz campaign found this — a full 64-bit seed serialized as a
  // negative int64 and the strict parser refused its own reproducer.)
  fuzz_case.world_seed = case_seed & ((uint64_t{1} << 52) - 1);
  fuzz_case.sim_duration_sec = options.sim_duration_sec;
  fuzz_case.target_batch_size = options.target_batch_size;

  // --- Fleet: 1-3 distinct sites, 1-3 VMs each, at least 2 VMs. ---
  const int num_groups = static_cast<int>(rng.UniformInt(1, 3));
  std::vector<int> chosen;
  while (static_cast<int>(chosen.size()) < num_groups) {
    const int pick = static_cast<int>(rng.UniformInt(0, kNumSites - 1));
    if (std::find(chosen.begin(), chosen.end(), pick) == chosen.end()) {
      chosen.push_back(pick);
    }
  }
  std::vector<int> counts(chosen.size());
  int total = 0;
  for (size_t i = 0; i < chosen.size(); ++i) {
    counts[i] = static_cast<int>(rng.UniformInt(1, 3));
    total += counts[i];
  }
  if (total < 2) {
    counts[0] = 2;
    total = 2;
  }
  for (size_t i = 0; i < chosen.size(); ++i) {
    if (i) fuzz_case.fleet_spec += ",";
    fuzz_case.fleet_spec += StrCat(kSites[chosen[i]].alias, ":", counts[i]);
  }
  if (auto cluster = core::ParseFleetSpec(fuzz_case.fleet_spec);
      cluster.ok()) {
    fuzz_case.cluster = *cluster;
  }
  std::vector<net::Continent> continents;
  for (const int site : chosen) {
    if (std::find(continents.begin(), continents.end(),
                  kSites[site].continent) == continents.end()) {
      continents.push_back(kSites[site].continent);
    }
  }

  // --- Pack: up to max_events events over the section palette. ---
  scenario::ScenarioPack& pack = fuzz_case.pack;
  pack.name = StrFormat("fuzz-%016llx-%03d",
                        static_cast<unsigned long long>(case_seed), iteration);
  pack.description = "generated chaos fuzz case";

  std::map<std::pair<int, int>, PairState> pairs;
  std::map<net::Continent, double> zone_cursor;
  double storm_cursor = 0;

  const int num_events =
      static_cast<int>(rng.UniformInt(1, std::max(1, options.max_events)));
  for (int e = 0; e < num_events; ++e) {
    int kind = static_cast<int>(rng.UniformInt(0, 5));

    if (kind == 0 || kind == 1) {  // wan / contention window
      const std::pair<int, int> pair = PickPair(rng, num_groups);
      PairState& state = pairs[pair];
      scenario::TimeWindow window;
      if (state.diurnal || !AllocWindow(rng, &state.cursor, &window)) {
        kind = 4;  // pair timeline exhausted: degrade to a crash
      } else if (kind == 0) {
        scenario::WanSpec wan;
        wan.a = Ref(pair.first);
        wan.b = Ref(pair.second);
        wan.window = window;
        wan.bandwidth_factor =
            static_cast<double>(rng.UniformInt(0, 12)) / 16.0;
        const int rtt = static_cast<int>(rng.UniformInt(0, 3));
        wan.extra_rtt_ms = rtt == 0 ? 0 : 50.0 * (1 << (rtt - 1));
        const int when = static_cast<int>(rng.UniformInt(0, 3));
        wan.when = when == 2   ? scenario::When::kMultiSite
                   : when == 3 ? scenario::When::kSingleSite
                               : scenario::When::kAlways;
        pack.wan.push_back(std::move(wan));
      } else {
        scenario::ContentionSpec contention;
        contention.a = Ref(pair.first);
        contention.b = Ref(pair.second);
        contention.window = window;
        const int jobs[] = {2, 3, 4, 8};
        contention.jobs = jobs[rng.UniformInt(0, 3)];
        pack.contention.push_back(std::move(contention));
      }
    }

    if (kind == 2) {  // diurnal bandwidth curve (pair must be unused)
      const std::pair<int, int> pair = PickPair(rng, num_groups);
      PairState& state = pairs[pair];
      if (state.diurnal || state.cursor > 0) {
        kind = 4;
      } else {
        state.diurnal = true;
        scenario::DiurnalWanSpec diurnal;
        diurnal.a = Ref(pair.first);
        diurnal.b = Ref(pair.second);
        const int hours = static_cast<int>(rng.UniformInt(2, 6));
        for (int h = 0; h < hours; ++h) {
          diurnal.hourly_bandwidth_factor.push_back(
              static_cast<double>(rng.UniformInt(8, 16)) / 16.0);
        }
        diurnal.hourly_bandwidth_factor.back() =
            std::min(diurnal.hourly_bandwidth_factor.back(), 12.0 / 16.0);
        pack.diurnal_wan.push_back(std::move(diurnal));
      }
    }

    if (kind == 3) {  // zone-wide preemption storm (trainer-visible form)
      const net::Continent zone =
          continents[rng.UniformInt(0, continents.size() - 1)];
      scenario::TimeWindow window;
      if (!AllocWindow(rng, &zone_cursor[zone], &window)) {
        kind = 4;
      } else {
        scenario::ZoneStormSpec storm;
        storm.zone = zone;
        storm.window = window;
        // Hazard stays 1: generated packs carry no spot_market section,
        // and a world rejects hazard windows without one.
        storm.hazard_multiplier = 1.0;
        const double fractions[] = {0.25, 0.5, 1.0};
        storm.crash_fraction = fractions[rng.UniformInt(0, 2)];
        storm.restart_after_sec = PickRestart(rng);
        pack.zone_storms.push_back(std::move(storm));
      }
    }

    if (kind == 4) {  // scripted crash
      scenario::CrashSpec crash;
      crash.peer = static_cast<int>(rng.UniformInt(0, total - 1));
      crash.at = FracGrid(rng, 1, 60);
      crash.frac = true;
      crash.restart_after_sec = PickRestart(rng);
      pack.crashes.push_back(std::move(crash));
    }

    if (kind == 5) {  // randomized churn burst
      scenario::TimeWindow window;
      if (!AllocWindow(rng, &storm_cursor, &window)) {
        scenario::CrashSpec crash;
        crash.peer = static_cast<int>(rng.UniformInt(0, total - 1));
        crash.at = FracGrid(rng, 1, 60);
        crash.frac = true;
        crash.restart_after_sec = PickRestart(rng);
        pack.crashes.push_back(std::move(crash));
      } else {
        scenario::CrashStormSpec storm;
        const int selector = static_cast<int>(rng.UniformInt(0, 2));
        if (selector == 0) {
          storm.peers.kind = scenario::PeerSelector::Kind::kAll;
        } else if (selector == 1) {
          storm.peers.kind = scenario::PeerSelector::Kind::kAllButFirst;
        } else {
          storm.peers.kind = scenario::PeerSelector::Kind::kList;
          std::set<int> picks;
          const int want =
              static_cast<int>(rng.UniformInt(1, std::min(3, total)));
          while (static_cast<int>(picks.size()) < want) {
            picks.insert(static_cast<int>(rng.UniformInt(0, total - 1)));
          }
          storm.peers.list.assign(picks.begin(), picks.end());
        }
        storm.window = window;
        storm.crashes = static_cast<int>(rng.UniformInt(1, 3));
        storm.restart_after_sec = rng.Bernoulli(0.5) ? 600 : -1;
        pack.crash_storms.push_back(std::move(storm));
      }
    }
  }

  SortPack(pack);
  return fuzz_case;
}

Status CheckCanonical(const FuzzCase& fuzz_case) {
  const scenario::ScenarioPack& pack = fuzz_case.pack;
  if (fuzz_case.cluster.groups.empty()) {
    return Status::InvalidArgument("fuzz case has an empty fleet");
  }
  const scenario::FleetView fleet = SpecFleetView(fuzz_case.cluster);
  const int num_peers = static_cast<int>(fleet.members.size());

  // Hazard events need a spot_market section, which generated packs do
  // not carry.
  if (!pack.spot_storms.empty() || !pack.diurnal_preemption.empty()) {
    return Status::InvalidArgument("generated pack has spot-hazard events");
  }
  for (const scenario::ZoneStormSpec& storm : pack.zone_storms) {
    if (storm.hazard_multiplier != 1.0) {
      return Status::InvalidArgument("zone storm with hazard multiplier");
    }
  }

  // All generated windows are run fractions inside [0, 1].
  const auto check_window = [](const scenario::TimeWindow& w) -> Status {
    if (!w.frac) return Status::InvalidArgument("non-fractional window");
    if (w.start < 0 || w.duration <= 0 || w.start + w.duration > 1.0 + 1e-12) {
      return Status::InvalidArgument("window outside the run");
    }
    return Status::OK();
  };

  // Per-pair sorted + disjoint interval windows; diurnal pairs exclusive.
  std::map<std::string, std::vector<std::pair<double, double>>> by_pair;
  double last = -1;
  for (const scenario::WanSpec& wan : pack.wan) {
    HIVESIM_RETURN_IF_ERROR(check_window(wan.window));
    if (wan.window.start < last) {
      return Status::InvalidArgument("wan section not sorted by start");
    }
    last = wan.window.start;
    by_pair[PairKey(wan.a, wan.b)].push_back(
        {wan.window.start, wan.window.start + wan.window.duration});
  }
  last = -1;
  for (const scenario::ContentionSpec& contention : pack.contention) {
    HIVESIM_RETURN_IF_ERROR(check_window(contention.window));
    if (contention.window.start < last) {
      return Status::InvalidArgument("contention section not sorted");
    }
    last = contention.window.start;
    by_pair[PairKey(contention.a, contention.b)]
        .push_back({contention.window.start,
                    contention.window.start + contention.window.duration});
  }
  for (auto& [pair, windows] : by_pair) {
    std::sort(windows.begin(), windows.end());
  }
  HIVESIM_RETURN_IF_ERROR(WindowsSortedAndDisjoint(by_pair));
  std::set<std::string> diurnal_pairs;
  for (const scenario::DiurnalWanSpec& diurnal : pack.diurnal_wan) {
    const std::string key = PairKey(diurnal.a, diurnal.b);
    if (!diurnal_pairs.insert(key).second) {
      return Status::InvalidArgument(
          StrCat("two diurnal curves on pair ", key));
    }
    if (by_pair.count(key)) {
      return Status::InvalidArgument(
          StrCat("diurnal pair ", key, " also has interval windows"));
    }
    if (diurnal.hourly_bandwidth_factor.empty()) {
      return Status::InvalidArgument("empty diurnal curve");
    }
  }

  // Zones must exist in the fleet; storms sorted.
  last = -1;
  for (const scenario::ZoneStormSpec& storm : pack.zone_storms) {
    HIVESIM_RETURN_IF_ERROR(check_window(storm.window));
    if (storm.window.start < last) {
      return Status::InvalidArgument("zone_storms section not sorted");
    }
    last = storm.window.start;
    bool found = false;
    for (const scenario::FleetMember& member : fleet.members) {
      if (member.continent == storm.zone) found = true;
    }
    if (!found) {
      return Status::InvalidArgument(
          StrCat("zone storm in continent ",
                 net::ContinentName(storm.zone), " with no fleet peers"));
    }
  }

  // Crashes sorted, peer indices in range.
  last = -1;
  for (const scenario::CrashSpec& crash : pack.crashes) {
    if (crash.at < last) {
      return Status::InvalidArgument("crashes section not sorted");
    }
    last = crash.at;
    if (crash.peer < 0 || crash.peer >= num_peers) {
      return Status::InvalidArgument(
          StrCat("crash peer ", crash.peer, " out of range"));
    }
  }
  last = -1;
  for (const scenario::CrashStormSpec& storm : pack.crash_storms) {
    HIVESIM_RETURN_IF_ERROR(check_window(storm.window));
    if (storm.window.start < last) {
      return Status::InvalidArgument("crash_storms section not sorted");
    }
    last = storm.window.start;
    for (const int peer : storm.peers.list) {
      if (peer < 0 || peer >= num_peers) {
        return Status::InvalidArgument(
            StrCat("crash storm peer ", peer, " out of range"));
      }
    }
  }

  // The pack must compile and validate against its own fleet, and
  // round-trip through the canonical serialization byte-stably.
  HIVESIM_RETURN_IF_ERROR(
      scenario::Compile(pack, fleet, fuzz_case.sim_duration_sec).status());
  const std::string json = scenario::ScenarioToJson(pack);
  scenario::ScenarioPack reparsed;
  HIVESIM_ASSIGN_OR_RETURN(reparsed,
                           scenario::ParseScenario(json));
  if (scenario::ScenarioToJson(reparsed) != json) {
    return Status::Internal("pack does not round-trip byte-stably");
  }
  return Status::OK();
}

}  // namespace hivesim::fuzz
