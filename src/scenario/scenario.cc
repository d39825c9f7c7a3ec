#include "scenario/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/json.h"
#include "common/json_parse.h"
#include "common/strings.h"
#include "common/units.h"
#include "net/profiles.h"

namespace hivesim::scenario {

namespace {

constexpr const char* kSchemaId = "hivesim-scenario/1";
/// Diurnal curves wrap over at most a week of hours.
constexpr size_t kMaxCurveHours = 168;

Status Err(size_t offset, std::string_view path, std::string_view message) {
  return Status::InvalidArgument(StrCat("scenario pack: ", path, ": ",
                                        message, " (offset ", offset, ")"));
}

/// Rejects keys outside `allowed` so typos fail instead of silently
/// meaning "default".
Status CheckKeys(const JsonValue& object, std::string_view path,
                 const std::vector<std::string>& allowed) {
  for (const auto& [key, value] : object.object) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      return Err(value.offset, path, StrCat("unknown key '", key, "'"));
    }
  }
  return Status::OK();
}

Result<double> GetNumber(const JsonValue& object, std::string_view path,
                         const std::string& key) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) {
    return Err(object.offset, path, StrCat("missing required '", key, "'"));
  }
  if (!value->is_number()) {
    return Err(value->offset, path, StrCat("'", key, "' must be a number"));
  }
  return value->number_value;
}

Result<double> GetNumberOr(const JsonValue& object, std::string_view path,
                           const std::string& key, double fallback) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) return fallback;
  if (!value->is_number()) {
    return Err(value->offset, path, StrCat("'", key, "' must be a number"));
  }
  return value->number_value;
}

Result<int> GetInt(const JsonValue& object, std::string_view path,
                   const std::string& key) {
  double v;
  HIVESIM_ASSIGN_OR_RETURN(v, GetNumber(object, path, key));
  if (v != std::floor(v) || std::abs(v) > 1e9) {
    return Err(object.Find(key)->offset, path,
               StrCat("'", key, "' must be an integer"));
  }
  return static_cast<int>(v);
}

Result<std::string> GetString(const JsonValue& object, std::string_view path,
                              const std::string& key) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) {
    return Err(object.offset, path, StrCat("missing required '", key, "'"));
  }
  if (!value->is_string()) {
    return Err(value->offset, path, StrCat("'", key, "' must be a string"));
  }
  return value->string_value;
}

Result<std::string> GetStringOr(const JsonValue& object,
                                std::string_view path,
                                const std::string& key,
                                const std::string& fallback) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) return fallback;
  if (!value->is_string()) {
    return Err(value->offset, path, StrCat("'", key, "' must be a string"));
  }
  return value->string_value;
}

Result<SiteRef> GetSiteRef(const JsonValue& object, std::string_view path,
                           const std::string& key) {
  std::string text;
  HIVESIM_ASSIGN_OR_RETURN(text,
                           GetString(object, path, key));
  if (StartsWith(text, "$site")) {
    const std::string digits = text.substr(5);
    char* end = nullptr;
    const long index = std::strtol(digits.c_str(), &end, 10);
    if (digits.empty() || *end != '\0' || index < 0) {
      return Err(object.Find(key)->offset, path,
                 StrCat("bad fleet-relative site '", text,
                        "' (want $site<N>)"));
    }
    return SiteRef{text};
  }
  if (net::SiteAliases().count(text) == 0) {
    return Err(object.Find(key)->offset, path,
               StrCat("unknown site '", text,
                      "' (alias or $site<N>; see `hivesim list`)"));
  }
  return SiteRef{text};
}

Result<net::Continent> GetZone(const JsonValue& object,
                               std::string_view path,
                               const std::string& key) {
  std::string text;
  HIVESIM_ASSIGN_OR_RETURN(text,
                           GetString(object, path, key));
  auto zone = ParseZoneName(text);
  if (!zone.ok()) {
    return Err(object.Find(key)->offset, path, zone.status().message());
  }
  return *zone;
}

/// Parses start/duration/unit into a TimeWindow with range checks:
/// start >= 0, duration > 0, and fractional values within [0, 1].
Result<TimeWindow> GetWindow(const JsonValue& object, std::string_view path) {
  TimeWindow window;
  HIVESIM_ASSIGN_OR_RETURN(window.start, GetNumber(object, path, "start"));
  HIVESIM_ASSIGN_OR_RETURN(window.duration,
                           GetNumber(object, path, "duration"));
  std::string unit;
  HIVESIM_ASSIGN_OR_RETURN(unit,
                           GetStringOr(object, path, "unit", "sec"));
  if (unit == "frac") {
    window.frac = true;
  } else if (unit != "sec") {
    return Err(object.Find("unit")->offset, path,
               StrCat("bad unit '", unit, "' (sec, frac)"));
  }
  if (window.start < 0) {
    return Err(object.Find("start")->offset, path, "'start' must be >= 0");
  }
  if (window.duration <= 0) {
    return Err(object.Find("duration")->offset, path,
               "'duration' must be > 0");
  }
  if (window.frac && (window.start > 1 || window.duration > 1)) {
    return Err(object.offset, path,
               "fractional start/duration must be within [0, 1]");
  }
  return window;
}

Result<When> GetWhen(const JsonValue& object, std::string_view path) {
  std::string text;
  HIVESIM_ASSIGN_OR_RETURN(text,
                           GetStringOr(object, path, "when", "always"));
  if (text == "always") return When::kAlways;
  if (text == "multi-site") return When::kMultiSite;
  if (text == "single-site") return When::kSingleSite;
  return Err(object.Find("when")->offset, path,
             StrCat("bad when '", text,
                    "' (always, multi-site, single-site)"));
}

Result<std::vector<double>> GetCurve(const JsonValue& object,
                                     std::string_view path,
                                     const std::string& key, double lo,
                                     double hi, const char* what) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) {
    return Err(object.offset, path, StrCat("missing required '", key, "'"));
  }
  if (!value->is_array() || value->array.empty() ||
      value->array.size() > kMaxCurveHours) {
    return Err(value->offset, path,
               StrCat("'", key, "' must be an array of 1..", kMaxCurveHours,
                      " hourly values"));
  }
  std::vector<double> curve;
  curve.reserve(value->array.size());
  for (const JsonValue& entry : value->array) {
    if (!entry.is_number() || entry.number_value < lo ||
        entry.number_value > hi) {
      return Err(entry.offset, path, what);
    }
    curve.push_back(entry.number_value);
  }
  return curve;
}

/// Fetches top-level section `key` as an array (or an empty vector when
/// absent) and parses each element through `parse_item`.
template <typename T, typename ParseItem>
Status ParseSection(const JsonValue& root, const std::string& key,
                    ParseItem parse_item, std::vector<T>& out) {
  const JsonValue* section = root.Find(key);
  if (section == nullptr) return Status::OK();
  if (!section->is_array()) {
    return Err(section->offset, key, "section must be an array");
  }
  for (size_t i = 0; i < section->array.size(); ++i) {
    const JsonValue& item = section->array[i];
    const std::string path = StrCat(key, "[", i, "]");
    if (!item.is_object()) {
      return Err(item.offset, path, "event must be an object");
    }
    Result<T> parsed = parse_item(item, path);
    if (!parsed.ok()) return parsed.status();
    out.push_back(std::move(*parsed));
  }
  return Status::OK();
}

Result<WanSpec> ParseWan(const JsonValue& item, const std::string& path) {
  HIVESIM_RETURN_IF_ERROR(CheckKeys(
      item, path, {"a", "b", "start", "duration", "unit",
                   "bandwidth_factor", "extra_rtt_ms", "when"}));
  WanSpec spec;
  HIVESIM_ASSIGN_OR_RETURN(spec.a, GetSiteRef(item, path, "a"));
  HIVESIM_ASSIGN_OR_RETURN(spec.b, GetSiteRef(item, path, "b"));
  HIVESIM_ASSIGN_OR_RETURN(spec.window, GetWindow(item, path));
  HIVESIM_ASSIGN_OR_RETURN(spec.bandwidth_factor,
                           GetNumber(item, path, "bandwidth_factor"));
  if (spec.bandwidth_factor < 0 || spec.bandwidth_factor > 1) {
    return Err(item.Find("bandwidth_factor")->offset, path,
               "'bandwidth_factor' must be within [0, 1]");
  }
  HIVESIM_ASSIGN_OR_RETURN(spec.extra_rtt_ms,
                           GetNumberOr(item, path, "extra_rtt_ms", 0));
  if (spec.extra_rtt_ms < 0) {
    return Err(item.Find("extra_rtt_ms")->offset, path,
               "'extra_rtt_ms' must be >= 0");
  }
  HIVESIM_ASSIGN_OR_RETURN(spec.when, GetWhen(item, path));
  return spec;
}

Result<ContentionSpec> ParseContention(const JsonValue& item,
                                       const std::string& path) {
  HIVESIM_RETURN_IF_ERROR(CheckKeys(
      item, path, {"a", "b", "start", "duration", "unit", "jobs"}));
  ContentionSpec spec;
  HIVESIM_ASSIGN_OR_RETURN(spec.a, GetSiteRef(item, path, "a"));
  HIVESIM_ASSIGN_OR_RETURN(spec.b, GetSiteRef(item, path, "b"));
  HIVESIM_ASSIGN_OR_RETURN(spec.window, GetWindow(item, path));
  HIVESIM_ASSIGN_OR_RETURN(spec.jobs, GetInt(item, path, "jobs"));
  if (spec.jobs < 2) {
    return Err(item.Find("jobs")->offset, path, "'jobs' must be >= 2");
  }
  return spec;
}

Result<DiurnalWanSpec> ParseDiurnalWan(const JsonValue& item,
                                       const std::string& path) {
  HIVESIM_RETURN_IF_ERROR(
      CheckKeys(item, path, {"a", "b", "hourly_bandwidth_factor"}));
  DiurnalWanSpec spec;
  HIVESIM_ASSIGN_OR_RETURN(spec.a, GetSiteRef(item, path, "a"));
  HIVESIM_ASSIGN_OR_RETURN(spec.b, GetSiteRef(item, path, "b"));
  HIVESIM_ASSIGN_OR_RETURN(
      spec.hourly_bandwidth_factor,
      GetCurve(item, path, "hourly_bandwidth_factor", 0, 1,
               "hourly bandwidth factor must be within [0, 1]"));
  return spec;
}

Result<SpotStormSpec> ParseSpotStorm(const JsonValue& item,
                                     const std::string& path) {
  HIVESIM_RETURN_IF_ERROR(CheckKeys(
      item, path, {"zone", "start", "duration", "unit",
                   "hazard_multiplier"}));
  SpotStormSpec spec;
  HIVESIM_ASSIGN_OR_RETURN(spec.zone, GetZone(item, path, "zone"));
  HIVESIM_ASSIGN_OR_RETURN(spec.window, GetWindow(item, path));
  HIVESIM_ASSIGN_OR_RETURN(spec.hazard_multiplier,
                           GetNumber(item, path, "hazard_multiplier"));
  if (spec.hazard_multiplier < 0) {
    return Err(item.Find("hazard_multiplier")->offset, path,
               "'hazard_multiplier' must be >= 0");
  }
  return spec;
}

Result<DiurnalPreemptionSpec> ParseDiurnalPreemption(
    const JsonValue& item, const std::string& path) {
  HIVESIM_RETURN_IF_ERROR(
      CheckKeys(item, path, {"zone", "hourly_multiplier"}));
  DiurnalPreemptionSpec spec;
  HIVESIM_ASSIGN_OR_RETURN(spec.zone, GetZone(item, path, "zone"));
  HIVESIM_ASSIGN_OR_RETURN(
      spec.hourly_multiplier,
      GetCurve(item, path, "hourly_multiplier", 0, 1e9,
               "hourly hazard multiplier must be >= 0"));
  return spec;
}

Result<ZoneStormSpec> ParseZoneStorm(const JsonValue& item,
                                     const std::string& path) {
  HIVESIM_RETURN_IF_ERROR(CheckKeys(
      item, path, {"zone", "start", "duration", "unit", "hazard_multiplier",
                   "crash_fraction", "restart_after_sec"}));
  ZoneStormSpec spec;
  HIVESIM_ASSIGN_OR_RETURN(spec.zone, GetZone(item, path, "zone"));
  HIVESIM_ASSIGN_OR_RETURN(spec.window, GetWindow(item, path));
  HIVESIM_ASSIGN_OR_RETURN(
      spec.hazard_multiplier,
      GetNumberOr(item, path, "hazard_multiplier", 1.0));
  if (spec.hazard_multiplier < 0) {
    return Err(item.Find("hazard_multiplier")->offset, path,
               "'hazard_multiplier' must be >= 0");
  }
  HIVESIM_ASSIGN_OR_RETURN(spec.crash_fraction,
                           GetNumber(item, path, "crash_fraction"));
  if (spec.crash_fraction < 0 || spec.crash_fraction > 1) {
    return Err(item.Find("crash_fraction")->offset, path,
               "'crash_fraction' must be within [0, 1]");
  }
  HIVESIM_ASSIGN_OR_RETURN(
      spec.restart_after_sec,
      GetNumberOr(item, path, "restart_after_sec", -1));
  return spec;
}

Result<CrashSpec> ParseCrash(const JsonValue& item, const std::string& path) {
  HIVESIM_RETURN_IF_ERROR(CheckKeys(
      item, path, {"peer", "at", "unit", "restart_after_sec"}));
  CrashSpec spec;
  HIVESIM_ASSIGN_OR_RETURN(spec.peer, GetInt(item, path, "peer"));
  if (spec.peer < 0) {
    return Err(item.Find("peer")->offset, path, "'peer' must be >= 0");
  }
  HIVESIM_ASSIGN_OR_RETURN(spec.at, GetNumber(item, path, "at"));
  std::string unit;
  HIVESIM_ASSIGN_OR_RETURN(unit,
                           GetStringOr(item, path, "unit", "sec"));
  if (unit == "frac") {
    spec.frac = true;
  } else if (unit != "sec") {
    return Err(item.Find("unit")->offset, path,
               StrCat("bad unit '", unit, "' (sec, frac)"));
  }
  if (spec.at < 0 || (spec.frac && spec.at > 1)) {
    return Err(item.Find("at")->offset, path, "'at' out of range");
  }
  HIVESIM_ASSIGN_OR_RETURN(
      spec.restart_after_sec,
      GetNumberOr(item, path, "restart_after_sec", -1));
  return spec;
}

Result<CrashStormSpec> ParseCrashStorm(const JsonValue& item,
                                       const std::string& path) {
  HIVESIM_RETURN_IF_ERROR(CheckKeys(
      item, path, {"peers", "start", "duration", "unit", "crashes",
                   "restart_after_sec"}));
  CrashStormSpec spec;
  const JsonValue* peers = item.Find("peers");
  if (peers == nullptr) {
    return Err(item.offset, path, "missing required 'peers'");
  }
  if (peers->is_string()) {
    if (peers->string_value == "all") {
      spec.peers.kind = PeerSelector::Kind::kAll;
    } else if (peers->string_value == "all-but-first") {
      spec.peers.kind = PeerSelector::Kind::kAllButFirst;
    } else {
      return Err(peers->offset, path,
                 StrCat("bad peers '", peers->string_value,
                        "' (all, all-but-first, or an index array)"));
    }
  } else if (peers->is_array() && !peers->array.empty()) {
    spec.peers.kind = PeerSelector::Kind::kList;
    for (const JsonValue& entry : peers->array) {
      if (!entry.is_number() ||
          entry.number_value != std::floor(entry.number_value) ||
          entry.number_value < 0) {
        return Err(entry.offset, path,
                   "'peers' entries must be non-negative member indices");
      }
      spec.peers.list.push_back(static_cast<int>(entry.number_value));
    }
  } else {
    return Err(peers->offset, path,
               "'peers' must be all, all-but-first, or a non-empty array");
  }
  HIVESIM_ASSIGN_OR_RETURN(spec.window, GetWindow(item, path));
  HIVESIM_ASSIGN_OR_RETURN(spec.crashes, GetInt(item, path, "crashes"));
  if (spec.crashes < 1) {
    return Err(item.Find("crashes")->offset, path, "'crashes' must be >= 1");
  }
  HIVESIM_ASSIGN_OR_RETURN(
      spec.restart_after_sec,
      GetNumberOr(item, path, "restart_after_sec", -1));
  return spec;
}

Result<SpotMarketSpec> ParseSpotMarket(const JsonValue& item,
                                       const std::string& path) {
  HIVESIM_RETURN_IF_ERROR(
      CheckKeys(item, path, {"monthly_interruption_rate"}));
  SpotMarketSpec spec;
  HIVESIM_ASSIGN_OR_RETURN(
      spec.monthly_interruption_rate,
      GetNumber(item, path, "monthly_interruption_rate"));
  if (!IsMonthlyRate(spec.monthly_interruption_rate)) {
    return Err(item.Find("monthly_interruption_rate")->offset, path,
               "'monthly_interruption_rate' must be within [0, 1)");
  }
  return spec;
}

Result<ReproInfo> ParseRepro(const JsonValue& item, const std::string& path) {
  HIVESIM_RETURN_IF_ERROR(CheckKeys(
      item, path, {"fleet", "seed", "duration_sec", "tbs", "model",
                   "oracle"}));
  ReproInfo repro;
  repro.present = true;
  HIVESIM_ASSIGN_OR_RETURN(repro.fleet, GetString(item, path, "fleet"));
  double seed;
  HIVESIM_ASSIGN_OR_RETURN(seed, GetNumber(item, path, "seed"));
  if (seed != std::floor(seed) || seed < 0 || seed > 9e15) {
    return Err(item.Find("seed")->offset, path,
               "'seed' must be a non-negative integer");
  }
  repro.seed = static_cast<uint64_t>(seed);
  HIVESIM_ASSIGN_OR_RETURN(repro.duration_sec,
                           GetNumber(item, path, "duration_sec"));
  if (repro.duration_sec <= 0) {
    return Err(item.Find("duration_sec")->offset, path,
               "'duration_sec' must be > 0");
  }
  HIVESIM_ASSIGN_OR_RETURN(repro.target_batch_size,
                           GetInt(item, path, "tbs"));
  if (repro.target_batch_size <= 0) {
    return Err(item.Find("tbs")->offset, path, "'tbs' must be > 0");
  }
  HIVESIM_ASSIGN_OR_RETURN(repro.model, GetString(item, path, "model"));
  HIVESIM_ASSIGN_OR_RETURN(repro.oracle,
                           GetStringOr(item, path, "oracle", ""));
  return repro;
}

// --- Serialization helpers --------------------------------------------

const char* WhenName(When when) {
  switch (when) {
    case When::kAlways:
      return "always";
    case When::kMultiSite:
      return "multi-site";
    case When::kSingleSite:
      return "single-site";
  }
  return "?";
}

void WriteWindow(JsonWriter& json, const TimeWindow& window) {
  json.Key("start").Number(window.start);
  json.Key("duration").Number(window.duration);
  json.Key("unit").String(window.frac ? "frac" : "sec");
}

}  // namespace

bool IsMonthlyRate(double rate) { return rate >= 0 && rate < 1; }

FleetView MakeFleetView(std::vector<FleetMember> members) {
  FleetView view;
  view.members = std::move(members);
  for (const FleetMember& member : view.members) {
    if (std::find(view.distinct_sites.begin(), view.distinct_sites.end(),
                  member.site) == view.distinct_sites.end()) {
      view.distinct_sites.push_back(member.site);
    }
  }
  return view;
}

Result<net::Continent> ParseZoneName(std::string_view name) {
  if (name == "US") return net::Continent::kUs;
  if (name == "EU") return net::Continent::kEu;
  if (name == "ASIA") return net::Continent::kAsia;
  if (name == "AUS") return net::Continent::kAus;
  return Status::InvalidArgument(
      StrCat("unknown zone '", name, "' (US, EU, ASIA, AUS)"));
}

Result<ScenarioPack> ParseScenario(std::string_view text) {
  JsonValue root;
  HIVESIM_ASSIGN_OR_RETURN(root, ParseJson(text));
  if (!root.is_object()) {
    return Err(root.offset, "$", "scenario pack must be a JSON object");
  }
  HIVESIM_RETURN_IF_ERROR(CheckKeys(
      root, "$",
      {"schema", "name", "description", "spot_market", "wan", "contention",
       "diurnal_wan", "spot_storms", "diurnal_preemption", "zone_storms",
       "crashes", "crash_storms", "repro"}));
  std::string schema;
  HIVESIM_ASSIGN_OR_RETURN(schema,
                           GetString(root, "$", "schema"));
  if (schema != kSchemaId) {
    return Err(root.Find("schema")->offset, "$",
               StrCat("unsupported schema '", schema, "' (want ", kSchemaId,
                      ")"));
  }
  ScenarioPack pack;
  HIVESIM_ASSIGN_OR_RETURN(pack.name, GetString(root, "$", "name"));
  if (pack.name.empty()) {
    return Err(root.Find("name")->offset, "$", "'name' must be non-empty");
  }
  HIVESIM_ASSIGN_OR_RETURN(pack.description,
                           GetStringOr(root, "$", "description", ""));
  const JsonValue* spot_market = root.Find("spot_market");
  if (spot_market != nullptr) {
    if (!spot_market->is_object()) {
      return Err(spot_market->offset, "spot_market", "must be an object");
    }
    HIVESIM_ASSIGN_OR_RETURN(pack.spot_market,
                             ParseSpotMarket(*spot_market, "spot_market"));
  }
  HIVESIM_RETURN_IF_ERROR(ParseSection(root, "wan", ParseWan, pack.wan));
  HIVESIM_RETURN_IF_ERROR(
      ParseSection(root, "contention", ParseContention, pack.contention));
  HIVESIM_RETURN_IF_ERROR(
      ParseSection(root, "diurnal_wan", ParseDiurnalWan, pack.diurnal_wan));
  HIVESIM_RETURN_IF_ERROR(
      ParseSection(root, "spot_storms", ParseSpotStorm, pack.spot_storms));
  HIVESIM_RETURN_IF_ERROR(ParseSection(root, "diurnal_preemption",
                                       ParseDiurnalPreemption,
                                       pack.diurnal_preemption));
  HIVESIM_RETURN_IF_ERROR(
      ParseSection(root, "zone_storms", ParseZoneStorm, pack.zone_storms));
  HIVESIM_RETURN_IF_ERROR(
      ParseSection(root, "crashes", ParseCrash, pack.crashes));
  HIVESIM_RETURN_IF_ERROR(ParseSection(root, "crash_storms", ParseCrashStorm,
                                       pack.crash_storms));
  const JsonValue* repro = root.Find("repro");
  if (repro != nullptr) {
    if (!repro->is_object()) {
      return Err(repro->offset, "repro", "must be an object");
    }
    HIVESIM_ASSIGN_OR_RETURN(pack.repro, ParseRepro(*repro, "repro"));
  }
  return pack;
}

Result<ScenarioPack> LoadScenarioFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError(StrCat("cannot open ", path));
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IOError(StrCat("cannot read ", path));
  Result<ScenarioPack> pack = ParseScenario(buffer.str());
  if (!pack.ok()) {
    return Status::InvalidArgument(
        StrCat(path, ": ", pack.status().message()));
  }
  return pack;
}

std::string ScenarioToJson(const ScenarioPack& pack) {
  JsonWriter json;
  json.BeginObject();
  json.Key("schema").String(kSchemaId);
  json.Key("name").String(pack.name);
  json.Key("description").String(pack.description);
  if (pack.spot_market) {
    json.Key("spot_market").BeginObject();
    json.Key("monthly_interruption_rate")
        .Number(pack.spot_market->monthly_interruption_rate);
    json.EndObject();
  }
  if (!pack.wan.empty()) {
    json.Key("wan").BeginArray();
    for (const WanSpec& spec : pack.wan) {
      json.BeginObject();
      json.Key("a").String(spec.a.text);
      json.Key("b").String(spec.b.text);
      WriteWindow(json, spec.window);
      json.Key("bandwidth_factor").Number(spec.bandwidth_factor);
      json.Key("extra_rtt_ms").Number(spec.extra_rtt_ms);
      json.Key("when").String(WhenName(spec.when));
      json.EndObject();
    }
    json.EndArray();
  }
  if (!pack.contention.empty()) {
    json.Key("contention").BeginArray();
    for (const ContentionSpec& spec : pack.contention) {
      json.BeginObject();
      json.Key("a").String(spec.a.text);
      json.Key("b").String(spec.b.text);
      WriteWindow(json, spec.window);
      json.Key("jobs").Int(spec.jobs);
      json.EndObject();
    }
    json.EndArray();
  }
  if (!pack.diurnal_wan.empty()) {
    json.Key("diurnal_wan").BeginArray();
    for (const DiurnalWanSpec& spec : pack.diurnal_wan) {
      json.BeginObject();
      json.Key("a").String(spec.a.text);
      json.Key("b").String(spec.b.text);
      json.Key("hourly_bandwidth_factor").BeginArray();
      for (const double f : spec.hourly_bandwidth_factor) json.Number(f);
      json.EndArray();
      json.EndObject();
    }
    json.EndArray();
  }
  if (!pack.spot_storms.empty()) {
    json.Key("spot_storms").BeginArray();
    for (const SpotStormSpec& spec : pack.spot_storms) {
      json.BeginObject();
      json.Key("zone").String(std::string(net::ContinentName(spec.zone)));
      WriteWindow(json, spec.window);
      json.Key("hazard_multiplier").Number(spec.hazard_multiplier);
      json.EndObject();
    }
    json.EndArray();
  }
  if (!pack.diurnal_preemption.empty()) {
    json.Key("diurnal_preemption").BeginArray();
    for (const DiurnalPreemptionSpec& spec : pack.diurnal_preemption) {
      json.BeginObject();
      json.Key("zone").String(std::string(net::ContinentName(spec.zone)));
      json.Key("hourly_multiplier").BeginArray();
      for (const double m : spec.hourly_multiplier) json.Number(m);
      json.EndArray();
      json.EndObject();
    }
    json.EndArray();
  }
  if (!pack.zone_storms.empty()) {
    json.Key("zone_storms").BeginArray();
    for (const ZoneStormSpec& spec : pack.zone_storms) {
      json.BeginObject();
      json.Key("zone").String(std::string(net::ContinentName(spec.zone)));
      WriteWindow(json, spec.window);
      json.Key("hazard_multiplier").Number(spec.hazard_multiplier);
      json.Key("crash_fraction").Number(spec.crash_fraction);
      json.Key("restart_after_sec").Number(spec.restart_after_sec);
      json.EndObject();
    }
    json.EndArray();
  }
  if (!pack.crashes.empty()) {
    json.Key("crashes").BeginArray();
    for (const CrashSpec& spec : pack.crashes) {
      json.BeginObject();
      json.Key("peer").Int(spec.peer);
      json.Key("at").Number(spec.at);
      json.Key("unit").String(spec.frac ? "frac" : "sec");
      json.Key("restart_after_sec").Number(spec.restart_after_sec);
      json.EndObject();
    }
    json.EndArray();
  }
  if (!pack.crash_storms.empty()) {
    json.Key("crash_storms").BeginArray();
    for (const CrashStormSpec& spec : pack.crash_storms) {
      json.BeginObject();
      json.Key("peers");
      switch (spec.peers.kind) {
        case PeerSelector::Kind::kAll:
          json.String("all");
          break;
        case PeerSelector::Kind::kAllButFirst:
          json.String("all-but-first");
          break;
        case PeerSelector::Kind::kList:
          json.BeginArray();
          for (const int index : spec.peers.list) json.Int(index);
          json.EndArray();
          break;
      }
      WriteWindow(json, spec.window);
      json.Key("crashes").Int(spec.crashes);
      json.Key("restart_after_sec").Number(spec.restart_after_sec);
      json.EndObject();
    }
    json.EndArray();
  }
  if (pack.repro.present) {
    json.Key("repro").BeginObject();
    json.Key("fleet").String(pack.repro.fleet);
    json.Key("seed").Int(static_cast<int64_t>(pack.repro.seed));
    json.Key("duration_sec").Number(pack.repro.duration_sec);
    json.Key("tbs").Int(pack.repro.target_batch_size);
    json.Key("model").String(pack.repro.model);
    json.Key("oracle").String(pack.repro.oracle);
    json.EndObject();
  }
  json.EndObject();
  return json.ToString();
}

Result<net::SiteId> ResolveSiteRef(const SiteRef& ref,
                                   const FleetView& fleet) {
  if (StartsWith(ref.text, "$site")) {
    if (fleet.distinct_sites.empty()) {
      return Status::FailedPrecondition(
          StrCat("cannot resolve '", ref.text, "' against an empty fleet"));
    }
    const size_t index =
        static_cast<size_t>(std::strtol(ref.text.c_str() + 5, nullptr, 10));
    return fleet.distinct_sites[std::min(index,
                                         fleet.distinct_sites.size() - 1)];
  }
  const auto it = net::SiteAliases().find(ref.text);
  if (it == net::SiteAliases().end()) {
    return Status::InvalidArgument(
        StrCat("unknown site alias '", ref.text, "'"));
  }
  return it->second;
}

Result<faults::ChaosSchedule> Compile(const ScenarioPack& pack,
                                      const FleetView& fleet,
                                      double duration_sec) {
  faults::ChaosSchedule schedule;
  // Packs built in code skip the parser's range check; every world built
  // from a pack comes through here.
  if (pack.spot_market &&
      !IsMonthlyRate(pack.spot_market->monthly_interruption_rate)) {
    return Status::InvalidArgument(
        StrCat("scenario pack '", pack.name,
               "': spot_market monthly_interruption_rate must be within "
               "[0, 1)"));
  }
  if (fleet.members.empty() || duration_sec <= 0) return schedule;
  const bool multi_site = fleet.distinct_sites.size() > 1;
  const auto applies = [multi_site](When when) {
    switch (when) {
      case When::kAlways:
        return true;
      case When::kMultiSite:
        return multi_site;
      case When::kSingleSite:
        return !multi_site;
    }
    return true;
  };
  const auto start_of = [duration_sec](const TimeWindow& window) {
    return window.frac ? window.start * duration_sec : window.start;
  };
  const auto duration_of = [duration_sec](const TimeWindow& window) {
    return window.frac ? window.duration * duration_sec : window.duration;
  };

  for (const WanSpec& spec : pack.wan) {
    if (!applies(spec.when)) continue;
    net::SiteId a;
    HIVESIM_ASSIGN_OR_RETURN(a,
                             ResolveSiteRef(spec.a, fleet));
    net::SiteId b;
    HIVESIM_ASSIGN_OR_RETURN(b,
                             ResolveSiteRef(spec.b, fleet));
    schedule.wan_events.push_back({a, b, start_of(spec.window),
                                   duration_of(spec.window),
                                   spec.bandwidth_factor,
                                   MsToSec(spec.extra_rtt_ms)});
  }
  for (const ContentionSpec& spec : pack.contention) {
    net::SiteId a;
    HIVESIM_ASSIGN_OR_RETURN(a,
                             ResolveSiteRef(spec.a, fleet));
    net::SiteId b;
    HIVESIM_ASSIGN_OR_RETURN(b,
                             ResolveSiteRef(spec.b, fleet));
    // N equal-share jobs on the path leave this job 1/N of the bandwidth.
    schedule.wan_events.push_back({a, b, start_of(spec.window),
                                   duration_of(spec.window), 1.0 / spec.jobs,
                                   0});
  }
  for (const DiurnalWanSpec& spec : pack.diurnal_wan) {
    net::SiteId a;
    HIVESIM_ASSIGN_OR_RETURN(a,
                             ResolveSiteRef(spec.a, fleet));
    net::SiteId b;
    HIVESIM_ASSIGN_OR_RETURN(b,
                             ResolveSiteRef(spec.b, fleet));
    const size_t hours = spec.hourly_bandwidth_factor.size();
    for (int h = 0; h * kHour < duration_sec; ++h) {
      const double factor =
          spec.hourly_bandwidth_factor[static_cast<size_t>(h) % hours];
      if (factor == 1.0) continue;
      schedule.wan_events.push_back({a, b, h * kHour, kHour, factor, 0});
    }
  }
  for (const SpotStormSpec& spec : pack.spot_storms) {
    schedule.spot_storms.push_back({spec.zone, start_of(spec.window),
                                    duration_of(spec.window),
                                    spec.hazard_multiplier});
  }
  for (const DiurnalPreemptionSpec& spec : pack.diurnal_preemption) {
    const size_t hours = spec.hourly_multiplier.size();
    for (int h = 0; h * kHour < duration_sec; ++h) {
      const double multiplier =
          spec.hourly_multiplier[static_cast<size_t>(h) % hours];
      if (multiplier == 1.0) continue;
      schedule.spot_storms.push_back({spec.zone, h * kHour, kHour, multiplier});
    }
  }
  for (const ZoneStormSpec& spec : pack.zone_storms) {
    if (spec.hazard_multiplier != 1.0) {
      schedule.spot_storms.push_back({spec.zone, start_of(spec.window),
                                      duration_of(spec.window),
                                      spec.hazard_multiplier});
    }
    std::vector<net::NodeId> nodes;
    for (const FleetMember& member : fleet.members) {
      if (member.continent == spec.zone) nodes.push_back(member.node);
    }
    const int count = static_cast<int>(
        std::floor(spec.crash_fraction * nodes.size() + 0.5));
    if (!nodes.empty() && count >= 1) {
      schedule.crash_storms.push_back({std::move(nodes),
                                       start_of(spec.window),
                                       duration_of(spec.window), count,
                                       spec.restart_after_sec});
    }
  }
  for (const CrashSpec& spec : pack.crashes) {
    if (static_cast<size_t>(spec.peer) >= fleet.members.size()) {
      return Status::InvalidArgument(
          StrCat("scenario pack '", pack.name, "': crash peer ", spec.peer,
                 " out of range for a fleet of ", fleet.members.size()));
    }
    const double at =
        spec.frac ? spec.at * duration_sec : spec.at;
    schedule.crashes.push_back(
        {fleet.members[static_cast<size_t>(spec.peer)].node, at,
         spec.restart_after_sec});
  }
  for (const CrashStormSpec& spec : pack.crash_storms) {
    std::vector<net::NodeId> nodes;
    switch (spec.peers.kind) {
      case PeerSelector::Kind::kAll:
        for (const FleetMember& member : fleet.members) {
          nodes.push_back(member.node);
        }
        break;
      case PeerSelector::Kind::kAllButFirst:
        for (size_t i = 1; i < fleet.members.size(); ++i) {
          nodes.push_back(fleet.members[i].node);
        }
        break;
      case PeerSelector::Kind::kList:
        for (const int index : spec.peers.list) {
          if (static_cast<size_t>(index) >= fleet.members.size()) {
            return Status::InvalidArgument(StrCat(
                "scenario pack '", pack.name, "': crash storm peer ", index,
                " out of range for a fleet of ", fleet.members.size()));
          }
          nodes.push_back(fleet.members[static_cast<size_t>(index)].node);
        }
        break;
    }
    if (nodes.empty()) continue;  // all-but-first on a 1-peer fleet.
    const int crashes =
        std::min(spec.crashes, static_cast<int>(nodes.size()));
    schedule.crash_storms.push_back({std::move(nodes), start_of(spec.window),
                                     duration_of(spec.window), crashes,
                                     spec.restart_after_sec});
  }
  HIVESIM_RETURN_IF_ERROR(schedule.Validate());
  return schedule;
}

}  // namespace hivesim::scenario
