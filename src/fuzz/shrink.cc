#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "fuzz/fuzz.h"
#include "fuzz/internal.h"
#include "models/model_zoo.h"

namespace hivesim::fuzz {

namespace {

using scenario::ScenarioPack;

/// Greedy one-at-a-time event removal over one section; keeps a removal
/// whenever the candidate still fails. Deterministic: events are tried
/// front to back, and the index only advances past survivors.
template <typename T>
bool RemovePass(ScenarioPack& pack, std::vector<T> ScenarioPack::*section,
                const OracleFn& still_fails) {
  bool removed = false;
  size_t i = 0;
  while (i < (pack.*section).size()) {
    ScenarioPack candidate = pack;
    auto& events = candidate.*section;
    events.erase(events.begin() + static_cast<long>(i));
    if (still_fails(candidate)) {
      pack = std::move(candidate);
      removed = true;
    } else {
      ++i;
    }
  }
  return removed;
}

/// One sweep of removal over every section in canonical order, repeated
/// until a full sweep removes nothing.
bool RemovalFixpoint(ScenarioPack& pack, const OracleFn& still_fails) {
  bool any = false;
  bool removed = true;
  while (removed) {
    removed = false;
    removed |= RemovePass(pack, &ScenarioPack::wan, still_fails);
    removed |= RemovePass(pack, &ScenarioPack::contention, still_fails);
    removed |= RemovePass(pack, &ScenarioPack::diurnal_wan, still_fails);
    removed |= RemovePass(pack, &ScenarioPack::spot_storms, still_fails);
    removed |=
        RemovePass(pack, &ScenarioPack::diurnal_preemption, still_fails);
    removed |= RemovePass(pack, &ScenarioPack::zone_storms, still_fails);
    removed |= RemovePass(pack, &ScenarioPack::crashes, still_fails);
    removed |= RemovePass(pack, &ScenarioPack::crash_storms, still_fails);
    any |= removed;
  }
  return any;
}

/// Fixed absolute grids for parameter bisection. The grids never depend
/// on the value being shrunk — that is what makes shrinking idempotent:
/// re-shrinking a minimized pack walks the exact same probe sequence and
/// lands on the exact same grid points.
std::vector<double> FracGrid64() {
  std::vector<double> grid;
  for (int k = 0; k <= 64; ++k) grid.push_back(k / 64.0);
  return grid;
}
std::vector<double> DurationGrid64() {
  std::vector<double> grid;
  for (int k = 1; k <= 64; ++k) grid.push_back(k / 64.0);  // no 0: windows
  return grid;                                             // need extent
}
std::vector<double> FactorGrid16() {
  std::vector<double> grid;
  for (int j = 0; j <= 16; ++j) grid.push_back(j / 16.0);
  return grid;
}

/// Lower-bound search: the smallest grid index whose substitution still
/// fails (-1 if none). For a monotone predicate this is the classic
/// bisection; for a non-monotone one it is still a deterministic choice.
int GridSearch(int lo, int hi, const std::function<bool(int)>& fails) {
  int best = -1;
  while (lo <= hi) {
    const int mid = lo + (hi - lo) / 2;
    if (fails(mid)) {
      best = mid;
      hi = mid - 1;
    } else {
      lo = mid + 1;
    }
  }
  return best;
}

/// Bisects one numeric parameter over `grid`, keeping the smallest value
/// that still fails. Returns true when the pack changed.
bool Tune(ScenarioPack& pack, const OracleFn& still_fails,
          const std::vector<double>& grid, double current,
          const std::function<void(ScenarioPack&, double)>& set) {
  const int best = GridSearch(
      0, static_cast<int>(grid.size()) - 1, [&](int index) {
        ScenarioPack candidate = pack;
        set(candidate, grid[index]);
        return still_fails(candidate);
      });
  if (best < 0 || grid[static_cast<size_t>(best)] == current) return false;
  set(pack, grid[static_cast<size_t>(best)]);
  return true;
}

/// Bisects a fractional window in place: duration first (smallest failing
/// 1/64 step), then start (earliest failing 1/64 step). Absolute-second
/// windows are left alone — their natural grid depends on the run
/// duration, which the pack alone does not know.
bool TuneWindow(ScenarioPack& pack, const OracleFn& still_fails,
                const std::function<scenario::TimeWindow&(ScenarioPack&)>&
                    window_of) {
  if (!window_of(pack).frac) return false;
  static const std::vector<double> starts = FracGrid64();
  static const std::vector<double> durations = DurationGrid64();
  bool changed = false;
  changed |= Tune(pack, still_fails, durations, window_of(pack).duration,
                  [&](ScenarioPack& p, double v) {
                    window_of(p).duration = v;
                  });
  changed |= Tune(pack, still_fails, starts, window_of(pack).start,
                  [&](ScenarioPack& p, double v) { window_of(p).start = v; });
  return changed;
}

bool TuneList(ScenarioPack& pack, const OracleFn& still_fails,
              const std::vector<double>& values, double current,
              const std::function<void(ScenarioPack&, double)>& set) {
  // Small unordered option sets ("restart never / after 1 / 5 / 10
  // minutes"): first listed value that still fails wins.
  for (const double value : values) {
    if (value == current) break;  // already at (or before) this preference
    ScenarioPack candidate = pack;
    set(candidate, value);
    if (still_fails(candidate)) {
      set(pack, value);
      return true;
    }
  }
  return false;
}

bool ParamPass(ScenarioPack& pack, const OracleFn& still_fails) {
  static const std::vector<double> frac = FracGrid64();
  static const std::vector<double> factor = FactorGrid16();
  static const std::vector<double> rtt = {0, 25, 50, 100, 200, 400};
  static const std::vector<double> jobs = {2, 3, 4, 8, 16};
  static const std::vector<double> restart = {-1, 60, 300, 600};
  static const std::vector<double> counts = {1, 2, 3, 4};
  static const std::vector<double> fraction = {0, 0.25, 0.5, 0.75, 1.0};
  bool changed = false;

  for (size_t i = 0; i < pack.wan.size(); ++i) {
    changed |= TuneWindow(
        pack, still_fails,
        [i](ScenarioPack& p) -> scenario::TimeWindow& {
          return p.wan[i].window;
        });
    changed |= Tune(pack, still_fails, factor, pack.wan[i].bandwidth_factor,
                    [i](ScenarioPack& p, double v) {
                      p.wan[i].bandwidth_factor = v;
                    });
    changed |= Tune(pack, still_fails, rtt, pack.wan[i].extra_rtt_ms,
                    [i](ScenarioPack& p, double v) {
                      p.wan[i].extra_rtt_ms = v;
                    });
  }
  for (size_t i = 0; i < pack.contention.size(); ++i) {
    changed |= TuneWindow(
        pack, still_fails,
        [i](ScenarioPack& p) -> scenario::TimeWindow& {
          return p.contention[i].window;
        });
    changed |= Tune(pack, still_fails, jobs,
                    static_cast<double>(pack.contention[i].jobs),
                    [i](ScenarioPack& p, double v) {
                      p.contention[i].jobs = static_cast<int>(v);
                    });
  }
  for (size_t i = 0; i < pack.diurnal_wan.size(); ++i) {
    for (size_t h = 0; h < pack.diurnal_wan[i].hourly_bandwidth_factor.size();
         ++h) {
      changed |= Tune(pack, still_fails, factor,
                      pack.diurnal_wan[i].hourly_bandwidth_factor[h],
                      [i, h](ScenarioPack& p, double v) {
                        p.diurnal_wan[i].hourly_bandwidth_factor[h] = v;
                      });
    }
  }
  for (size_t i = 0; i < pack.zone_storms.size(); ++i) {
    changed |= TuneWindow(
        pack, still_fails,
        [i](ScenarioPack& p) -> scenario::TimeWindow& {
          return p.zone_storms[i].window;
        });
    changed |= Tune(pack, still_fails, fraction,
                    pack.zone_storms[i].crash_fraction,
                    [i](ScenarioPack& p, double v) {
                      p.zone_storms[i].crash_fraction = v;
                    });
    changed |= TuneList(pack, still_fails, restart,
                        pack.zone_storms[i].restart_after_sec,
                        [i](ScenarioPack& p, double v) {
                          p.zone_storms[i].restart_after_sec = v;
                        });
  }
  for (size_t i = 0; i < pack.crashes.size(); ++i) {
    if (pack.crashes[i].frac) {
      changed |= Tune(pack, still_fails, frac, pack.crashes[i].at,
                      [i](ScenarioPack& p, double v) { p.crashes[i].at = v; });
    }
    changed |= TuneList(pack, still_fails, restart,
                        pack.crashes[i].restart_after_sec,
                        [i](ScenarioPack& p, double v) {
                          p.crashes[i].restart_after_sec = v;
                        });
  }
  for (size_t i = 0; i < pack.crash_storms.size(); ++i) {
    changed |= TuneWindow(
        pack, still_fails,
        [i](ScenarioPack& p) -> scenario::TimeWindow& {
          return p.crash_storms[i].window;
        });
    changed |= Tune(pack, still_fails, counts,
                    static_cast<double>(pack.crash_storms[i].crashes),
                    [i](ScenarioPack& p, double v) {
                      p.crash_storms[i].crashes = static_cast<int>(v);
                    });
    changed |= TuneList(pack, still_fails, restart,
                        pack.crash_storms[i].restart_after_sec,
                        [i](ScenarioPack& p, double v) {
                          p.crash_storms[i].restart_after_sec = v;
                        });
  }
  return changed;
}

}  // namespace

ScenarioPack ShrinkPack(const ScenarioPack& pack, const OracleFn& still_fails) {
  // Shrinking is only meaningful from a failing pack; a passing input is
  // returned untouched (and keeps ShrinkPack idempotent on any input).
  if (!still_fails(pack)) return pack;
  ScenarioPack shrunk = pack;
  bool changed = true;
  // The bound is a safety net against pathological oracle landscapes
  // where two parameters keep re-tuning each other; real shrinks reach
  // the fixpoint in two or three rounds.
  for (int round = 0; changed && round < 16; ++round) {
    changed = RemovalFixpoint(shrunk, still_fails);
    changed |= ParamPass(shrunk, still_fails);
  }
  return shrunk;
}

ScenarioPack ShrinkCase(const FuzzCase& fuzz_case, const FuzzOptions& options,
                        const Verdict& verdict) {
  const OracleFn still_fails = [&](const ScenarioPack& candidate) {
    FuzzCase probe = fuzz_case;
    probe.pack = candidate;
    const Verdict v = RunOracles(probe, options);
    return v.ran && !v.ok && v.oracle == verdict.oracle;
  };
  ScenarioPack minimized = WithRepro(ShrinkPack(fuzz_case.pack, still_fails),
                                     fuzz_case, verdict);
  minimized.description =
      "minimized reproducer (hivesim fuzz, oracle " + verdict.oracle + ")";
  return minimized;
}

ScenarioPack WithRepro(ScenarioPack pack, const FuzzCase& fuzz_case,
                       const Verdict& verdict) {
  pack.repro.present = true;
  pack.repro.fleet = fuzz_case.fleet_spec;
  pack.repro.seed = fuzz_case.world_seed;
  pack.repro.duration_sec = fuzz_case.sim_duration_sec;
  pack.repro.target_batch_size = fuzz_case.target_batch_size;
  pack.repro.model =
      std::string(models::ModelName(models::ModelId::kConvNextLarge));
  pack.repro.oracle = verdict.oracle;
  return pack;
}

}  // namespace hivesim::fuzz
