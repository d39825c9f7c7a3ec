// fuzz_campaign: the same sim/net/trainer stack used differently. Cases
// come from fuzz::GenerateCase with default FuzzOptions (only the seed
// varies); each runs twice under its random chaos pack inside
// fuzz::RunOracles, which installs the program's own trace and metrics
// sinks. Crashes, partitions and WAN degradation cause cancels, Refresh
// calls and retried or aborted rounds, and telemetry, scenario compilation
// and oracle comparison take the host time paper_grid spends training.

#include <memory>

#include "checks.h"
#include "common/strings.h"
#include "fuzz/fuzz.h"
#include "workloads.h"

namespace perfbench {

using namespace hivesim;

namespace {

constexpr uint64_t kDefaultSeed = 1;

struct Campaign {
  /// fuzz::RunCampaign's fold, so it equals the campaign's digest for the
  /// same seed and case count whenever no case fails.
  uint64_t digest = kFnvBasis;
  int ran = 0;
  int rejected = 0;
  int failures = 0;
};

class FuzzCampaign : public WorkloadRunner {
 public:
  FuzzCampaign(uint64_t seed, int cases, uint64_t expected_digest)
      : cases_(cases), expected_digest_(expected_digest) {
    options_.seed = seed;
  }

  Rep RunRep(SpanRecorder* spans) override {
    Rep rep;
    std::vector<fuzz::FuzzCase> cases;
    std::vector<Status> canonical;
    rep.setup_s = Timed(spans, "setup", [&] {
      for (int i = 0; i < cases_; ++i) {
        Traced(spans, "fuzz.generate", [&] {
          cases.push_back(fuzz::GenerateCase(options_, i));
          canonical.push_back(fuzz::CheckCanonical(cases.back()));
        });
      }
    });

    Campaign campaign;
    for (size_t i = 0; i < cases.size(); ++i) {
      const fuzz::FuzzCase& fuzz_case = cases[i];
      FnvFold(&campaign.digest, fuzz_case.pack.name);
      FnvFold(&campaign.digest, fuzz_case.fleet_spec);
      ++rep.attempted;
      if (!canonical[i].ok()) {
        ++campaign.failures;
        FnvFold(&campaign.digest, "canonical-form");
        FnvFold(&campaign.digest, canonical[i].ToString());
        rep.problems.push_back(StrCat(fuzz_case.pack.name, " non-canonical: ",
                                      canonical[i].ToString()));
        continue;
      }
      fuzz::Verdict verdict;
      rep.Step(spans, "fuzz.oracles",
               [&] { verdict = fuzz::RunOracles(fuzz_case, options_); });
      if (!verdict.ran) {
        ++campaign.rejected;
        FnvFold(&campaign.digest, "rejected");
        FnvFold(&campaign.digest, verdict.detail);
        continue;
      }
      ++campaign.ran;
      // Both runs of a case reach its duration (the deadlock oracle).
      rep.sim_s += 2 * fuzz_case.sim_duration_sec;
      if (verdict.ok) {
        FnvFold(&campaign.digest, "ok");
        continue;
      }
      ++campaign.failures;
      FnvFold(&campaign.digest, verdict.oracle);
      FnvFold(&campaign.digest, verdict.detail);
      rep.problems.push_back(StrCat(fuzz_case.pack.name, " failed oracle ",
                                    verdict.oracle, ": ", verdict.detail));
    }
    rep.failed += campaign.failures;
    std::vector<std::string> problems =
        CheckFuzz(campaign.failures, campaign.digest, expected_digest_);
    if (first_ == nullptr) {
      first_ = std::make_unique<Campaign>(campaign);
    } else if (campaign.digest != first_->digest) {
      problems.push_back("campaign digest differs between repetitions");
    }
    rep.problems.insert(rep.problems.end(), problems.begin(), problems.end());
    return rep;
  }

  void LayerMetrics(const std::vector<Span>& spans,
                    const std::vector<int>& rep_ids,
                    const std::vector<Rep>& /*untraced*/,
                    Report* report) override {
    std::map<std::string, double>& m = report->per_layer;
    m["fuzz.generate_s"] = MedianPerRep(spans, rep_ids, "fuzz.generate", false);
    m["fuzz.generate.calls"] = CallsPerRep(spans, rep_ids, "fuzz.generate");
    std::vector<double> oracles_ms = DurationsUs(spans, "fuzz.oracles");
    for (double& value : oracles_ms) value /= 1e3;
    m["fuzz.oracles_ms_p50"] = Percentile(oracles_ms, 0.5);
    m["fuzz.oracles_ms_p90"] = Percentile(oracles_ms, 0.9);
    m["fuzz.cases"] = cases_;
    m["fuzz.ran"] = first_->ran;
    m["fuzz.rejected"] = first_->rejected;
    m["fuzz.failures"] = first_->failures;
    m["fuzz.reject_ratio"] = static_cast<double>(first_->rejected) / cases_;
  }

  std::string Summary() const override {
    return StrFormat("campaign digest %016llx over %d cases: %d ran, %d "
                     "rejected, %d failed%s",
                     static_cast<unsigned long long>(digest()), cases_,
                     first_->ran, first_->rejected, first_->failures,
                     expected_digest_ != 0 ? "; digest checked" : "");
  }

  uint64_t digest() const { return first_ ? first_->digest : 0; }

 private:
  fuzz::FuzzOptions options_;
  int cases_;
  uint64_t expected_digest_;
  std::unique_ptr<Campaign> first_;
};

}  // namespace

std::unique_ptr<WorkloadRunner> MakeFuzzCampaign(const RunOptions& options,
                                                 Report* report) {
  uint64_t expected = 0;
  if (options.seed == kDefaultSeed) {
    auto loaded = LoadFuzzDigest(options.data_dir + "/fuzz_digests.tsv",
                                 options.seed, kFuzzCases);
    if (!loaded.ok() || *loaded == 0) {
      report->problems.push_back(
          loaded.ok() ? "no committed fuzz digest for the default seed"
                      : loaded.status().ToString());
      return nullptr;
    }
    expected = *loaded;
  }
  return std::make_unique<FuzzCampaign>(options.seed, kFuzzCases, expected);
}

std::string EmitFuzzDigest(uint64_t seed) {
  FuzzCampaign campaign(seed, kFuzzCases, 0);
  const Rep rep = campaign.RunRep(nullptr);
  return StrFormat("# seed\tcases\tdigest\n%llu\t%d\t%016llx\n",
                   static_cast<unsigned long long>(seed), kFuzzCases,
                   static_cast<unsigned long long>(campaign.digest())) +
         (rep.problems.empty() ? "" : "# campaign had failures\n");
}

uint64_t FuzzInputsDigest(uint64_t seed) {
  fuzz::FuzzOptions options;
  options.seed = seed;
  uint64_t digest = kFnvBasis;
  for (int i = 0; i < kFuzzCases; ++i) {
    const fuzz::FuzzCase fuzz_case = fuzz::GenerateCase(options, i);
    FnvFold(&digest, fuzz_case.fleet_spec);
    FnvFold(&digest, scenario::ScenarioToJson(fuzz_case.pack));
  }
  return digest;
}

uint64_t CampaignDigest(uint64_t seed, int cases) {
  FuzzCampaign campaign(seed, cases, 0);
  (void)campaign.RunRep(nullptr);
  return campaign.digest();
}

}  // namespace perfbench
