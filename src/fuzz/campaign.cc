#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>

#include "common/host_clock.h"
#include "common/logging.h"
#include "common/strings.h"
#include "fuzz/fuzz.h"

namespace hivesim::fuzz {

namespace {

constexpr uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void Fold(uint64_t* digest, std::string_view bytes) {
  for (const char c : bytes) {
    *digest ^= static_cast<unsigned char>(c);
    *digest *= kFnvPrime;
  }
}

Status WriteRepro(const std::string& dir, const scenario::ScenarioPack& pack,
                  std::string* path_out) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(fs::path(dir), ec);
  if (ec) {
    return Status::IOError(StrCat("cannot create ", dir, ": ", ec.message()));
  }
  const fs::path path = fs::path(dir) / (pack.name + ".json");
  std::ofstream out(path, std::ios::binary);
  if (out) out << scenario::ScenarioToJson(pack) << "\n";
  if (!out) {
    return Status::IOError(StrCat("cannot write ", path.string()));
  }
  *path_out = path.string();
  return Status::OK();
}

}  // namespace

Result<CampaignResult> RunCampaign(const FuzzOptions& options) {
  if (options.runs < 1) {
    return Status::InvalidArgument("fuzz campaign needs at least one run");
  }
  if (options.max_events < 1) {
    return Status::InvalidArgument("fuzz max_events must be at least 1");
  }
  if (options.sim_duration_sec <= 0) {
    return Status::InvalidArgument("fuzz sim duration must be positive");
  }
  // Every world of a non-positive TBS is rejected, so the campaign would
  // test nothing and still pass.
  if (options.target_batch_size <= 0) {
    return Status::InvalidArgument("fuzz target batch size must be positive");
  }
  if (options.budget_sec < 0) {
    return Status::InvalidArgument(
        "fuzz wall budget must be >= 0 (0 = none)");
  }
  CampaignResult result;
  uint64_t digest = kFnvBasis;
  const double start_sec = HostClock::Seconds();

  for (int iteration = 0; iteration < options.runs; ++iteration) {
    if (options.budget_sec > 0 &&
        HostClock::Seconds() - start_sec > options.budget_sec) {
      result.truncated = true;
      break;
    }
    const FuzzCase fuzz_case = GenerateCase(options, iteration);
    ++result.cases;
    Fold(&digest, fuzz_case.pack.name);
    Fold(&digest, fuzz_case.fleet_spec);

    // A generator that emits a non-canonical pack is itself a bug the
    // campaign must surface — it cannot be shrunk (shrinking runs the
    // world oracles, not the form checker), only reported.
    const Status canonical = CheckCanonical(fuzz_case);
    if (!canonical.ok()) {
      ++result.failures;
      result.failure_oracles.push_back("canonical-form");
      Fold(&digest, "canonical-form");
      Fold(&digest, canonical.ToString());
      HIVESIM_LOG(Warning) << "fuzz case " << fuzz_case.pack.name
                        << " is non-canonical: " << canonical.ToString();
      continue;
    }

    const Verdict verdict = RunOracles(fuzz_case, options);
    if (!verdict.ran) {
      ++result.rejected;
      Fold(&digest, "rejected");
      Fold(&digest, verdict.detail);
      continue;
    }
    ++result.ran;
    if (verdict.ok) {
      Fold(&digest, "ok");
      continue;
    }

    ++result.failures;
    result.failure_oracles.push_back(verdict.oracle);
    Fold(&digest, verdict.oracle);
    Fold(&digest, verdict.detail);
    HIVESIM_LOG(Warning) << "fuzz case " << fuzz_case.pack.name
                      << " failed oracle " << verdict.oracle << ": "
                      << verdict.detail;

    const scenario::ScenarioPack minimized =
        options.shrink ? ShrinkCase(fuzz_case, options, verdict)
                       : WithRepro(fuzz_case.pack, fuzz_case, verdict);
    const std::string bytes = scenario::ScenarioToJson(minimized);
    Fold(&digest, bytes);
    if (!options.repro_dir.empty()) {
      std::string path;
      HIVESIM_RETURN_IF_ERROR(WriteRepro(options.repro_dir, minimized, &path));
      result.repro_files.push_back(std::move(path));
      HIVESIM_LOG(Warning) << "wrote minimized reproducer "
                        << result.repro_files.back() << " ("
                        << minimized.NumEvents() << " events)";
    }
  }

  result.digest = digest;
  return result;
}

}  // namespace hivesim::fuzz
