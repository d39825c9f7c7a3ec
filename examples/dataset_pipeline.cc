// Dataset pipeline: generates a synthetic ImageNet-style WebDataset (tar
// shards with {jpg, cls} records), then streams it back through the
// multi-epoch shard loader — the exact I/O path a training peer uses —
// and prints what streaming it from Backblaze B2 would cost.
//
//   $ ./build/examples/dataset_pipeline [num_samples=500]

#include <filesystem>
#include <iostream>

#include "cloud/pricing.h"
#include "common/flags.h"
#include "common/strings.h"
#include "common/table_writer.h"
#include "common/units.h"
#include "data/loader.h"
#include "data/synthetic.h"

int main(int argc, char** argv) {
  using namespace hivesim;

  int num_samples = 500;
  if (argc > 1) {
    auto parsed = ParseIntArg("num_samples", argv[1]);
    if (!parsed.ok()) {
      std::cerr << parsed.status().ToString() << "\n";
      return 1;
    }
    num_samples = *parsed;
  }
  const std::string dir =
      (std::filesystem::temp_directory_path() / "hivesim_quickstart_ds")
          .string();

  data::SyntheticDatasetConfig config;
  config.domain = models::Domain::kCV;
  config.num_samples = num_samples;
  config.samples_per_shard = 100;
  config.sample_bytes = 16 * kKB;  // Scaled-down JPEGs for the demo.
  config.seed = 7;

  std::cout << "Generating " << num_samples
            << " synthetic samples into WebDataset shards under " << dir
            << "...\n";
  auto manifest = data::GenerateSyntheticDataset(dir, config);
  if (!manifest.ok()) {
    std::cerr << manifest.status().ToString() << "\n";
    return 1;
  }
  std::cout << "  " << manifest->shard_paths.size() << " shards, "
            << FormatBytes(static_cast<double>(manifest->total_bytes))
            << " on disk\n";

  auto dataset = data::ShardDataset::Open(manifest->shard_paths,
                                          /*shuffle=*/true, /*seed=*/1);
  if (!dataset.ok()) {
    std::cerr << dataset.status().ToString() << "\n";
    return 1;
  }

  // Stream two full epochs, as a training loop would.
  uint64_t bytes_read = 0;
  for (int i = 0; i < 2 * num_samples; ++i) {
    auto sample = (*dataset)->Next();
    if (!sample.ok()) {
      std::cerr << "read failed: " << sample.status().ToString() << "\n";
      return 1;
    }
    bytes_read += sample->TotalBytes();
  }

  TableWriter table({"Metric", "Value"});
  table.AddRow({"Samples streamed",
                StrFormat("%llu", (unsigned long long)(*dataset)->samples_read())});
  table.AddRow({"Epochs completed", StrFormat("%d", (*dataset)->epoch())});
  table.AddRow({"Payload bytes read",
                FormatBytes(static_cast<double>(bytes_read))});
  table.Print(std::cout);

  // What the real thing costs: ImageNet-1K streamed once from B2.
  const auto& profile = data::DatasetFor(models::ModelId::kConvNextLarge);
  const double dataset_bytes = profile.total_samples * profile.sample_bytes;
  std::cout << "\nStreaming the real " << profile.name << " once ("
            << FormatBytes(dataset_bytes) << ") from Backblaze B2 costs "
            << FormatDollars(
                   TrafficCost(dataset_bytes, cloud::DataIngressPricePerGb()))
            << "; storing it costs "
            << FormatDollars(dataset_bytes / kGB *
                             cloud::StoragePricePerGbMonth())
            << "/month. After the first pass the shard cache serves "
               "re-reads for free.\n";
  return 0;
}
