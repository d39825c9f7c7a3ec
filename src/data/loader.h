#ifndef HIVESIM_DATA_LOADER_H_
#define HIVESIM_DATA_LOADER_H_

#include <string_view>

#include "models/model_zoo.h"

namespace hivesim::data {

/// On-the-wire profile of the paper's datasets, for the simulator's
/// ingress cost accounting (B2 at $0.01/GB, Fig. 11).
struct DatasetProfile {
  std::string_view name;
  double total_samples;  ///< Dataset size (epoch length).
  double sample_bytes;   ///< Mean streamed bytes per sample.
};

/// Profile of the dataset `model` trains on (ImageNet-1K for CV, March'22
/// Wikipedia for NLP, CommonVoice spectrograms for ASR).
const DatasetProfile& DatasetFor(models::ModelId model);

/// Tracks how many bytes a peer streams from B2: WebDataset caches shards
/// locally, so re-reads of already-seen samples are free ("one-time costs
/// until the entire dataset is downloaded", Section 5). Each peer streams
/// its own partition of the dataset.
class StreamingIngressMeter {
 public:
  /// `dataset_share_samples`: how many distinct samples this peer can see
  /// (total dataset / number of peers under shard partitioning).
  StreamingIngressMeter(double dataset_share_samples, double sample_bytes)
      : share_samples_(dataset_share_samples), sample_bytes_(sample_bytes) {}

  /// Records that the peer consumed `n` more samples.
  void OnSamplesConsumed(double n) { consumed_ += n; }

  /// Bytes actually streamed from B2 so far (caps at the full share).
  double StreamedBytes() const;
  /// True once the peer's partition is fully cached on local disk.
  bool FullyCached() const { return consumed_ >= share_samples_; }
  double consumed_samples() const { return consumed_; }

 private:
  double share_samples_;
  double sample_bytes_;
  double consumed_ = 0;
};

}  // namespace hivesim::data

#endif  // HIVESIM_DATA_LOADER_H_
