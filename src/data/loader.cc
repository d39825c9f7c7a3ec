#include "data/loader.h"

#include <algorithm>

#include "common/units.h"

namespace hivesim::data {

const DatasetProfile& DatasetFor(models::ModelId model) {
  // ImageNet-1K: 1.28M JPEGs averaging ~110 KB; March '22 Wikipedia packed
  // into ~30M tokenized records (~23.7 KB streamed each, fitted to the
  // paper's $0.083/h per-VM NLP loading rate at ~97 samples/s/VM in the
  // D experiments); CommonVoice: ~1.5M utterances as Log-Mel spectrograms.
  static const DatasetProfile kImagenet = {"imagenet-1k", 1.281e6, 110 * kKB};
  static const DatasetProfile kWikipedia = {"wikipedia-03-22", 30e6,
                                            23.7 * kKB};
  static const DatasetProfile kCommonVoice = {"commonvoice-mel", 1.5e6,
                                              240 * kKB};
  switch (models::GetModelSpec(model).domain) {
    case models::Domain::kCV:
      return kImagenet;
    case models::Domain::kNLP:
      return kWikipedia;
    case models::Domain::kASR:
      return kCommonVoice;
  }
  return kImagenet;
}

double StreamingIngressMeter::StreamedBytes() const {
  return std::min(consumed_, share_samples_) * sample_bytes_;
}

}  // namespace hivesim::data
