#include "dlsim/map_style_loader.h"

#include <algorithm>
#include <numeric>

#include "tfrecord/format.h"
#include "util/rng.h"

namespace monarch::dlsim {

Result<IndexedDataset> IndexedDataset::Build(
    const std::vector<std::string>& files, RecordFileOpener& opener) {
  IndexedDataset dataset;
  dataset.files_ = files;
  for (std::uint32_t f = 0; f < files.size(); ++f) {
    MONARCH_ASSIGN_OR_RETURN(auto source, opener.Open(files[f]));
    MONARCH_ASSIGN_OR_RETURN(const auto spans, tfrecord::BuildIndex(*source));
    for (const tfrecord::RecordSpan& span : spans) {
      dataset.samples_.push_back(
          SampleRef{f, span.offset, span.payload_size});
    }
  }
  return dataset;
}

MapStyleEpoch::MapStyleEpoch(const IndexedDataset& dataset, int epoch,
                             RecordFileOpener& opener,
                             ResourceMonitor& monitor,
                             MapLoaderConfig config)
    : dataset_(dataset),
      opener_(opener),
      monitor_(monitor),
      config_(config),
      permutation_(dataset.size()),
      queue_(config.prefetch_samples) {
  // The sampler: a fresh permutation of SAMPLE indices each epoch —
  // torch's RandomSampler with a per-epoch generator seed.
  std::iota(permutation_.begin(), permutation_.end(), 0ULL);
  Xoshiro256 rng(config_.shuffle_seed * 0x2545F4914F6CDD1DULL +
                 static_cast<std::uint64_t>(epoch));
  std::shuffle(permutation_.begin(), permutation_.end(), rng);

  const int workers = std::max(1, config_.num_workers);
  active_workers_.store(workers);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

MapStyleEpoch::~MapStyleEpoch() {
  queue_.Close();
  Finish();
}

void MapStyleEpoch::Finish() {
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

Status MapStyleEpoch::status() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  return first_error_;
}

void MapStyleEpoch::RecordError(const Status& status) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (first_error_.ok()) first_error_ = status;
}

void MapStyleEpoch::WorkerLoop() {
  std::vector<std::byte> frame;
  for (;;) {
    const std::uint64_t slot =
        next_.fetch_add(1, std::memory_order_relaxed);
    if (slot >= permutation_.size()) break;
    const SampleRef& ref = dataset_.at(permutation_[slot]);

    // One random-access fetch per sample: header+payload+footer in a
    // single pread of the framed span (how an indexed RecordReader
    // fetches when it already knows offsets).
    auto source = opener_.Open(dataset_.file(ref.file_index));
    if (!source.ok()) {
      RecordError(source.status());
      queue_.Close();
      return;
    }
    const std::uint64_t framed =
        tfrecord::FramedSize(ref.payload_size);
    frame.resize(framed);
    auto read = (*source)->ReadAt(ref.offset, frame);
    if (!read.ok() || read.value() != framed) {
      RecordError(read.ok() ? DataLossError("short sample read")
                            : read.status());
      queue_.Close();
      return;
    }

    // Validate the frame (length CRC + payload CRC when enabled).
    auto length = tfrecord::DecodeHeader(frame);
    if (!length.ok() || length.value() != ref.payload_size) {
      RecordError(length.ok() ? DataLossError("index/frame length mismatch")
                              : length.status());
      queue_.Close();
      return;
    }
    std::vector<std::byte> payload(
        frame.begin() + tfrecord::kHeaderBytes,
        frame.begin() + tfrecord::kHeaderBytes +
            static_cast<std::ptrdiff_t>(ref.payload_size));
    if (config_.verify_checksums) {
      const std::uint32_t stored = tfrecord::LoadLe32(
          frame.data() + tfrecord::kHeaderBytes + ref.payload_size);
      if (Status verified = tfrecord::VerifyPayload(payload, stored);
          !verified.ok()) {
        RecordError(verified);
        queue_.Close();
        return;
      }
    }

    if (config_.preprocess_per_sample > kZeroDuration) {
      ProcessClock().SleepFor(config_.preprocess_per_sample);
      monitor_.AddBusy(Resource::kCpu, config_.preprocess_per_sample);
    }
    const auto bytes = static_cast<std::int64_t>(payload.size());
    monitor_.AddMemory(bytes);
    if (!queue_.Push(Sample{std::move(payload)})) {
      monitor_.AddMemory(-bytes);
      return;  // consumer aborted
    }
    produced_.fetch_add(1, std::memory_order_relaxed);
  }

  if (active_workers_.fetch_sub(1) == 1) {
    queue_.Close();
  }
}

}  // namespace monarch::dlsim
