#include "dlsim/data_loader.h"

#include <algorithm>
#include <deque>
#include <future>
#include <utility>

#include "core/read_ring.h"
#include "util/rng.h"

namespace monarch::dlsim {

std::vector<std::string> ShuffledFileOrder(std::vector<std::string> files,
                                           std::uint64_t shuffle_seed,
                                           int epoch) {
  // Per-epoch reshuffle (tf.data reshuffle_each_iteration): mix the epoch
  // index into the seed so each epoch sees a fresh random file order but
  // the whole run stays reproducible.
  Xoshiro256 rng(shuffle_seed * 0x9E3779B97F4A7C15ULL +
                 static_cast<std::uint64_t>(epoch));
  std::shuffle(files.begin(), files.end(), rng);
  return files;
}

EpochLoader::EpochLoader(const std::vector<std::string>& files, int epoch,
                         RecordFileOpener& opener, ResourceMonitor& monitor,
                         LoaderConfig config)
    : shuffled_files_(ShuffledFileOrder(files, config.shuffle_seed, epoch)),
      opener_(opener),
      monitor_(monitor),
      config_(config),
      queue_(config.prefetch_samples) {
  // Publish the order before any reader starts — a prefetching opener
  // (MONARCH look-ahead) wants the hints installed ahead of the first
  // demand read.
  opener_.OnEpochOrder(shuffled_files_);

  const int readers = std::max(1, config_.reader_threads);
  active_readers_.store(readers);
  readers_.reserve(static_cast<std::size_t>(readers));
  for (int i = 0; i < readers; ++i) {
    readers_.emplace_back([this] { ReaderLoop(); });
  }
}

EpochLoader::~EpochLoader() {
  queue_.Close();  // release any blocked producer
  Finish();
}

void EpochLoader::Finish() {
  for (std::thread& t : readers_) {
    if (t.joinable()) t.join();
  }
}

Status EpochLoader::status() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  return first_error_;
}

void EpochLoader::RecordError(const Status& status) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (first_error_.ok()) first_error_ = status;
}

bool EpochLoader::PumpRecords(tfrecord::RandomAccessSource& source,
                              const tfrecord::ReaderOptions& reader_options) {
  tfrecord::TFRecordReader reader(source, reader_options);
  for (;;) {
    auto record = reader.ReadRecord();
    if (!record.ok()) {
      if (record.status().code() == StatusCode::kOutOfRange) return true;
      RecordError(record.status());
      queue_.Close();
      return false;
    }
    // Parallel preprocessing on the reader thread (tf.data map): decode
    // / augmentation cost proportional to nothing but the profile.
    if (config_.preprocess_per_sample > kZeroDuration) {
      ProcessClock().SleepFor(config_.preprocess_per_sample);
      monitor_.AddBusy(Resource::kCpu, config_.preprocess_per_sample);
    }

    Sample sample{std::move(record).value()};
    const auto sample_bytes = static_cast<std::int64_t>(sample.payload.size());
    monitor_.AddMemory(sample_bytes);
    if (!queue_.Push(std::move(sample))) {
      monitor_.AddMemory(-sample_bytes);
      return false;  // queue closed (consumer aborted)
    }
    samples_.fetch_add(1, std::memory_order_relaxed);
  }
}

void EpochLoader::ReaderLoop() {
  tfrecord::ReaderOptions reader_options;
  reader_options.buffer_bytes = config_.read_chunk_bytes;
  reader_options.verify_checksums = config_.verify_checksums;

  if (config_.use_read_ring) {
    if (core::ReadRing* ring = opener_.read_ring()) {
      RingReaderLoop(*ring);
      if (active_readers_.fetch_sub(1) == 1) queue_.Close();
      return;
    }
    // Opener has no ring (vanilla setups): fall through to the sync path.
  }

  for (;;) {
    const std::size_t index =
        next_file_.fetch_add(1, std::memory_order_relaxed);
    if (index >= shuffled_files_.size()) break;
    const std::string& path = shuffled_files_[index];

    const Stopwatch file_timer;
    auto source = opener_.Open(path);
    if (!source.ok()) {
      RecordError(source.status());
      break;
    }
    if (!PumpRecords(**source, reader_options)) return;
    files_read_.fetch_add(1, std::memory_order_relaxed);
    // Reading/decoding occupied this CPU thread for the file's wall time
    // minus what we already attributed to preprocess (approximation: I/O
    // wait is not CPU-busy, so only count a fixed decode share).
    monitor_.AddBusy(Resource::kCpu, file_timer.Elapsed() / 8);
  }

  if (active_readers_.fetch_sub(1) == 1) {
    queue_.Close();  // last reader out: signal end of epoch
  }
}

void EpochLoader::RingReaderLoop(core::ReadRing& ring) {
  tfrecord::ReaderOptions reader_options;
  reader_options.buffer_bytes = config_.read_chunk_bytes;
  reader_options.verify_checksums = config_.verify_checksums;

  // Per-reader pipeline: keep `ring_window` whole-file lease reads in
  // flight, parse the oldest completed file while the ring prefetches
  // the rest. Completions are routed through per-op futures so readers
  // never steal each other's results from the shared completion queue.
  struct InFlight {
    std::string path;
    std::future<core::ReadCompletion> done;
  };
  std::deque<InFlight> window;

  auto submit_next = [&]() -> bool {
    const std::size_t index =
        next_file_.fetch_add(1, std::memory_order_relaxed);
    if (index >= shuffled_files_.size()) return false;
    const std::string& path = shuffled_files_[index];
    auto promise = std::make_shared<std::promise<core::ReadCompletion>>();
    InFlight entry{path, promise->get_future()};
    std::vector<core::ReadOp> ops(1);
    ops[0].name = path;
    ops[0].lease = true;
    if (ring.Submit(std::move(ops), [promise](core::ReadCompletion c) {
          promise->set_value(std::move(c));
        }) == 0) {
      return false;  // ring shut down mid-epoch; drop the claimed index
    }
    window.push_back(std::move(entry));
    return true;
  };

  const int depth = std::max(1, config_.ring_window);
  for (int i = 0; i < depth && submit_next(); ++i) {
  }

  while (!window.empty()) {
    InFlight current = std::move(window.front());
    window.pop_front();
    const Stopwatch file_timer;
    core::ReadCompletion completion = current.done.get();
    submit_next();  // refill the window before parsing

    if (!completion.bytes.ok()) {
      RecordError(completion.bytes.status());
      queue_.Close();
      return;
    }
    // Parse straight out of the leased pages; the lease's read pin keeps
    // eviction away from the staged copy until the file is consumed.
    tfrecord::SpanSource source(completion.lease.data(), current.path);
    if (!PumpRecords(source, reader_options)) return;
    files_read_.fetch_add(1, std::memory_order_relaxed);
    monitor_.AddBusy(Resource::kCpu, file_timer.Elapsed() / 8);
  }
}

}  // namespace monarch::dlsim
