// Decorators the benchmark puts around the objects it hands to the
// program: engines, the framework's record opener and the checkpoint
// sink. Each only adds a span (and, for the source, a client-side
// latency sample); bytes and semantics pass through untouched.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/checkpoint_sink.h"
#include "core/monarch.h"
#include "dlsim/record_opener.h"
#include "storage/device_model.h"
#include "storage/memory_engine.h"
#include "storage/storage_engine.h"
#include "storage/throttled_engine.h"
#include "tracer.h"

namespace perfbench {

/// Spans every call into `inner` as `layer`. Installed only in the
/// traced run.
class TracedEngine final : public monarch::storage::StorageEngine {
 public:
  TracedEngine(monarch::storage::StorageEnginePtr inner, Layer layer)
      : inner_(std::move(inner)), layer_(layer) {}

  monarch::Result<std::size_t> Read(std::string_view path,
                                    std::uint64_t offset,
                                    std::span<std::byte> dst) override {
    const Span span(layer_);
    return inner_->Read(path, offset, dst);
  }
  monarch::Result<monarch::storage::ReadView> ReadZeroCopy(
      std::string_view path, std::uint64_t offset,
      std::uint64_t max_bytes) override {
    const Span span(layer_);
    return inner_->ReadZeroCopy(path, offset, max_bytes);
  }
  monarch::Status Write(const std::string& path,
                        std::span<const std::byte> data) override {
    const Span span(layer_);
    return inner_->Write(path, data);
  }
  monarch::Status WriteAt(const std::string& path, std::uint64_t offset,
                          std::span<const std::byte> data) override {
    const Span span(layer_);
    return inner_->WriteAt(path, offset, data);
  }
  monarch::Status Delete(const std::string& path) override {
    const Span span(layer_);
    return inner_->Delete(path);
  }
  monarch::Result<std::uint64_t> FileSize(const std::string& path) override {
    const Span span(layer_);
    return inner_->FileSize(path);
  }
  monarch::Result<bool> Exists(const std::string& path) override {
    const Span span(layer_);
    return inner_->Exists(path);
  }
  monarch::Result<std::vector<monarch::storage::FileStat>> ListFiles(
      const std::string& dir) override {
    const Span span(layer_);
    return inner_->ListFiles(dir);
  }
  monarch::storage::IoStats& Stats() override { return inner_->Stats(); }
  [[nodiscard]] std::string Name() const override { return inner_->Name(); }

 private:
  monarch::storage::StorageEnginePtr inner_;
  Layer layer_;
};

/// A tier engine over an in-memory store: `store` under `device` (null =
/// raw memory speed). Traced, the whole engine is spanned as `outer`
/// (busy time) and the store as `inner` (real CPU work), so modelled
/// device time is the outer span's self time.
inline monarch::storage::StorageEnginePtr MakeTier(
    std::shared_ptr<monarch::storage::MemoryEngine> store,
    monarch::storage::DeviceModelPtr device, Layer outer, Layer inner) {
  const bool traced = Tracer::Active() != nullptr;
  monarch::storage::StorageEnginePtr engine = std::move(store);
  if (device != nullptr) {
    if (traced) engine = std::make_shared<TracedEngine>(engine, inner);
    engine = std::make_shared<monarch::storage::ThrottledEngine>(
        engine, std::move(device));
  }
  if (traced) engine = std::make_shared<TracedEngine>(engine, outer);
  return engine;
}

/// The framework's byte source with a client-side latency meter: every
/// ReadAt is timed (two clock reads against a modelled-device read of
/// tens of KiB) so `train_fit` reports per-read latency in every run;
/// the spans are added only when tracing.
class MeteredSource final : public monarch::tfrecord::RandomAccessSource {
 public:
  MeteredSource(monarch::tfrecord::RandomAccessSourcePtr inner,
                SharedReservoir& latency_us)
      : inner_(std::move(inner)), latency_us_(latency_us) {}

  monarch::Result<std::size_t> ReadAt(std::uint64_t offset,
                                      std::span<std::byte> dst) override {
    const std::int64_t start = NowNs();
    monarch::Result<std::size_t> result = [&] {
      const Span span(Layer::kSourceRead);
      return inner_->ReadAt(offset, dst);
    }();
    latency_us_.Add(static_cast<double>(NowNs() - start) / 1e3);
    return result;
  }
  monarch::Result<std::uint64_t> Size() override {
    const Span span(Layer::kFileSize);
    return inner_->Size();
  }
  [[nodiscard]] std::string Name() const override { return inner_->Name(); }

 private:
  monarch::tfrecord::RandomAccessSourcePtr inner_;
  SharedReservoir& latency_us_;
};

/// Wraps the MonarchOpener: meters its sources and forwards every hook.
/// At the start of epoch 2 it drains the staging work epoch 1 left in
/// flight (Monarch::DrainPlacements, spanned when tracing), in every run.
/// `on_epoch_start` runs after that drain, before the epoch's first read.
class MeteredOpener final : public monarch::dlsim::RecordFileOpener {
 public:
  MeteredOpener(monarch::dlsim::RecordFileOpenerPtr inner,
                monarch::core::Monarch& monarch, SharedReservoir& latency_us,
                std::function<void(int)> on_epoch_start)
      : inner_(std::move(inner)),
        monarch_(monarch),
        latency_us_(latency_us),
        on_epoch_start_(std::move(on_epoch_start)) {}

  monarch::Result<monarch::tfrecord::RandomAccessSourcePtr> Open(
      const std::string& path) override {
    auto source = inner_->Open(path);
    if (!source.ok()) return source.status();
    return monarch::tfrecord::RandomAccessSourcePtr(
        std::make_unique<MeteredSource>(std::move(source).value(),
                                        latency_us_));
  }
  void OnEpochStart(int epoch) override {
    if (epoch == 2) {
      const Span span(Layer::kPlacementDrain);
      monarch_.DrainPlacements();
    }
    on_epoch_start_(epoch);
    inner_->OnEpochStart(epoch);
  }
  void OnEpochOrder(const std::vector<std::string>& order) override {
    inner_->OnEpochOrder(order);
  }
  void OnRunSchedule(
      const std::vector<std::vector<std::string>>& epochs) override {
    inner_->OnRunSchedule(epochs);
  }
  [[nodiscard]] monarch::core::ReadRing* read_ring() override {
    return inner_->read_ring();
  }
  [[nodiscard]] std::string Name() const override { return inner_->Name(); }

 private:
  monarch::dlsim::RecordFileOpenerPtr inner_;
  monarch::core::Monarch& monarch_;
  SharedReservoir& latency_us_;
  std::function<void(int)> on_epoch_start_;
};

/// Spans every checkpoint Save (traced run only).
class TracedSink final : public monarch::core::CheckpointSink {
 public:
  explicit TracedSink(monarch::core::CheckpointSink& inner) : inner_(inner) {}

  monarch::Status Save(const std::string& name,
                       std::span<const std::byte> data) override {
    const Span span(Layer::kCkptSave);
    return inner_.Save(name, data);
  }
  monarch::Result<std::vector<std::byte>> Restore(
      const std::string& name) override {
    return inner_.Restore(name);
  }
  monarch::Status Flush() override { return inner_.Flush(); }

 private:
  monarch::core::CheckpointSink& inner_;
};

}  // namespace perfbench
