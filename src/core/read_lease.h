// ReadLease: the core-level handle of the zero-copy read lane.
//
// A lease couples a storage-layer ReadView (the lent/copied page span)
// with the namespace-level read pin of the file it was cut from: while
// the lease is alive, FileInfo::read_pins stays elevated, so eviction's
// read-pin machinery (PlacementHandler::DropCopy) can never reclaim the
// staged copy out from under the reader, and the ReadView's keepalive
// guarantees the bytes themselves survive even engine teardown or an
// overwrite that lands anyway. Releasing (or destroying) the lease drops
// both pins.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "core/file_info.h"
#include "storage/storage_engine.h"

namespace monarch::core {

class ReadLease {
 public:
  ReadLease() = default;

  /// Takes ownership of one already-acquired read pin on `info` (may be
  /// null for anonymous views); the pin is returned on release.
  ReadLease(storage::ReadView view, FileInfoPtr info, int level) noexcept
      : view_(std::move(view)), info_(std::move(info)), level_(level) {}

  ReadLease(const ReadLease&) = delete;
  ReadLease& operator=(const ReadLease&) = delete;

  ReadLease(ReadLease&& other) noexcept
      : view_(std::move(other.view_)),
        info_(std::move(other.info_)),
        level_(other.level_) {
    other.view_.Reset();
    other.level_ = -1;
  }

  ReadLease& operator=(ReadLease&& other) noexcept {
    if (this != &other) {
      Release();
      view_ = std::move(other.view_);
      info_ = std::move(other.info_);
      level_ = other.level_;
      other.view_.Reset();
      other.level_ = -1;
    }
    return *this;
  }

  ~ReadLease() { Release(); }

  /// Unpin early: drops the eviction pin and the page keepalive. The
  /// span returned by data() must not be touched afterwards.
  void Release() noexcept {
    if (info_) {
      info_->read_pins.fetch_sub(1, std::memory_order_acq_rel);
      info_.reset();
    }
    view_.Reset();
    level_ = -1;
  }

  [[nodiscard]] std::span<const std::byte> data() const noexcept {
    return view_.data();
  }
  [[nodiscard]] std::size_t size() const noexcept { return view_.size(); }
  [[nodiscard]] bool empty() const noexcept { return view_.empty(); }
  /// True when the bytes were lent (no memcpy anywhere on the path).
  [[nodiscard]] bool zero_copy() const noexcept { return view_.zero_copy(); }
  /// Hierarchy level that served the read (-1 for a released lease).
  [[nodiscard]] int level() const noexcept { return level_; }
  /// True while the lease still holds a file pin.
  [[nodiscard]] bool pinned() const noexcept { return info_ != nullptr; }

 private:
  storage::ReadView view_;
  FileInfoPtr info_;
  int level_ = -1;
};

}  // namespace monarch::core
