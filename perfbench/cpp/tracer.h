// Span recorder for the traced run.
//
// The benchmark times its own calls into each layer's public functions:
// a span has a layer name, start, end, parent and a request id shared by
// every span of one client op. Spans live in per-thread buffers (no lock
// on the record path) and are written out at exit as Chrome trace JSON.
// Per-layer totals — count, busy time and self time (duration minus the
// time covered by child spans) — are accumulated as spans close, so the
// per-layer metrics need no post-processing of the kept spans.
//
// Parents:
//   * a span opened while another is open on the same thread is its
//     child (the usual nesting: core.read -> storage.local);
//   * a span opened on a ReadRing worker inherits the submitting op's
//     ring span, found through the ambient qos tenant that the ring
//     re-installs on its workers (see kRingTenant);
//   * any other span with no open parent ran on a background thread
//     (placement pool, checkpoint drain lane) that cannot see the read
//     that caused it; it hangs under a synthetic `core.placement` (or
//     `ckpt.drain`) root.
//
// Untraced runs never construct a Tracer: Span is then one atomic load.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "qos/tenant.h"

namespace perfbench {

enum class Layer : std::uint8_t {
  kSourceRead,      ///< dlsim: RandomAccessSource::ReadAt
  kReadCopy,        ///< core.read: Monarch::Read
  kReadLease,       ///< core.read: Monarch::ReadZeroCopy
  kRing,            ///< core.ring: ReadRing::Submit -> last completion
  kFileSize,        ///< core.metadata: Monarch::FileSize / Source::Size
  kPfs,             ///< storage: the PFS engine handed to Monarch
  kPfsEngine,       ///< storage: the PFS's inner engine (real CPU work)
  kLocal,           ///< storage: a local cache-tier engine
  kLocalEngine,     ///< storage: the local tier's inner engine
  kPeer,            ///< net: the peer engine
  kCkptSave,        ///< ckpt: CheckpointSink::Save
  kPlacementDrain,  ///< core.placement: Monarch::DrainPlacements
  kCount,
};
constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

const char* LayerName(Layer layer);

/// Layers whose spans a client op opens (dlsim reads, Monarch calls,
/// checkpoint saves, drains); their spans are roots, and their self time
/// is the op's time no child span accounts for.
bool IsClientOp(Layer layer);

struct LayerTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

/// Per-layer totals and duration samples (ns) since the last Collect.
struct TraceTotals {
  std::array<LayerTotals, kLayers> layers{};
  std::array<std::vector<double>, kLayers> durations_ns{};

  [[nodiscard]] const LayerTotals& at(Layer layer) const {
    return layers[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] double busy_s(Layer layer) const {
    return static_cast<double>(at(layer).total_ns) / 1e9;
  }
  [[nodiscard]] double self_s(Layer layer) const {
    return static_cast<double>(at(layer).self_ns) / 1e9;
  }
};

/// Name of the ambient tenant that marks a ring submission; the tenant id
/// is the submitting client's ring slot.
inline constexpr const char* kRingTenant = "perfbench.ring";

class Tracer {
 public:
  explicit Tracer(std::size_t max_kept_spans);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The tracer of this process, or null when tracing is off.
  static Tracer* Active() noexcept {
    return active_.load(std::memory_order_acquire);
  }

  void Begin(Layer layer);
  void End();

  /// Ring submissions complete on a worker thread, so their span is
  /// opened and closed by slot (one submission in flight per slot).
  static constexpr int kRingSlots = 8;
  void BeginRing(int slot);
  void EndRing(int slot);

  /// Merge and reset every thread's totals. Call only at a quiescent
  /// point: every thread that recorded spans has finished (joined).
  TraceTotals Collect();

  /// Drop everything recorded so far: totals, duration samples and kept
  /// spans (the kept-span cap starts over). Same quiescence rule as
  /// Collect.
  void Discard();

  /// Write every kept span as Chrome trace JSON.
  bool WriteChromeTrace(const std::string& path) const;

  [[nodiscard]] std::uint64_t kept_spans() const;
  [[nodiscard]] std::uint64_t dropped_spans() const;

 private:
  enum Root : std::uint8_t { kNoRoot, kPlacementRoot, kDrainRoot };
  struct Frame {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t req;
    std::int64_t start;
    std::int64_t child_ns;
    Layer layer;
    Root root;
    int ring_slot;  ///< -1 unless the parent is a ring span
  };
  struct Kept {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t req;
    std::int64_t start;
    std::int64_t end;
    std::uint32_t tid;
    Layer layer;
    Root root;
  };
  struct ThreadBuf {
    ThreadBuf() { durations.fill(Reservoir(kSamplesPerThread)); }
    std::uint32_t tid = 0;
    std::vector<Frame> stack;
    std::vector<Kept> kept;
    std::array<LayerTotals, kLayers> totals{};
    std::array<Reservoir, kLayers> durations;
  };
  /// Duration samples kept per thread and layer between Collects; plenty
  /// for a p99, and it bounds the traced run's memory.
  static constexpr std::size_t kSamplesPerThread = 1u << 16;
  struct RingSlot {
    std::uint64_t id = 0;
    std::uint64_t req = 0;
    std::int64_t start = 0;
    std::uint32_t tid = 0;
    std::atomic<std::int64_t> child_ns{0};
  };

  ThreadBuf& Local();
  void Record(ThreadBuf& buf, const Kept& span, std::int64_t self_ns);

  static std::atomic<Tracer*> active_;

  const std::size_t max_kept_;
  const std::int64_t epoch_ns_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> next_req_{1};
  std::atomic<std::uint64_t> kept_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::array<RingSlot, kRingSlots> ring_;
  mutable std::mutex mu_;  ///< guards bufs_
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

/// RAII span; a no-op when tracing is off.
class Span {
 public:
  explicit Span(Layer layer) : tracer_(Tracer::Active()) {
    if (tracer_ != nullptr) tracer_->Begin(layer);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
