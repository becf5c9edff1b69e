#include "core/monarch.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string_view>
#include <utility>

#include "obs/event_tracer.h"
#include "pack/packed_engine.h"
#include "obs/json.h"
#include "util/clock.h"
#include "util/crc32c.h"
#include "util/logging.h"

namespace monarch::core {

namespace {

/// Render one Stats() view as registry samples (the Monarch pull source).
std::vector<obs::MetricSample> StatsToSamples(const MonarchStats& stats) {
  std::vector<obs::MetricSample> out;
  out.reserve(stats.levels.size() * 6 + 12);
  auto sample = [&out](std::string name, std::string label,
                       obs::MetricKind kind, std::string unit,
                       std::uint64_t value, std::string help) {
    obs::MetricSample s;
    s.name = std::move(name);
    s.label = std::move(label);
    s.kind = kind;
    s.unit = std::move(unit);
    if (kind == obs::MetricKind::kGauge) {
      s.gauge = static_cast<std::int64_t>(value);
    } else {
      s.value = value;
    }
    s.help = std::move(help);
    out.push_back(std::move(s));
  };
  for (const LevelReadStats& level : stats.levels) {
    sample("monarch.level.reads", level.tier_name, obs::MetricKind::kCounter,
           "ops", level.reads, "reads served by this hierarchy level");
    sample("monarch.level.bytes", level.tier_name, obs::MetricKind::kCounter,
           "bytes", level.bytes, "bytes served by this hierarchy level");
    sample("monarch.level.occupancy_bytes", level.tier_name,
           obs::MetricKind::kGauge, "bytes", level.occupancy_bytes,
           "bytes currently staged on this level");
    sample("monarch.level.quota_bytes", level.tier_name,
           obs::MetricKind::kGauge, "bytes", level.quota_bytes,
           "configured byte budget of this level (0 = PFS, unbounded)");
    sample("monarch.level.health_state", level.tier_name,
           obs::MetricKind::kGauge, "state",
           static_cast<std::uint64_t>(level.circuit_state),
           "circuit-breaker state of this level (0 closed, 1 half-open, "
           "2 open)");
    sample("monarch.level.circuit_opens", level.tier_name,
           obs::MetricKind::kCounter, "events", level.circuit_opens,
           "times this level's circuit breaker tripped open");
  }
  const PlacementStats& p = stats.placement;
  sample("monarch.placement.scheduled", "", obs::MetricKind::kCounter, "ops",
         p.scheduled, "background placement tasks enqueued");
  sample("monarch.placement.completed", "", obs::MetricKind::kCounter, "ops",
         p.completed, "files now served from upper tiers");
  sample("monarch.placement.rejected_no_space", "", obs::MetricKind::kCounter,
         "ops", p.rejected_no_space,
         "placements rejected because no tier had room");
  sample("monarch.placement.failed", "", obs::MetricKind::kCounter, "ops",
         p.failed, "placements aborted on backend errors");
  sample("monarch.placement.bytes_staged", "", obs::MetricKind::kCounter,
         "bytes", p.bytes_staged, "bytes copied into cache tiers");
  // `monarch.placement.evictions` is an owned registry counter
  // (PlacementHandler ctor), not a per-instance sample — the ablation
  // benches read it like every other placement stat.
  sample("monarch.placement.retries", "", obs::MetricKind::kCounter, "ops",
         p.retries, "failed stagings left retryable for a later access");
  sample("monarch.placement.quarantined", "", obs::MetricKind::kCounter, "ops",
         p.quarantined,
         "staged copies deleted because their bytes failed CRC verification");
  sample("monarch.placement.abandoned", "", obs::MetricKind::kCounter, "ops",
         p.abandoned,
         "files marked unplaceable after exhausting max_placement_attempts");
  sample("monarch.placement.prefetch_scheduled", "", obs::MetricKind::kCounter,
         "ops", p.prefetch_scheduled,
         "look-ahead hints enqueued on the prefetch lane");
  sample("monarch.placement.prefetch_completed", "", obs::MetricKind::kCounter,
         "ops", p.prefetch_completed,
         "prefetch-lane copies published to a cache tier");
  sample("monarch.placement.prefetch_promoted", "", obs::MetricKind::kCounter,
         "ops", p.prefetch_promoted,
         "queued prefetches moved to the demand lane by an overtaking read");
  sample("monarch.placement.prefetch_cancelled", "", obs::MetricKind::kCounter,
         "ops", p.prefetch_cancelled,
         "hints dropped before staging (no space, stop, or shutdown)");
  sample("monarch.placement.prefetch_hits", "", obs::MetricKind::kCounter,
         "ops", stats.prefetch_hits,
         "demand reads served from a copy a look-ahead hint staged");
  sample("monarch.placement.chunks_copied", "", obs::MetricKind::kCounter,
         "chunks", p.chunks_copied,
         "fixed-size chunk writes performed by the staging pipeline");
  sample("monarch.placement.donated_bytes", "", obs::MetricKind::kCounter,
         "bytes", p.donated_bytes,
         "triggering-read bytes reused by staging instead of re-read");
  sample("monarch.placement.queue_depth", "demand", obs::MetricKind::kGauge,
         "tasks", p.queue_depth_demand, "staging tasks waiting, by lane");
  sample("monarch.placement.queue_depth", "prefetch", obs::MetricKind::kGauge,
         "tasks", p.queue_depth_prefetch, "staging tasks waiting, by lane");
  // Per-class fair-queue depths (ISSUE 10): same metric, finer labels —
  // the demand/prefetch labels above stay as lane aggregates.
  sample("monarch.placement.queue_depth", "interactive",
         obs::MetricKind::kGauge, "tasks", p.queue_depth_interactive,
         "staging tasks waiting, by lane");
  sample("monarch.placement.queue_depth", "training", obs::MetricKind::kGauge,
         "tasks", p.queue_depth_training, "staging tasks waiting, by lane");
  sample("monarch.placement.queue_depth", "scan", obs::MetricKind::kGauge,
         "tasks", p.queue_depth_scan, "staging tasks waiting, by lane");
  sample("monarch.placement.queue_depth", "drain", obs::MetricKind::kGauge,
         "tasks", p.queue_depth_drain, "staging tasks waiting, by lane");
  sample("qos.low_retention_resident_bytes", "", obs::MetricKind::kGauge,
         "bytes", p.low_retention_resident_bytes,
         "cache-tier bytes currently held by low-retention (scan) copies");
  sample("monarch.placement.inflight_bytes", "", obs::MetricKind::kGauge,
         "bytes", p.inflight_bytes,
         "bytes of staging copies currently in flight across all tiers");
  sample("monarch.placement.buffer_pool_used_bytes", "",
         obs::MetricKind::kGauge, "bytes", p.buffer_pool_used_bytes,
         "chunk-buffer bytes currently leased by staging copies");
  sample("monarch.placement.buffer_pool_capacity_bytes", "",
         obs::MetricKind::kGauge, "bytes", p.buffer_pool_capacity_bytes,
         "configured chunk-buffer budget (staging_buffer_bytes)");
  // Pack gauges are emitted unconditionally (zeros without an index) so
  // the catalogue diff holds on non-pack instances too.
  sample("monarch.pack.extents", "", obs::MetricKind::kGauge, "extents",
         stats.pack_extents,
         "container extents in the loaded pack index (0 = unpacked)");
  sample("monarch.pack.logical_files", "", obs::MetricKind::kGauge, "files",
         stats.pack_logical_files,
         "small logical files aggregated into pack extents");
  sample("monarch.pack.logical_bytes", "", obs::MetricKind::kGauge, "bytes",
         stats.pack_logical_bytes,
         "logical bytes addressed through the pack index");
  sample("monarch.files_indexed", "", obs::MetricKind::kGauge, "files",
         stats.files_indexed, "files in the virtual namespace");
  sample("monarch.dataset_bytes", "", obs::MetricKind::kGauge, "bytes",
         stats.dataset_bytes, "total bytes of the indexed dataset");
  sample("monarch.metadata_init_us", "", obs::MetricKind::kGauge, "us",
         static_cast<std::uint64_t>(stats.metadata_init_seconds * 1e6),
         "duration of the startup metadata-initialization walk");
  return out;
}

}  // namespace

Result<std::unique_ptr<Monarch>> Monarch::Create(MonarchConfig config) {
  if (!config.pfs.engine) {
    return InvalidArgumentError("config.pfs.engine must be set");
  }
  if (config.cache_tiers.empty()) {
    return InvalidArgumentError(
        "config needs at least one cache tier above the PFS");
  }

  // Small-file packing (ISSUE 9): when pack mode is on and the dataset
  // directory carries a pack index, wrap the PFS engine so the packed
  // logical files read/list/stat transparently out of their container
  // extents. kNotFound just means the dataset is loose files — chunk
  // staging still applies, only the packing layer is absent.
  pack::PackIndexPtr pack_index;
  if (config.placement.pack.enabled) {
    auto loaded = pack::PackIndex::Load(*config.pfs.engine,
                                        config.dataset_dir);
    if (loaded.ok()) {
      pack_index = std::move(loaded).value();
      config.pfs.engine = std::make_shared<pack::PackedPfsEngine>(
          config.pfs.engine, pack_index);
      MLOG_INFO << "monarch: pack index of '" << config.dataset_dir
                << "': " << pack_index->logical_files()
                << " logical files in " << pack_index->extent_count()
                << " extents";
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
  }

  std::vector<StorageDriverPtr> drivers;
  drivers.reserve(config.cache_tiers.size() + 2);
  for (TierSpec& tier : config.cache_tiers) {
    if (!tier.engine) {
      return InvalidArgumentError("cache tier '" + tier.name +
                                  "' has no engine");
    }
    if (tier.quota_bytes == 0) {
      return InvalidArgumentError("cache tier '" + tier.name +
                                  "' needs a nonzero quota");
    }
    drivers.push_back(std::make_unique<StorageDriver>(
        tier.name, tier.engine, tier.quota_bytes, /*read_only=*/false,
        config.resilience.retry, config.resilience.health));
  }
  // Cooperative peer tier (ISSUE 4): a read-only level directly above
  // the PFS serving other nodes' staged copies over the interconnect.
  // Quota 0 — the bytes are accounted on the owning nodes — and guarded
  // by retries and a circuit breaker like any tier, so a sick peer
  // degrades to the PFS instead of stalling the job.
  if (config.peer_tier.has_value()) {
    if (!config.peer_tier->engine) {
      return InvalidArgumentError("peer tier '" + config.peer_tier->name +
                                  "' has no engine");
    }
    if (config.peer_view == nullptr) {
      return InvalidArgumentError(
          "config.peer_tier requires config.peer_view (the cluster "
          "directory that knows which peers hold which files)");
    }
    drivers.push_back(std::make_unique<StorageDriver>(
        config.peer_tier->name.empty() ? "peer" : config.peer_tier->name,
        config.peer_tier->engine, /*quota_bytes=*/0, /*read_only=*/true,
        config.resilience.retry, config.resilience.health));
  }
  // The PFS gets the retry envelope too but no live breaker: it is the
  // authoritative copy, so routing around it is never an option
  // (StorageHierarchy::NextServingLevel always admits it regardless).
  drivers.push_back(std::make_unique<StorageDriver>(
      config.pfs.name.empty() ? "pfs" : config.pfs.name, config.pfs.engine,
      /*quota_bytes=*/0, /*read_only=*/true, config.resilience.retry,
      config.resilience.health));

  MONARCH_ASSIGN_OR_RETURN(auto hierarchy,
                           StorageHierarchy::Create(std::move(drivers)));

  std::unique_ptr<Monarch> monarch(
      new Monarch(std::move(config), std::move(hierarchy)));
  monarch->pack_index_ = std::move(pack_index);

  // Metadata initialization phase: walk the dataset directory on the PFS
  // and build the virtual namespace (§III-B startup flow). Retried on
  // transient failures — the walk is idempotent (Register dedups), so a
  // flaky PFS listing must not kill the job before it starts.
  Backoff backoff(monarch->config_.resilience.retry,
                  std::hash<std::string>{}(monarch->config_.dataset_dir));
  Result<std::uint64_t> populated = monarch->metadata_.Populate(
      monarch->hierarchy_->Pfs().engine(), monarch->config_.dataset_dir,
      monarch->hierarchy_->pfs_level());
  while (!populated.ok() && IsRetryableError(populated.status())) {
    const auto delay = backoff.NextDelay();
    if (!delay.has_value()) break;
    MLOG_WARN << "monarch: metadata walk of '" << monarch->config_.dataset_dir
              << "' failed transiently (" << populated.status()
              << "); retrying";
    PreciseSleep(*delay);
    populated = monarch->metadata_.Populate(
        monarch->hierarchy_->Pfs().engine(), monarch->config_.dataset_dir,
        monarch->hierarchy_->pfs_level());
  }
  MONARCH_ASSIGN_OR_RETURN(const std::uint64_t indexed, std::move(populated));
  MLOG_INFO << "monarch: indexed " << indexed << " files from '"
            << monarch->config_.dataset_dir << "' in "
            << monarch->metadata_.init_seconds() << "s";
  return monarch;
}

Monarch::Monarch(MonarchConfig config,
                 std::unique_ptr<StorageHierarchy> hierarchy)
    : config_(std::move(config)), hierarchy_(std::move(hierarchy)) {
  if (!config_.policy) config_.policy = MakeFirstFitPolicy();
  placement_ = std::make_unique<PlacementHandler>(
      *hierarchy_, metadata_, std::move(config_.policy), config_.placement,
      config_.resilience, config_.peer_view);
  served_.reserve(hierarchy_->num_levels());
  for (std::size_t i = 0; i < hierarchy_->num_levels(); ++i) {
    served_.push_back(std::make_unique<LevelCounters>());
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  read_requests_ = registry.GetCounter(
      "monarch.read.requests", "ops", "Monarch::Read calls");
  read_pfs_fallbacks_ = registry.GetCounter(
      "monarch.read.pfs_fallbacks", "ops",
      "reads rerouted to the PFS after a tier copy vanished (eviction race)");
  read_errors_ = registry.GetCounter(
      "monarch.read.errors", "ops", "Monarch::Read calls that returned an error");
  read_degraded_fallbacks_ = registry.GetCounter(
      "monarch.read.degraded_fallbacks", "ops",
      "reads a cache tier failed to serve (error, open breaker, or corrupt "
      "copy) that the peer or the PFS absorbed");
  read_latency_ = registry.GetHistogram(
      "monarch.read.latency_us", "us",
      "end-to-end Monarch::Read latency distribution");
  chunk_hits_counter_ = registry.GetCounter(
      "monarch.chunk.hits", "ops",
      "pack-mode reads fully served from resident chunks on a cache tier");
  chunk_misses_counter_ = registry.GetCounter(
      "monarch.chunk.misses", "ops",
      "pack-mode reads not served from resident local chunks (peer or PFS)");
  // Multi-tenant QoS (ISSUE 10): the broker sits under every tier driver
  // so each byte — demand reads, staging writes, checkpoint drains — is
  // charged to the ambient tenant, with this instance's identity as the
  // fallback for unattributed I/O.
  if (config_.qos_broker != nullptr) {
    config_.qos_broker->RegisterTenant(config_.tenant);
    for (std::size_t i = 0; i < hierarchy_->num_levels(); ++i) {
      hierarchy_->Level(static_cast<int>(i))
          .SetQosBroker(config_.qos_broker, config_.tenant);
    }
  }
  // The ring is always constructed (its instruments are part of the
  // stable catalogue); idle workers cost two parked threads.
  ring_ = std::make_unique<ReadRing>(*this, config_.read);
  obs_source_ = registry.AddSource([this] { return StatsToSamples(Stats()); });
}

Monarch::~Monarch() { Shutdown(); }

Result<FileInfoPtr> Monarch::PrepareRead(std::string_view name,
                                         std::uint64_t offset) {
  FileInfoPtr info = metadata_.Lookup(name);
  if (!info) {
    // File not in the startup namespace: discover it lazily from the PFS
    // (keeps the middleware usable when files appear mid-job). This cold
    // path is the one place the read path materialises the key.
    const std::string owned(name);
    MONARCH_ASSIGN_OR_RETURN(const std::uint64_t size,
                             hierarchy_->Pfs().engine().FileSize(owned));
    metadata_.Register(owned, size, hierarchy_->pfs_level());
    info = metadata_.Lookup(name);
    if (!info) return InternalError("metadata race on '" + owned + "'");
  }

  info->last_access.store(
      access_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);

  // Policy bookkeeping at file-visit granularity: the loader reads files
  // in chunks, so only the offset-0 read marks a new access (the
  // clairvoyant schedule clock and hotspot counters advance here).
  if (offset == 0) placement_->NoteAccess(*info);
  return info;
}

int Monarch::ServingLevelHint(std::string_view name) const {
  if (FileInfoPtr info = metadata_.Lookup(name)) {
    return info->level.load(std::memory_order_relaxed);
  }
  return hierarchy_->pfs_level();
}

void Monarch::CountTierFailure(const Status& status, std::string_view name,
                               int level) {
  if (status.code() == StatusCode::kNotFound) {
    if (read_pfs_fallbacks_ != nullptr) read_pfs_fallbacks_->Increment();
  } else {
    CountDegradedFallback(Fallback::kTierError, name, level);
  }
}

namespace {

/// Alloc-free (after warmup) chunk-object name for the read hot path:
/// one thread_local string is reused across calls, so serving a
/// resident chunk never heap-allocates in steady state.
const std::string& ChunkObjectNameTL(const std::string& file,
                                     std::uint32_t chunk) {
  thread_local std::string object;
  object.assign(file);
  object.append("#c");
  char index[16];
  const int len = std::snprintf(index, sizeof(index), "%u", chunk);
  object.append(index, static_cast<std::size_t>(len));
  return object;
}

/// Shard ownership (ISSUE 4): with a peer view installed, a node stages
/// only the files it owns; it reads the rest from their owners.
bool StagesHere(const PeerViewPtr& peer_view, const std::string& name) {
  return peer_view == nullptr || peer_view->ShouldStageLocally(name);
}

/// The eviction pin a read holds on its file (ISSUE 6): an eviction that
/// claims a pinned file reverts and picks another victim, so an
/// in-flight read never loses its tier copy. A lease takes it over with
/// release().
struct Unpin {
  void operator()(FileInfo* file) const noexcept {
    file->read_pins.fetch_sub(1, std::memory_order_acq_rel);
  }
};
using ReadPin = std::unique_ptr<FileInfo, Unpin>;

}  // namespace

/// The copying lane: every rung reads straight into the caller's buffer
/// (never a lease plus a memcpy — the default engine ReadZeroCopy costs a
/// metadata op and a heap allocation per read).
class Monarch::CopySink {
 public:
  using Out = Result<std::size_t>;
  static constexpr bool kLends = false;

  explicit CopySink(std::span<std::byte> dst) : dst_(dst) {}
  [[nodiscard]] std::uint64_t capacity() const { return dst_.size(); }
  [[nodiscard]] std::span<const std::byte> data() const {
    return dst_.first(n_);
  }

  Status Read(StorageDriver& tier, std::string_view object,
              std::uint64_t offset) {
    MONARCH_ASSIGN_OR_RETURN(n_, tier.Read(object, offset, dst_));
    return Status::Ok();
  }
  /// Append `n` logical bytes of resident chunk `c` from `in_chunk`.
  bool ServeChunk(Monarch& monarch, const FileInfoPtr& info,
                  pack::ChunkMap& cm, std::uint32_t c, int level,
                  std::uint64_t in_chunk, std::size_t n) {
    if (!monarch.ServeResidentChunk(info, cm, c, level, in_chunk,
                                    dst_.subspan(n_, n))) {
      return false;
    }
    n_ += n;
    return true;
  }
  void Adopt(const PeerFile& whole, std::uint64_t offset, std::size_t n) {
    std::copy_n(whole->begin() + static_cast<std::ptrdiff_t>(offset), n,
                dst_.begin());
    n_ = n;
  }
  Out Finish(FileInfoPtr, int, ReadPin&) { return n_; }

 private:
  std::span<std::byte> dst_;
  std::size_t n_ = 0;
};

/// The zero-copy lane: every rung lends a view (memory-backed tiers lend
/// their page; others copy privately), and the read pin moves into the
/// returned lease so the copy stays pinned while the caller holds it.
class Monarch::LeaseSink {
 public:
  using Out = Result<ReadLease>;
  static constexpr bool kLends = true;

  LeaseSink(std::uint64_t max_bytes, bool allow_zero_copy)
      : max_bytes_(max_bytes), allow_zero_copy_(allow_zero_copy) {}
  [[nodiscard]] std::uint64_t capacity() const { return max_bytes_; }
  [[nodiscard]] std::span<const std::byte> data() const {
    return view_.data();
  }

  Status Read(StorageDriver& tier, std::string_view object,
              std::uint64_t offset) {
    MONARCH_ASSIGN_OR_RETURN(
        view_, tier.ReadZeroCopy(object, offset, max_bytes_, allow_zero_copy_));
    return Status::Ok();
  }
  /// Lend `n` logical bytes of resident chunk `c` from `in_chunk`.
  bool ServeChunk(Monarch& monarch, const FileInfoPtr& info,
                  pack::ChunkMap& cm, std::uint32_t c, int level,
                  std::uint64_t in_chunk, std::size_t n) {
    const std::uint32_t logical_n = cm.ChunkLogicalBytes(c);
    if (monarch.placement_->pack_codec() != nullptr) {
      // Compressed chunk: decode the whole chunk into a heap buffer the
      // view keeps alive (zero_copy() reports false — decompression is
      // inherently a copy).
      auto logical = std::make_shared<std::vector<std::byte>>(logical_n);
      if (!monarch.ServeResidentChunk(info, cm, c, level, 0, *logical)) {
        return false;
      }
      Adopt(std::move(logical), in_chunk, n);
      return true;
    }
    // Identity codec: lend the chunk object's bytes, checked as the copy
    // lane checks them — a short view is corrupt, and a whole-chunk view
    // is verified against the recorded CRC when verify_on_read is set.
    auto view = monarch.hierarchy_->Level(level).ReadZeroCopy(
        ChunkObjectNameTL(info->name, c), in_chunk, n, allow_zero_copy_);
    if (!view.ok()) {
      monarch.CountTierFailure(view.status(), info->name, level);
      return false;
    }
    if (view.value().size() != n ||
        (monarch.config_.resilience.verify_on_read && n == logical_n &&
         Crc32c(view.value().data()) != cm.Meta(c).crc_logical)) {
      monarch.DropCorruptChunk(info, cm, c, level);
      return false;
    }
    view_ = std::move(view).value();
    return true;
  }
  /// Lend [offset, offset + n) of a heap buffer the view keeps alive.
  void Adopt(PeerFile whole, std::uint64_t offset, std::size_t n) {
    const std::span<const std::byte> data(whole->data() + offset, n);
    view_ = storage::ReadView(data, std::move(whole), /*zero_copy=*/false);
  }
  Out Finish(FileInfoPtr info, int level, ReadPin& pin) {
    (void)pin.release();
    return ReadLease(std::move(view_), std::move(info), level);
  }

 private:
  std::uint64_t max_bytes_;
  bool allow_zero_copy_;
  storage::ReadView view_;
};

template <typename Sink>
typename Sink::Out Monarch::InstrumentedRead(std::string_view name,
                                             std::uint64_t offset,
                                             Sink sink) {
  // Instrumentation is lock-free: the counters/histogram below are
  // relaxed atomics resolved at construction, and the span costs one
  // atomic load while tracing is disabled.
  const obs::TraceSpan span("monarch.read", "core");
  if (read_requests_ != nullptr) read_requests_->Increment();
  const Stopwatch timer;
  auto result = ReadLadder(name, offset, sink);
  if (result.ok()) {
    if (read_latency_ != nullptr) read_latency_->Record(timer.Elapsed());
  } else if (read_errors_ != nullptr) {
    read_errors_->Increment();
  }
  return result;
}

template <typename Sink>
typename Sink::Out Monarch::ReadLadder(std::string_view name,
                                       std::uint64_t offset, Sink& sink) {
  MONARCH_ASSIGN_OR_RETURN(FileInfoPtr info, PrepareRead(name, offset));
  info->read_pins.fetch_add(1, std::memory_order_acq_rel);
  ReadPin pin(info.get());

  // Pack mode (ISSUE 9) serves the file's chunk objects; whole-file mode
  // the one object `name`.
  pack::ChunkMap* cm =
      placement_->options().pack.enabled
          ? info->EnsureChunkMap(placement_->options().pack.chunk_bytes)
          : nullptr;
  const std::uint64_t length =
      offset >= info->size
          ? 0
          : std::min<std::uint64_t>(sink.capacity(), info->size - offset);
  const int pfs = hierarchy_->pfs_level();

  // ① The local tier the namespace assigns — the whole copy, or every
  // chunk the request overlaps (a view stops at the first chunk's end;
  // short views are legal, ReadZeroCopy callers loop). A tier whose
  // circuit breaker is open is skipped without a doomed attempt.
  int level = cm != nullptr ? cm->tier()
                            : info->level.load(std::memory_order_acquire);
  std::uint64_t local = length;
  if (Sink::kLends && cm != nullptr && length > 0) {
    const std::uint32_t first = cm->ChunkOf(offset);
    local = std::min<std::uint64_t>(
        length, cm->ChunkOffset(first) + cm->ChunkLogicalBytes(first) - offset);
  }
  const bool resident =
      level >= 0 && level != pfs &&
      (cm == nullptr || (length > 0 && cm->RangeResident(offset, local)));
  bool served = false;
  if (resident && hierarchy_->NextServingLevel(level) != level) {
    CountDegradedFallback(Fallback::kCircuitOpen, name, level);
  } else if (resident) {
    served = ServeLocal(info, cm, level, offset, local, sink);
  }

  // ② A peer's copy, closer over the interconnect than the shared PFS.
  if (!served && TryPeerRung(*info, cm, offset, length, sink)) {
    served = true;
    level = hierarchy_->peer_level();
  }

  // ③ The authoritative copy: every rung of the degradation ladder lands
  // here, so a sick tier or peer costs PFS performance, never an error.
  if (!served) {
    level = pfs;
    MONARCH_RETURN_IF_ERROR(sink.Read(hierarchy_->Level(pfs), name, offset));
  }

  FinishRead(info, cm, name, level, offset, sink.data());
  return sink.Finish(std::move(info), level, pin);
}

template <typename Sink>
bool Monarch::ServeLocal(const FileInfoPtr& info, pack::ChunkMap* cm,
                         int level, std::uint64_t offset,
                         std::uint64_t length, Sink& sink) {
  if (cm == nullptr) {
    const Status read = sink.Read(hierarchy_->Level(level), info->name, offset);
    if (!read.ok()) {
      CountTierFailure(read, info->name, level);
      return false;
    }
    if (VerifyTierRead(info, level, offset, sink.data(), sink.data().size())) {
      return true;
    }
    // The staged copy is corrupt and has been quarantined.
    CountDegradedFallback(Fallback::kCorruption, info->name, level);
    return false;
  }
  // Chunk by chunk; a failed chunk is counted inside and the whole
  // request goes on down the ladder.
  for (std::uint64_t pos = offset, end = offset + length; pos < end;) {
    const std::uint32_t c = cm->ChunkOf(pos);
    const std::uint64_t in_chunk = pos - cm->ChunkOffset(c);
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(
        cm->ChunkLogicalBytes(c) - in_chunk, end - pos));
    if (!sink.ServeChunk(*this, info, *cm, c, level, in_chunk, n)) {
      return false;
    }
    pos += n;
  }
  return true;
}

template <typename Sink>
bool Monarch::TryPeerRung(const FileInfo& info, const pack::ChunkMap* cm,
                          std::uint64_t offset, std::uint64_t length,
                          Sink& sink) {
  const int peer = hierarchy_->peer_level();
  if (peer < 0 || config_.peer_view == nullptr) return false;
  // Peers serve a chunked file only whole, verified against the pack
  // index's per-file CRC: a loose file has no such CRC, and a partial
  // read of a multi-chunk file would drag the whole file across the
  // fabric to serve a slice.
  const pack::PackEntry* entry = nullptr;
  if (cm != nullptr) {
    if (pack_index_ == nullptr || length == 0 || cm->ChunkOf(offset) != 0 ||
        cm->ChunkOf(offset + length - 1) + 1 != cm->num_chunks()) {
      return false;
    }
    entry = pack_index_->Find(info.name);
    if (entry == nullptr || entry->length != info.size) return false;
  }
  // `info.name` is the owned key — no temporary for the directory lookup.
  if (!config_.peer_view->HasRemoteCopy(info.name)) return false;
  StorageDriver& driver = hierarchy_->Level(peer);
  if (!driver.health().AllowRequest()) {
    CountDegradedFallback(Fallback::kCircuitOpen, info.name, peer);
    return false;
  }
  Status status = Status::Ok();
  if (entry == nullptr) {
    status = sink.Read(driver, info.name, offset);
  } else if (auto whole = FetchPeerFile(info, *cm, entry->crc32c, driver);
             whole.ok()) {
    sink.Adopt(std::move(whole).value(), offset,
               static_cast<std::size_t>(length));
  } else {
    status = whole.status();
  }
  if (status.ok()) return true;
  // Peer failures are counted apart so the cluster benches can reconcile
  // interconnect rescue traffic: kNotFound is a holder that lost its
  // copy, anything else (fabric, holder device, failed verification) an
  // error. Either way the caller falls through to the PFS.
  CountDegradedFallback(status.code() == StatusCode::kNotFound
                            ? Fallback::kPeerMiss
                            : Fallback::kPeerError,
                        info.name, peer);
  return false;
}

Result<std::size_t> Monarch::Read(std::string_view name, std::uint64_t offset,
                                  std::span<std::byte> dst) {
  return InstrumentedRead(name, offset, CopySink(dst));
}

Result<ReadLease> Monarch::ReadZeroCopy(std::string_view name,
                                        std::uint64_t offset,
                                        std::uint64_t max_bytes,
                                        bool allow_zero_copy) {
  return InstrumentedRead(name, offset, LeaseSink(max_bytes, allow_zero_copy));
}

bool Monarch::ServeResidentChunk(const FileInfoPtr& info, pack::ChunkMap& cm,
                                 std::uint32_t chunk, int level,
                                 std::uint64_t offset_in_chunk,
                                 std::span<std::byte> dst) {
  const pack::ChunkMap::ChunkMeta meta = cm.Meta(chunk);
  const std::uint32_t logical_n = cm.ChunkLogicalBytes(chunk);
  StorageDriver& tier = hierarchy_->Level(level);
  const pack::Codec* codec = placement_->pack_codec();
  const std::string& object = ChunkObjectNameTL(info->name, chunk);

  bool corrupt = false;
  bool served = false;
  Status error = Status::Ok();
  if (codec == nullptr) {
    // Identity codec: the chunk object holds the logical bytes; read the
    // requested slice straight into the caller's buffer. Whole-chunk
    // reads are verified against the recorded CRC when verify_on_read is
    // set (slices would need a full-chunk readback to check).
    auto read = tier.Read(object, offset_in_chunk, dst);
    if (!read.ok()) {
      error = read.status();
    } else if (read.value() != dst.size()) {
      corrupt = true;
    } else if (config_.resilience.verify_on_read && offset_in_chunk == 0 &&
               dst.size() == logical_n &&
               Crc32c(std::span<const std::byte>(dst)) != meta.crc_logical) {
      corrupt = true;
    } else {
      served = true;
    }
  } else {
    // Compressed chunk: pull the stored bytes through a reusable
    // per-thread scratch buffer, verify the stored-side CRC (a corrupt
    // stream must never reach the decoder), decode — straight into the
    // caller's buffer when the request covers the whole chunk — and
    // verify the logical side.
    thread_local std::vector<std::byte> stored_scratch;
    thread_local std::vector<std::byte> logical_scratch;
    stored_scratch.resize(meta.stored_bytes);
    auto read = tier.Read(object, 0, stored_scratch);
    if (!read.ok()) {
      error = read.status();
    } else if (read.value() != meta.stored_bytes ||
               Crc32c(std::span<const std::byte>(stored_scratch)) !=
                   meta.crc_stored) {
      corrupt = true;
    } else {
      const obs::TraceSpan span("pack.decompress", "core");
      std::span<std::byte> logical;
      if (offset_in_chunk == 0 && dst.size() == logical_n) {
        logical = dst;
      } else {
        logical_scratch.resize(logical_n);
        logical = logical_scratch;
      }
      if (!codec->Decode(stored_scratch, logical).ok() ||
          Crc32c(std::span<const std::byte>(logical)) != meta.crc_logical) {
        corrupt = true;
      } else {
        if (logical.data() != dst.data()) {
          std::copy_n(logical.begin() +
                          static_cast<std::ptrdiff_t>(offset_in_chunk),
                      dst.size(), dst.begin());
        }
        served = true;
      }
    }
  }
  if (served) return true;

  if (corrupt) {
    DropCorruptChunk(info, cm, chunk, level);
  } else {
    // kNotFound is an eviction race (the chunk vanished between the
    // residency check and the read): same accounting as the whole-file
    // fallback.
    CountTierFailure(error, info->name, level);
  }
  return false;
}

void Monarch::DropCorruptChunk(const FileInfoPtr& info, pack::ChunkMap& cm,
                               std::uint32_t chunk, int level) {
  // Drop the bad copy so a later read re-stages it from the
  // authoritative extent bytes — corruption degrades to PFS
  // performance, never wrong bytes.
  StorageDriver& tier = hierarchy_->Level(level);
  MLOG_WARN << "staged chunk '" << ChunkObjectNameTL(info->name, chunk)
            << "' on tier '" << tier.name()
            << "' failed verification; dropping it";
  {
    std::lock_guard lock(cm.placement_mutex());
    (void)placement_->DropChunkLocked(*info, cm, chunk, tier);
  }
  CountDegradedFallback(Fallback::kCorruption, info->name, level);
}

Result<Monarch::PeerFile> Monarch::FetchPeerFile(const FileInfo& info,
                                                 const pack::ChunkMap& cm,
                                                 std::uint32_t crc,
                                                 StorageDriver& peer) {
  // The holder's chunk objects cross the fabric as stored (compressed)
  // bytes and are decoded here. Its per-chunk CRCs live in its own chunk
  // map, out of reach, so the whole decoded file is checked against the
  // pack index instead: no peer byte reaches a caller unverified.
  const pack::Codec* codec = placement_->pack_codec();
  auto logical = std::make_shared<std::vector<std::byte>>(info.size);
  thread_local std::vector<std::byte> stored;
  for (std::uint32_t c = 0; c < cm.num_chunks(); ++c) {
    const std::span<std::byte> chunk(logical->data() + cm.ChunkOffset(c),
                                     cm.ChunkLogicalBytes(c));
    const std::string& object = ChunkObjectNameTL(info.name, c);
    if (codec == nullptr) {
      MONARCH_ASSIGN_OR_RETURN(const std::size_t n,
                               peer.Read(object, 0, chunk));
      if (n != chunk.size()) {
        return DataLossError("short peer chunk '" + object + "'");
      }
      continue;
    }
    stored.resize(codec->MaxStoredSize(chunk.size()));
    MONARCH_ASSIGN_OR_RETURN(const std::size_t n,
                             peer.Read(object, 0, stored));
    const obs::TraceSpan span("pack.decompress", "core");
    MONARCH_RETURN_IF_ERROR(
        codec->Decode(std::span<const std::byte>(stored.data(), n), chunk));
  }
  if (Crc32c(std::span<const std::byte>(*logical)) != crc) {
    return DataLossError("peer copy of '" + info.name +
                         "' does not match its pack index CRC");
  }
  return PeerFile(std::move(logical));
}

void Monarch::FinishRead(const FileInfoPtr& info, pack::ChunkMap* cm,
                         std::string_view name, int level,
                         std::uint64_t offset,
                         std::span<const std::byte> served) {
  const int pfs = hierarchy_->pfs_level();
  const bool fetched = level == pfs || level == hierarchy_->peer_level();

  auto& counters = *served_[static_cast<std::size_t>(level)];
  counters.reads.fetch_add(1, std::memory_order_relaxed);
  counters.bytes.fetch_add(served.size(), std::memory_order_relaxed);

  if (cm != nullptr) {
    (fetched ? chunk_misses_ : chunk_hits_)
        .fetch_add(1, std::memory_order_relaxed);
    obs::Counter* outcome =
        fetched ? chunk_misses_counter_ : chunk_hits_counter_;
    if (outcome != nullptr) outcome->Increment();
  }
  // First demand read of a copy that a look-ahead hint staged: the
  // prefetch paid off before demand ever touched the PFS (a chunked file
  // counts only when its local chunks served the read).
  if (level != pfs && (cm == nullptr || !fetched) &&
      info->prefetched.exchange(false)) {
    prefetch_hits_.fetch_add(1, std::memory_order_relaxed);
  }

  // First access to a PFS-resident file: claim it and stage a copy in the
  // background (③/④). Any leading bytes the framework's request already
  // pulled are donated to the placement task — the full file when the
  // read covered it (old fast path), a prefix otherwise — so the staging
  // pipeline never re-reads them from the PFS. The §III-B partial-read
  // optimisation fetches the rest in the background (disabled => only
  // full reads stage). Pack mode stages chunks, never whole files: the
  // chunks the read touched are claimed, so PFS bytes scale with bytes
  // *touched*.
  // Shard ownership (ISSUE 4): with a peer view installed, each node
  // stages only the files it owns — demand reads of peer-owned files go
  // owner-first / PFS-second and never trigger local staging. A read
  // served by a PEER still stages when this node is an owner (ISSUE 7):
  // with replication > 1 the later owners' reads are satisfied by the
  // first owner's copy, and without this their replicas would never
  // materialise — the donated bytes mean the copy costs no extra PFS
  // traffic.
  const bool stage = fetched && (cm == nullptr || !served.empty()) &&
                     !placement_->stopped() &&
                     StagesHere(config_.peer_view, info->name);
  // An offset-0 read (file open) re-arms a file whose last staging was
  // refused (by the eviction policy, or for space); later reads of the
  // same pass leave the latch alone so one open retries at most once.
  if (stage && offset == 0) {
    info->stage_refused.store(false, std::memory_order_release);
  }
  if (stage && !info->stage_refused.load(std::memory_order_acquire)) {
    const bool full_read = offset == 0 && served.size() == info->size;
    if (cm != nullptr) {
      std::vector<std::uint32_t> claimed;
      const std::uint32_t last = cm->ChunkOf(offset + served.size() - 1);
      for (std::uint32_t c = cm->ChunkOf(offset); c <= last; ++c) {
        if (!cm->IsResident(c) && cm->TryClaim(c)) claimed.push_back(c);
      }
      if (!claimed.empty()) {
        placement_->ScheduleChunkPlacement(info, std::move(claimed));
      }
    } else if (full_read ||
               placement_->options().fetch_full_file_on_partial_read) {
      if (info->TryBeginFetch()) {
        std::optional<std::vector<std::byte>> content;
        if (offset == 0 && !served.empty()) {
          // The copy happens ONLY when a staging task actually claims
          // the file — never on the per-read hot path.
          content.emplace(served.begin(), served.end());
        }
        placement_->SchedulePlacement(info, std::move(content));
      } else if (info->state.load(std::memory_order_acquire) ==
                 PlacementState::kFetching) {
        // Someone else holds the fetch — possibly a hint still queued
        // behind other speculative work. Demand has overtaken it: move
        // it to the demand lane.
        placement_->PromoteToDemand(info);
      }
    }
  }

  // Keep the look-ahead window rolling: a demand read of a hinted file
  // moves the cursor past it and claims the next files in order.
  if (offset == 0 && hints_active_.load(std::memory_order_acquire)) {
    AdvancePrefetchCursor(name);
  }
}

bool Monarch::VerifyTierRead(const FileInfoPtr& info, int level,
                             std::uint64_t offset,
                             std::span<const std::byte> data, std::size_t n) {
  // Only whole-file reads can be checked against the staged-copy CRC —
  // chunked reads would need per-block checksums. That covers the dlsim
  // trainer (sample == file) and any full-fetch read path.
  if (!config_.resilience.verify_on_read) return true;
  if (offset != 0 || n != info->size || !info->HasStagedCrc()) return true;
  const std::uint64_t expected =
      info->staged_crc.load(std::memory_order_acquire);
  if (Crc32c(data.subspan(0, n)) == expected) return true;
  MLOG_WARN << "read of '" << info->name << "' from tier '"
            << hierarchy_->Level(level).name()
            << "' failed CRC verification; quarantining the copy";
  placement_->QuarantineCopy(info);
  return false;
}

void Monarch::CountDegradedFallback(Fallback cause, std::string_view name,
                                    int level) {
  static constexpr const char* kCauses[] = {
      "circuit_open", "tier_error", "corruption", "peer_miss", "peer_error"};
  const auto index = static_cast<std::size_t>(cause);
  if (read_degraded_fallbacks_ != nullptr) {
    read_degraded_fallbacks_->Increment();
  }
  fallbacks_[index].fetch_add(1, std::memory_order_relaxed);
  obs::EventTracer& tracer = obs::EventTracer::Global();
  if (tracer.enabled()) {
    tracer.RecordInstant(
        "monarch.read.fallback", "resilience",
        "\"file\":" + obs::JsonQuote(name) + ",\"cause\":\"" +
            kCauses[index] + "\",\"tier\":" +
            obs::JsonQuote(hierarchy_->Level(level).name()));
  }
}

void Monarch::HintUpcoming(std::span<const std::string> upcoming) {
  if (placement_->options().prefetch_lookahead <= 0) return;
  std::size_t installed = 0;
  {
    std::lock_guard lock(hint_mu_);
    hinted_order_.clear();
    hint_index_.clear();
    hinted_order_.reserve(upcoming.size());
    for (const std::string& name : upcoming) {
      FileInfoPtr info = metadata_.Lookup(name);
      if (!info) continue;  // unknown files cannot be prefetched
      hint_index_.emplace(name, hinted_order_.size());
      hinted_order_.push_back(std::move(info));
    }
    hint_cursor_ = 0;
    hint_scheduled_ = 0;
    installed = hinted_order_.size();
    hints_active_.store(installed != 0, std::memory_order_release);
  }
  obs::EventTracer& tracer = obs::EventTracer::Global();
  if (tracer.enabled()) {
    tracer.RecordInstant("placement.hint", "placement",
                         "\"files\":" + std::to_string(installed));
  }
  TopUpPrefetch();
}

void Monarch::InstallRunSchedule(
    const std::vector<std::vector<std::string>>& epochs) {
  std::vector<std::string> sequence;
  std::size_t total = 0;
  for (const auto& epoch : epochs) total += epoch.size();
  sequence.reserve(total);
  for (const auto& epoch : epochs) {
    sequence.insert(sequence.end(), epoch.begin(), epoch.end());
  }
  placement_->InstallSchedule(sequence);
}

void Monarch::AdvancePrefetchCursor(std::string_view name) {
  bool advanced = false;
  {
    std::lock_guard lock(hint_mu_);
    auto it = hint_index_.find(name);
    if (it == hint_index_.end()) return;
    if (it->second >= hint_cursor_) {
      hint_cursor_ = it->second + 1;
      advanced = true;
    }
  }
  if (advanced) TopUpPrefetch();
}

void Monarch::TopUpPrefetch() {
  if (placement_->stopped()) return;
  // Take the window under the lock (so its accounting stays consistent);
  // claim and enqueue outside it (placement takes the handler's own lock).
  std::vector<FileInfoPtr> window;
  {
    std::lock_guard lock(hint_mu_);
    const auto lookahead =
        static_cast<std::size_t>(placement_->options().prefetch_lookahead);
    const std::size_t limit =
        std::min(hinted_order_.size(), hint_cursor_ + lookahead);
    for (; hint_scheduled_ < limit; ++hint_scheduled_) {
      window.push_back(hinted_order_[hint_scheduled_]);
    }
  }
  for (FileInfoPtr& info : window) {
    // Hints for peer-owned files are skipped, not claimed: the owner
    // stages them and this node reads them over the interconnect.
    if (!StagesHere(config_.peer_view, info->name)) continue;
    ScheduleWholeFile(std::move(info), StagingLane::kPrefetch,
                      /*prefetch=*/true);
  }
}

bool Monarch::ScheduleWholeFile(FileInfoPtr info, StagingLane lane,
                                bool prefetch) {
  if (placement_->options().pack.enabled) {
    // Chunked files are staged whole, but chunk by chunk: claim every
    // non-resident chunk instead of the file-level fetch flag.
    pack::ChunkMap* cm =
        info->EnsureChunkMap(placement_->options().pack.chunk_bytes);
    std::vector<std::uint32_t> chunks;
    for (std::uint32_t c = 0; c < cm->num_chunks(); ++c) {
      if (!cm->IsResident(c) && cm->TryClaim(c)) chunks.push_back(c);
    }
    if (chunks.empty()) return false;
    if (prefetch) info->prefetched.store(true, std::memory_order_release);
    placement_->ScheduleChunkPlacement(std::move(info), std::move(chunks),
                                       lane);
    return true;
  }
  if (!info->TryBeginFetch()) return false;
  if (prefetch) info->prefetched.store(true, std::memory_order_release);
  placement_->SchedulePlacement(std::move(info), std::nullopt, lane);
  return true;
}

Result<std::uint64_t> Monarch::FileSize(std::string_view name) {
  if (FileInfoPtr info = metadata_.Lookup(name)) return info->size;
  return hierarchy_->Pfs().engine().FileSize(std::string(name));
}

std::uint64_t Monarch::Prestage(bool block) {
  std::uint64_t scheduled = 0;
  for (const auto& entry : metadata_.Snapshot()) {
    // Shard ownership (ISSUE 4): prestage only this node's shard; the
    // rest of the dataset reaches it through the peer tier.
    if (!StagesHere(config_.peer_view, entry.name)) continue;
    FileInfoPtr info = metadata_.Lookup(entry.name);
    if (info && ScheduleWholeFile(std::move(info), StagingLane::kDemand)) {
      ++scheduled;
    }
  }
  if (block) placement_->Drain();
  return scheduled;
}

Result<std::uint64_t> Monarch::RestageFile(const std::string& name) {
  if (placement_->stopped()) return std::uint64_t{0};
  // Ownership may have shifted again since the repair task was queued —
  // re-check the gate at drain time, not enqueue time.
  if (!StagesHere(config_.peer_view, name)) return std::uint64_t{0};
  FileInfoPtr info = metadata_.Lookup(name);
  if (!info) {
    return NotFoundError("restage of unindexed file '" + name + "'");
  }
  const std::uint64_t size = info->size;
  // Repair rides the PREFETCH lane: the two-lane pipeline guarantees it
  // parks behind demand staging and respects the in-flight byte caps.
  return ScheduleWholeFile(std::move(info), StagingLane::kPrefetch)
             ? size
             : std::uint64_t{0};
}

std::uint64_t Monarch::ReadvertisePlacedCopies() {
  if (config_.peer_view == nullptr) return 0;
  std::uint64_t readvertised = 0;
  for (const auto& entry : metadata_.Snapshot()) {
    if (entry.state != PlacementState::kPlaced) continue;
    FileInfoPtr info = metadata_.Lookup(entry.name);
    if (!info ||
        info->state.load(std::memory_order_acquire) != PlacementState::kPlaced) {
      continue;
    }
    // A chunked file is advertised only while its copy is complete.
    if (const pack::ChunkMap* cm = info->chunk_map();
        cm != nullptr && cm->ResidentCount() != cm->num_chunks()) {
      continue;
    }
    config_.peer_view->OnStaged(entry.name,
                                info->level.load(std::memory_order_acquire));
    ++readvertised;
  }
  return readvertised;
}

void Monarch::StopPlacement() noexcept {
  placement_->StopScheduling();
  // Speculative work is pointless once placement stops: drop queued
  // hints so the files return to the retryable PFS-only state.
  hints_active_.store(false, std::memory_order_release);
  placement_->CancelPrefetches();
}

void Monarch::DrainPlacements() { placement_->Drain(); }

std::uint64_t Monarch::CleanupStagedCopies() {
  // Quiesce staging first so no copy lands after its delete.
  placement_->StopScheduling();
  placement_->Drain();

  const int pfs_level = hierarchy_->pfs_level();
  std::uint64_t removed = 0;
  for (const auto& entry : metadata_.Snapshot()) {
    if (entry.state != PlacementState::kPlaced) continue;
    FileInfoPtr info = metadata_.Lookup(entry.name);
    if (!info) continue;
    // Chunk-resident files drop all their chunk objects through the
    // placement handler (which also flips the state back to PFS-only).
    if (pack::ChunkMap* cm = info->chunk_map();
        cm != nullptr && cm->ResidentCount() > 0) {
      if (placement_->EvictChunkCopies(info) > 0) ++removed;
      continue;
    }
    // Claim the file (kPlaced -> kFetching) so concurrent readers stop
    // trusting the tier copy, then revert it to PFS-resident.
    PlacementState expected = PlacementState::kPlaced;
    if (!info->state.compare_exchange_strong(expected,
                                             PlacementState::kFetching,
                                             std::memory_order_acq_rel)) {
      continue;
    }
    const int level = info->level.load(std::memory_order_acquire);
    info->level.store(pfs_level, std::memory_order_release);
    info->AbortFetch(/*permanently=*/false);
    // Retract the cluster-directory advertisement before the bytes go.
    if (config_.peer_view != nullptr) config_.peer_view->OnDropped(info->name);
    StorageDriver& tier = hierarchy_->Level(level);
    if (tier.Delete(info->name).ok()) {
      tier.Release(info->size);
      ++removed;
    }
  }
  return removed;
}

void Monarch::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  // Quiesce the async ring first: queued ops cancel, in-flight ops finish
  // against a still-fully-alive instance, workers join.
  if (ring_) ring_->Shutdown();
  if (config_.cleanup_staged_on_shutdown) CleanupStagedCopies();
  placement_->StopScheduling();
  hints_active_.store(false, std::memory_order_release);
  // Don't make shutdown wait on speculative copies that nothing will read.
  placement_->CancelPrefetches();
  placement_->Drain();
}

MonarchStats Monarch::Stats() const {
  MonarchStats stats;
  stats.levels.reserve(hierarchy_->num_levels());
  for (std::size_t i = 0; i < hierarchy_->num_levels(); ++i) {
    const StorageDriver& driver =
        hierarchy_->Level(static_cast<int>(i));
    LevelReadStats level;
    level.tier_name = driver.name();
    level.reads = served_[i]->reads.load(std::memory_order_relaxed);
    level.bytes = served_[i]->bytes.load(std::memory_order_relaxed);
    level.occupancy_bytes = driver.occupancy_bytes();
    level.quota_bytes = driver.quota_bytes();
    level.circuit_state = driver.health().state();
    level.circuit_opens = driver.health().circuit_opens();
    level.error_rate = driver.health().error_rate();
    level.retries = driver.retries();
    stats.levels.push_back(std::move(level));
  }
  stats.placement = placement_->Stats();
  stats.prefetch_hits = prefetch_hits_.load(std::memory_order_relaxed);
  const auto fallbacks = [this](Fallback cause) {
    return fallbacks_[static_cast<std::size_t>(cause)].load(
        std::memory_order_relaxed);
  };
  stats.fallbacks_circuit_open = fallbacks(Fallback::kCircuitOpen);
  stats.fallbacks_tier_error = fallbacks(Fallback::kTierError);
  stats.fallbacks_corruption = fallbacks(Fallback::kCorruption);
  stats.fallbacks_peer_miss = fallbacks(Fallback::kPeerMiss);
  stats.fallbacks_peer_error = fallbacks(Fallback::kPeerError);
  stats.degraded_fallbacks =
      stats.fallbacks_circuit_open + stats.fallbacks_tier_error +
      stats.fallbacks_corruption + stats.fallbacks_peer_miss +
      stats.fallbacks_peer_error;
  stats.chunk_hits = chunk_hits_.load(std::memory_order_relaxed);
  stats.chunk_misses = chunk_misses_.load(std::memory_order_relaxed);
  if (pack_index_ != nullptr) {
    stats.pack_extents = pack_index_->extent_count();
    stats.pack_logical_files = pack_index_->logical_files();
    stats.pack_logical_bytes = pack_index_->logical_bytes();
  }
  stats.files_indexed = metadata_.FileCount();
  stats.dataset_bytes = metadata_.TotalBytes();
  stats.metadata_init_seconds = metadata_.init_seconds();
  return stats;
}

}  // namespace monarch::core
