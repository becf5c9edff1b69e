#include "core/placement_handler.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/event_tracer.h"
#include "obs/json.h"
#include "util/crc32c.h"
#include "util/logging.h"

namespace monarch::core {

namespace {

const char* LaneName(StagingLane lane) {
  return lane == StagingLane::kDemand ? "demand" : "prefetch";
}

/// The scheduling thread's ambient tenant, or the process default
/// (training class) when none is installed — QoS-off callers never pay
/// for attribution.
qos::TenantContext SnapshotTenant() {
  const qos::TenantContext* ambient = qos::CurrentTenant();
  return ambient != nullptr ? *ambient : qos::TenantContext{};
}

}  // namespace

int PlacementHandler::TaskClass(const StagingTask& task) noexcept {
  if (task.lane == StagingLane::kPrefetch) {
    return qos::ClassIndex(qos::IoClass::kPrefetch);
  }
  return qos::ClassIndex(task.tenant.io_class);
}

std::uint64_t PlacementHandler::TaskBytes(const StagingTask& task) {
  const pack::ChunkMap& cm = *task.file->chunk_map();
  std::uint64_t bytes = 0;
  for (const std::uint32_t c : task.chunks) bytes += cm.ChunkLogicalBytes(c);
  return bytes;
}

void PlacementHandler::PushLocked(StagingTask task) {
  const int cls = TaskClass(task);
  const auto cost = static_cast<double>(TaskBytes(task));
  queue_.Push(cls, cost, std::move(task));
}

void PlacementHandler::NoteCopyDropped(FileInfo& file) noexcept {
  if (file.low_retention.exchange(false, std::memory_order_acq_rel)) {
    low_retention_resident_bytes_.fetch_sub(file.size,
                                            std::memory_order_relaxed);
  }
}

PlacementHandler::PlacementHandler(StorageHierarchy& hierarchy,
                                   MetadataContainer& metadata,
                                   PlacementPolicyPtr policy,
                                   PlacementOptions options,
                                   ResilienceOptions resilience,
                                   PeerViewPtr peer_view)
    : hierarchy_(hierarchy),
      metadata_(metadata),
      policy_(std::move(policy)),
      options_(options),
      resilience_(resilience),
      peer_view_(std::move(peer_view)),
      pool_(options.staging_buffer_bytes,
            std::min<std::uint64_t>(
                std::max<std::uint64_t>(1, options.staging_chunk_bytes),
                std::max<std::uint64_t>(1, options.staging_buffer_bytes))),
      inflight_bytes_(hierarchy.num_levels(), 0) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  evictions_counter_ = registry.GetCounter(
      "monarch.placement.evictions", "ops",
      "placed copies dropped to make room for incoming files");
  evicted_bytes_counter_ = registry.GetCounter(
      "monarch.placement.evicted_bytes", "bytes",
      "bytes freed from cache tiers by evictions");
  eviction_refused_counter_ = registry.GetCounter(
      "monarch.placement.eviction_refused", "ops",
      "evictions the policy refused or that freed no usable room");
  chunk_staged_counter_ = registry.GetCounter(
      "monarch.chunk.staged", "ops",
      "chunk copies published to cache tiers (pack mode)");
  chunk_stored_bytes_counter_ = registry.GetCounter(
      "monarch.chunk.stored_bytes", "bytes",
      "post-codec bytes written to cache tiers by chunk staging");
  chunk_evicted_counter_ = registry.GetCounter(
      "monarch.chunk.evicted", "ops",
      "chunk copies dropped from cache tiers");
  cross_class_counter_ = registry.GetCounter(
      "qos.cross_class_evictions", "ops",
      "evictions where a low-retention tenant dropped a demand working-"
      "set copy (zero by construction)");
  scan_refusal_counter_ = registry.GetCounter(
      "qos.scan_stage_refusals", "ops",
      "scan stagings refused by the low-retention resident cap");
  // Fair-queue classes (ISSUE 10): interactive and training are the
  // demand band, scan/drain/prefetch the background band. With QoS off
  // every class weighs 1 — the queue degenerates to the original
  // two-lane demand-before-prefetch behaviour.
  const qos::QosOptions& q = options_.qos;
  queue_.RegisterClass(qos::ClassIndex(qos::IoClass::kInteractive), 0,
                       q.enabled ? q.interactive_weight : 1.0);
  queue_.RegisterClass(qos::ClassIndex(qos::IoClass::kTraining), 0,
                       q.enabled ? q.training_weight : 1.0);
  queue_.RegisterClass(qos::ClassIndex(qos::IoClass::kScan), 1,
                       q.enabled ? q.scan_weight : 1.0);
  queue_.RegisterClass(qos::ClassIndex(qos::IoClass::kDrain), 1,
                       q.enabled ? q.drain_weight : 1.0);
  queue_.RegisterClass(qos::ClassIndex(qos::IoClass::kPrefetch), 1,
                       q.enabled ? q.drain_weight : 1.0);
  // A logical chunk must fit one pooled buffer: the staging pipeline
  // reads exactly one chunk per lease.
  options_.pack.chunk_bytes = std::min<std::uint64_t>(
      std::max<std::uint64_t>(1, options_.pack.chunk_bytes),
      pool_.chunk_bytes());
  if (options_.pack.enabled && options_.pack.codec != "none") {
    auto codec = pack::CodecByName(options_.pack.codec);
    if (codec.ok()) {
      codec_ = codec.value();
    } else {
      MLOG_WARN << "unknown pack codec '" << options_.pack.codec
                << "'; staging chunks uncompressed";
    }
  }
  const int n = std::max(1, options_.num_threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

PlacementHandler::~PlacementHandler() {
  StopScheduling();
  CancelPrefetches();
  {
    std::lock_guard lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // A prefetch copy that was running during shutdown may have parked
  // itself after the cancel above; return those files to the retryable
  // state instead of leaving them stuck in kFetching.
  CancelPrefetches();
}

bool PlacementHandler::Stage(const FileInfoPtr& file,
                             const StageRequest& request) {
  // A file past the failure cap (or unplaceable) claims no more; its
  // resident chunks keep serving.
  if (file->state.load(std::memory_order_acquire) ==
          PlacementState::kUnplaceable ||
      file->fetch_failures.load(std::memory_order_acquire) >=
          resilience_.max_placement_attempts) {
    return false;
  }
  pack::ChunkMap& cm = ChunksOf(*file);
  const std::uint64_t end =
      request.offset >= file->size
          ? request.offset
          : request.offset +
                std::min(request.length, file->size - request.offset);
  // Claim the chunks the range overlaps, so PFS bytes scale with bytes
  // touched — in whole-file mode the one chunk, the §III-B full fetch on
  // a partial read — or, with fetch_full_file_on_partial_read off, only
  // the chunks it covers in full. An empty file's chunk is covered by
  // any read of it.
  StagingTask task;
  for (std::uint32_t c = cm.ChunkOf(request.offset);
       c < cm.num_chunks() && cm.ChunkOffset(c) <= end; ++c) {
    const std::uint64_t from = cm.ChunkOffset(c);
    const std::uint64_t to = from + cm.ChunkLogicalBytes(c);
    const bool covered = from >= request.offset && to <= end;
    const bool overlaps = from < end && to > request.offset;
    if ((covered ||
         (overlaps && options_.fetch_full_file_on_partial_read)) &&
        cm.TryClaim(c)) {
      task.chunks.push_back(c);
    }
  }
  if (task.chunks.empty()) {
    // Someone else holds the claims — possibly a hint still queued
    // behind other speculative work. Demand has overtaken it: move it to
    // the demand lane.
    if (request.lane == StagingLane::kDemand && cm.Claims() > 0) {
      PromoteToDemand(file);
    }
    return false;
  }
  {
    std::lock_guard lock(cm.placement_mutex());
    Settle(*file, cm, /*permanently=*/false);
  }
  // The task owns the bytes the read path already fetched, from the first
  // claimed chunk that starts inside them on, avoiding a second PFS read
  // (§III-B, ③/④); they are copied only once a claim is won, never on
  // the per-read hot path.
  const auto first =
      std::find_if(task.chunks.begin(), task.chunks.end(),
                   [&](std::uint32_t c) {
                     return cm.ChunkOffset(c) >= request.offset;
                   });
  const std::uint64_t served_end = request.offset + request.served.size();
  if (first != task.chunks.end() && cm.ChunkOffset(*first) < served_end) {
    const std::uint32_t last = task.chunks.back();
    const std::uint64_t from = cm.ChunkOffset(*first);
    const std::uint64_t to = std::min(
        served_end, cm.ChunkOffset(last) + cm.ChunkLogicalBytes(last));
    const std::span<const std::byte> donated = request.served.subspan(
        static_cast<std::size_t>(from - request.offset),
        static_cast<std::size_t>(to - from));
    task.content.assign(donated.begin(), donated.end());
    task.content_offset = from;
  }
  task.file = file;
  task.lane = request.lane;
  task.tenant = SnapshotTenant();
  const bool prefetch = request.lane == StagingLane::kPrefetch;
  if (stopped_.load(std::memory_order_relaxed)) {
    if (prefetch) {
      prefetch_cancelled_.fetch_add(1, std::memory_order_relaxed);
      file->prefetched.store(false, std::memory_order_relaxed);
    }
    ReleaseClaims(task);
    return true;
  }
  if (request.hint) file->prefetched.store(true, std::memory_order_release);
  scheduled_.fetch_add(1, std::memory_order_relaxed);
  if (prefetch) prefetch_scheduled_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(mu_);
    PushLocked(std::move(task));
  }
  cv_.notify_one();
  return true;
}

void PlacementHandler::ReleaseClaims(const StagingTask& task,
                                     bool permanently) {
  pack::ChunkMap& cm = *task.file->chunk_map();
  for (const std::uint32_t c : task.chunks) cm.ReleaseClaim(c);
  std::lock_guard lock(cm.placement_mutex());
  Settle(*task.file, cm, permanently);
}

void PlacementHandler::Settle(FileInfo& file, pack::ChunkMap& cm,
                              bool permanently) {
  if (cm.ResidentCount() > 0) {
    file.level.store(cm.tier(), std::memory_order_release);
    file.state.store(PlacementState::kPlaced, std::memory_order_release);
    return;
  }
  cm.MaybeResetTier();
  file.level.store(hierarchy_.pfs_level(), std::memory_order_release);
  PlacementState state = PlacementState::kPfsOnly;
  if (permanently || file.state.load(std::memory_order_acquire) ==
                         PlacementState::kUnplaceable) {
    state = PlacementState::kUnplaceable;
  } else if (cm.Claims() > 0) {
    state = PlacementState::kFetching;
  }
  file.state.store(state, std::memory_order_release);
}

bool PlacementHandler::PromoteToDemand(const FileInfoPtr& file) {
  // The promoting thread is the overtaking demand reader: the task is
  // re-queued on that reader's class so the copy inherits its urgency.
  const qos::TenantContext promoter = SnapshotTenant();
  {
    std::lock_guard lock(mu_);
    auto match = [&file](const StagingTask& t) {
      return t.file == file && t.lane == StagingLane::kPrefetch;
    };
    std::optional<StagingTask> found = queue_.Extract(match);
    if (!found.has_value()) {
      auto dit = std::find_if(deferred_.begin(), deferred_.end(), match);
      if (dit == deferred_.end()) return false;
      found = std::move(*dit);
      deferred_.erase(dit);
    }
    found->lane = StagingLane::kDemand;
    found->tenant = promoter;
    PushLocked(std::move(*found));
  }
  prefetch_promoted_.fetch_add(1, std::memory_order_relaxed);
  obs::EventTracer& tracer = obs::EventTracer::Global();
  if (tracer.enabled()) {
    tracer.RecordInstant("placement.promote", "placement",
                         "\"file\":" + obs::JsonQuote(file->name));
  }
  cv_.notify_one();
  return true;
}

std::size_t PlacementHandler::CancelPrefetches() {
  std::vector<StagingTask> cancelled;
  {
    std::lock_guard lock(mu_);
    cancelled = queue_.ExtractAll([](const StagingTask& t) {
      return t.lane == StagingLane::kPrefetch;
    });
    for (auto& task : deferred_) cancelled.push_back(std::move(task));
    deferred_.clear();
  }
  for (const StagingTask& task : cancelled) {
    task.file->prefetched.store(false, std::memory_order_relaxed);
    ReleaseClaims(task);
    prefetch_cancelled_.fetch_add(1, std::memory_order_relaxed);
  }
  drain_cv_.notify_all();
  return cancelled.size();
}

void PlacementHandler::WorkerLoop() {
  for (;;) {
    StagingTask task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      std::optional<StagingTask> popped = queue_.TryPop();
      if (!popped.has_value()) {
        // shutdown_ is set and nothing is queued: exit after the last
        // task finishes (queued tasks still run to completion).
        return;
      }
      task = std::move(*popped);
      ++active_;
    }
    // Re-install the scheduling thread's tenant on this worker so every
    // byte the copy moves stays attributable across the thread hop.
    const qos::TenantContext tenant = task.tenant;
    qos::ScopedTenant scope(tenant);
    Place(std::move(task));
    {
      std::lock_guard lock(mu_);
      --active_;
    }
    drain_cv_.notify_all();
  }
}

bool PlacementHandler::AdmitInflight(int level, StagingTask& task) {
  const std::uint64_t size = TaskBytes(task);
  const std::uint64_t cap = options_.tier_inflight_cap_bytes;
  std::lock_guard lock(mu_);
  auto& inflight = inflight_bytes_[static_cast<std::size_t>(level)];
  // The `inflight > 0` guard makes parking self-resolving: some other
  // copy is in flight on this tier, and its FinishInflight (under this
  // mutex) splices the parked task back into the prefetch queue.
  if (task.lane == StagingLane::kPrefetch && cap > 0 && inflight > 0 &&
      inflight + size > cap) {
    deferred_.push_back(std::move(task));
    return false;
  }
  inflight += size;
  return true;
}

void PlacementHandler::FinishInflight(int level, std::uint64_t size) {
  bool wake = false;
  {
    std::lock_guard lock(mu_);
    inflight_bytes_[static_cast<std::size_t>(level)] -= size;
    if (!deferred_.empty()) {
      for (auto& task : deferred_) PushLocked(std::move(task));
      deferred_.clear();
      wake = true;
    }
  }
  if (wake) cv_.notify_all();
}

void PlacementHandler::RecordStagingFailure(const StagingTask& task) {
  const FileInfoPtr& file = task.file;
  failed_.fetch_add(1, std::memory_order_relaxed);
  if (!file->chunk_map()->whole_file()) {
    chunk_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  file->prefetched.store(false, std::memory_order_relaxed);
  const int failures =
      file->fetch_failures.fetch_add(1, std::memory_order_acq_rel) + 1;
  const bool abandon = failures >= resilience_.max_placement_attempts;
  if (!abandon) {
    retries_.fetch_add(1, std::memory_order_relaxed);
  } else if (failures == std::max(1, resilience_.max_placement_attempts)) {
    // Only the attempt that reaches the cap abandons the file: a pack
    // file's tasks run concurrently, and one already in flight may fail
    // past the cap.
    abandoned_.fetch_add(1, std::memory_order_relaxed);
    obs::EventTracer& tracer = obs::EventTracer::Global();
    if (tracer.enabled()) {
      tracer.RecordInstant("placement.abandoned", "resilience",
                           "\"file\":" + obs::JsonQuote(file->name) +
                               ",\"attempts\":" + std::to_string(failures));
    }
    MLOG_WARN << "giving up staging '" << file->name << "' after " << failures
              << " failed attempts; it stays PFS-resident";
  }
  ReleaseClaims(task, /*permanently=*/abandon);
}

std::span<const std::byte> PlacementHandler::DonatedPrefix(
    const StagingTask& task, const pack::ChunkMap& cm, std::uint32_t c) {
  const std::uint64_t from = cm.ChunkOffset(c);
  const std::uint64_t end = task.content_offset + task.content.size();
  if (from < task.content_offset || from >= end) return {};
  return std::span<const std::byte>(task.content)
      .subspan(static_cast<std::size_t>(from - task.content_offset),
               static_cast<std::size_t>(
                   std::min(end - from, cm.ChunkLogicalBytes(c))));
}

Status PlacementHandler::ReadPfs(const std::string& name, std::uint64_t offset,
                                 std::span<std::byte> dst) {
  auto read = hierarchy_.Pfs().Read(name, offset, dst);
  if (!read.ok()) return read.status();
  if (read.value() != dst.size()) {
    return InternalError("short PFS read of '" + name + "' at " +
                         std::to_string(offset) + ": got " +
                         std::to_string(read.value()) + " of " +
                         std::to_string(dst.size()) + " bytes");
  }
  return Status::Ok();
}

bool PlacementHandler::ReadBackMatches(StorageDriver& tier,
                                       const std::string& object,
                                       std::uint64_t bytes, std::uint32_t crc,
                                       std::span<std::byte> buffer) {
  std::uint32_t readback = 0;
  for (std::uint64_t pos = 0; pos < bytes;) {
    const std::span<std::byte> slice = buffer.first(static_cast<std::size_t>(
        std::min<std::uint64_t>(buffer.size(), bytes - pos)));
    auto read = tier.Read(object, pos, slice);
    if (!read.ok() || read.value() != slice.size()) return false;
    readback = Crc32c(slice, readback);
    pos += slice.size();
  }
  return readback == crc;
}

void PlacementHandler::Place(StagingTask task) {
  // Own reference, not an alias into the task: parking moves the task
  // into `deferred_`, which would leave `task.file` null.
  const FileInfoPtr file = task.file;
  const bool chunked = !file->chunk_map()->whole_file();
  const bool prefetch = task.lane == StagingLane::kPrefetch;
  // Spans the whole schedule→complete staging of one task. Args are only
  // rendered when tracing is live (active() gate).
  obs::TraceSpan span(chunked ? "pack.stage" : "placement.stage", "placement");
  if (span.active()) {
    span.set_args_json(
        "\"file\":" + obs::JsonQuote(file->name) +
        (chunked ? ",\"chunks\":" + std::to_string(task.chunks.size())
                 : ",\"bytes\":" + std::to_string(file->size)) +
        ",\"lane\":\"" + LaneName(task.lane) + "\"");
  }

  // Scan resistance (ISSUE 10): a low-retention tenant past its
  // resident cap is refused — its reads keep being served straight from
  // the PFS instead of churning the cache tiers.
  const std::uint64_t scan_cap = options_.qos.scan_stage_cap_bytes;
  if (task.tenant.low_retention && scan_cap > 0 &&
      low_retention_resident_bytes_.load(std::memory_order_relaxed) +
              file->size >
          scan_cap) {
    scan_stage_refusals_.fetch_add(1, std::memory_order_relaxed);
    scan_refusal_counter_->Increment();
    if (prefetch) {
      prefetch_cancelled_.fetch_add(1, std::memory_order_relaxed);
      file->prefetched.store(false, std::memory_order_relaxed);
    }
    file->stage_refused.store(true, std::memory_order_release);
    ReleaseClaims(task);
    return;
  }

  const CopyResult result = CopyChunks(task);
  if (result.kind == CopyResult::kPublished ||
      result.kind == CopyResult::kParked) {
    return;
  }
  // Only the claims the loop did not publish go back.
  task.chunks.erase(task.chunks.begin(),
                    task.chunks.begin() +
                        static_cast<std::ptrdiff_t>(result.next));
  obs::EventTracer& tracer = obs::EventTracer::Global();
  if (result.kind == CopyResult::kNoSpace) {
    rejected_no_space_.fetch_add(1, std::memory_order_relaxed);
    if (tracer.enabled()) {
      tracer.RecordInstant("placement.rejected_no_space", "placement",
                           "\"file\":" + obs::JsonQuote(file->name));
    }
    // A prefetch rejection is never permanent: a later demand read may
    // still place the file. Under eviction headroom is dynamic — the
    // rejection only means the policy protected every current resident
    // (or lost the claim races) — and a pack file may fit chunk by chunk
    // later, so both stay retryable, with stage_refused latched so
    // chunked readers retry once per file open instead of once per
    // chunk. Otherwise no tier can hold the file and nothing will ever
    // be evicted: it stays PFS-resident for the whole job (the
    // 200 GiB-dataset scenario).
    const bool retryable = prefetch || chunked || MayEvict(task.lane);
    if (prefetch) {
      prefetch_cancelled_.fetch_add(1, std::memory_order_relaxed);
      file->prefetched.store(false, std::memory_order_relaxed);
    } else if (retryable) {
      file->stage_refused.store(true, std::memory_order_release);
    }
    ReleaseClaims(task, /*permanently=*/!retryable);
    return;
  }
  if (result.kind == CopyResult::kCorrupt) {
    // The copy failed its read-back: it was deleted before it ever
    // served, and counts as a failed attempt.
    quarantined_.fetch_add(1, std::memory_order_relaxed);
    if (tracer.enabled()) {
      tracer.RecordInstant("placement.quarantine", "resilience",
                           "\"file\":" + obs::JsonQuote(file->name) +
                               ",\"tier\":" + obs::JsonQuote(result.tier) +
                               ",\"phase\":\"stage\"");
    }
  }
  MLOG_WARN << "staging of '" << file->name << "' failed: " << result.error;
  RecordStagingFailure(task);
}

PlacementHandler::CopyResult PlacementHandler::CopyChunks(StagingTask& task) {
  // Own references, not aliases into the task: parking moves the task
  // into `deferred_`.
  const FileInfoPtr file = task.file;
  pack::ChunkMap& cm = *file->chunk_map();  // claims imply a map
  const std::uint64_t task_bytes = TaskBytes(task);
  // One pooled buffer carries the task's PFS reads and read-backs — peak
  // staging memory is the pool budget, never the file size. It is taken
  // on first use: a wholly donated chunk needs none before its read-back.
  std::optional<BufferPool::Lease> lease;
  const auto buffer = [&]() -> std::span<std::byte> {
    if (!lease.has_value()) lease.emplace(pool_.Acquire());
    return lease->bytes();
  };
  const std::uint64_t slice_bytes = pool_.chunk_bytes();
  std::vector<std::byte> encoded;  // codec output, reused across chunks
  int admitted = -1;  // the level charged with the task's in-flight bytes
  const auto finish = [&](CopyResult result) {
    if (admitted >= 0) FinishInflight(admitted, task_bytes);
    return result;
  };
  for (std::size_t next = 0; next < task.chunks.size(); ++next) {
    const std::uint32_t c = task.chunks[next];
    const std::uint64_t offset = cm.ChunkOffset(c);
    const std::uint64_t logical_n = cm.ChunkLogicalBytes(c);
    const std::span<const std::byte> donated = DonatedPrefix(task, cm, c);
    const auto fail = [&](CopyResult::Kind kind, Status error = {}) {
      return finish({kind, std::move(error), {}, next});
    };
    pack::ChunkMap::ChunkMeta meta;
    meta.stored_bytes = logical_n;
    std::optional<int> level;
    if (codec_ == nullptr) {
      // 1. The stored size is the logical size: reserve first, so a tier
      // with no room costs no PFS read.
      level = ReserveChunk(file, cm, logical_n, task.lane);
      if (!level.has_value()) return fail(CopyResult::kNoSpace);
    } else {
      // 1'. An encoded chunk is gathered whole (it fits the buffer:
      // pack.chunk_bytes is clamped to it) — the donated prefix, then the
      // rest from the PFS — CRC'd and encoded, then reserved.
      std::span<const std::byte> logical = donated;
      Status gathered = Status::Ok();
      if (donated.size() < logical_n) {
        const std::span<std::byte> whole =
            buffer().first(static_cast<std::size_t>(logical_n));
        std::copy(donated.begin(), donated.end(), whole.begin());
        gathered = ReadPfs(file->name, offset + donated.size(),
                           whole.subspan(donated.size()));
        logical = whole;
      }
      if (gathered.ok()) gathered = codec_->Encode(logical, encoded);
      if (!gathered.ok()) return fail(CopyResult::kFailed, std::move(gathered));
      meta.crc_logical = Crc32c(logical);
      meta.stored_bytes = encoded.size();
      meta.crc_stored = Crc32c(std::span<const std::byte>(encoded));
      level = ReserveChunk(file, cm, meta.stored_bytes, task.lane);
      if (!level.has_value()) return fail(CopyResult::kNoSpace);
    }
    StorageDriver& tier = hierarchy_.Level(*level);

    // 2. Per-tier staging-bandwidth cap, once per task: a prefetch copy
    // parks while the tier is saturated (any completion on the tier
    // un-parks it); demand copies are exempt so a read-triggered stage
    // never waits here.
    if (admitted < 0) {
      if (!AdmitInflight(*level, task)) {
        tier.Release(meta.stored_bytes);
        return {CopyResult::kParked};
      }
      admitted = *level;
    }

    // 3. Write: one put of an encoded or wholly donated chunk; otherwise
    // the donated prefix, then the rest read from the PFS through the
    // buffer, slice by slice, the CRC accumulating in file order.
    const std::string object = pack::ChunkObjectName(file->name, cm, c);
    Status written = Status::Ok();
    if (codec_ != nullptr || donated.size() == logical_n) {
      if (codec_ == nullptr) meta.crc_logical = meta.crc_stored = Crc32c(donated);
      written = tier.Write(object, codec_ != nullptr
                                       ? std::span<const std::byte>(encoded)
                                       : donated);
      chunks_copied_.fetch_add(1, std::memory_order_relaxed);
    } else {
      std::uint32_t crc = 0;
      for (std::uint64_t pos = 0; pos < logical_n && written.ok();) {
        std::span<const std::byte> slice;
        if (pos < donated.size()) {
          slice = donated.subspan(static_cast<std::size_t>(pos),
                                  static_cast<std::size_t>(std::min(
                                      slice_bytes, donated.size() - pos)));
        } else {
          const std::span<std::byte> dst = buffer().first(
              static_cast<std::size_t>(std::min(slice_bytes, logical_n - pos)));
          written = ReadPfs(file->name, offset + pos, dst);
          slice = dst;
        }
        if (!written.ok()) break;
        crc = Crc32c(slice, crc);
        written = tier.WriteAt(object, pos, slice);
        chunks_copied_.fetch_add(1, std::memory_order_relaxed);
        pos += slice.size();
      }
      meta.crc_logical = meta.crc_stored = crc;
    }
    if (written.ok()) {
      donated_bytes_.fetch_add(donated.size(), std::memory_order_relaxed);
    }

    // 4. Optionally read the chunk back (in pooled slices) and prove the
    // bytes landed intact — a corrupted staged copy must degrade to a
    // failed placement, never get published as a serving replica.
    CopyResult result{CopyResult::kPublished};
    if (!written.ok()) {
      result = {CopyResult::kFailed, written, {}, next};
    } else if (resilience_.verify_staged_writes &&
               !ReadBackMatches(tier, object, meta.stored_bytes,
                                meta.crc_stored, buffer())) {
      result = {CopyResult::kCorrupt,
                DataLossError("staged chunk failed verification: " + object),
                tier.name(), next};
    }
    if (result.kind != CopyResult::kPublished) {
      // Remove a partial or corrupt copy so a retry starts clean and
      // readers never see it. We still hold the reservation, so the
      // quota comes back whether or not the delete found anything.
      (void)tier.Delete(object);
      tier.Release(meta.stored_bytes);
      return finish(std::move(result));
    }

    // 5. Publish.
    {
      std::lock_guard lock(cm.placement_mutex());
      const std::uint32_t resident = cm.Publish(c, meta);
      // Advertise the copy once it is complete — peers fetch pack files
      // whole. Under the placement mutex, so the ad can never be ordered
      // after a concurrent drop's retraction.
      if (resident == cm.num_chunks() && peer_view_ != nullptr) {
        peer_view_->OnStaged(file->name, *level);
      }
      // First resident chunk: the file now serves (at least partially)
      // from a tier, so the eviction policies see it as placed.
      if (resident == 1) PublishFile(*file, cm, task);
    }
    bytes_staged_.fetch_add(logical_n, std::memory_order_relaxed);
    if (!cm.whole_file()) {
      chunks_staged_.fetch_add(1, std::memory_order_relaxed);
      chunk_stored_bytes_.fetch_add(meta.stored_bytes,
                                    std::memory_order_relaxed);
      chunk_staged_counter_->Increment();
      chunk_stored_bytes_counter_->Increment(meta.stored_bytes);
    }
  }
  return finish({CopyResult::kPublished});
}

void PlacementHandler::PublishFile(FileInfo& file, pack::ChunkMap& cm,
                                   const StagingTask& task) {
  file.fetch_failures.store(0, std::memory_order_relaxed);
  if (task.tenant.low_retention) {
    if (!file.low_retention.exchange(true, std::memory_order_acq_rel)) {
      low_retention_resident_bytes_.fetch_add(file.size,
                                              std::memory_order_relaxed);
    }
  } else {
    // A demand-class tenant re-staged the file: its copy is a working-
    // set member again, protected from low-retention evictors.
    NoteCopyDropped(file);
  }
  Settle(file, cm, /*permanently=*/false);
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (task.lane == StagingLane::kPrefetch) {
    prefetch_completed_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool PlacementHandler::DropCopy(const FileInfoPtr& file, DropCause cause,
                                std::optional<std::uint32_t> chunk) {
  FileInfo& f = *file;
  // Scan resistance (ISSUE 10): a low-retention requester may only
  // evict other low-retention copies — it can never push out a demand
  // working set, so `qos.cross_class_evictions` stays zero by
  // construction.
  const qos::TenantContext* requester = qos::CurrentTenant();
  const bool scan_evictor = cause == DropCause::kEvict &&
                            requester != nullptr && requester->low_retention;
  if (scan_evictor && !f.low_retention.load(std::memory_order_acquire)) {
    return false;
  }
  pack::ChunkMap* cm = f.chunk_map();
  if (cm == nullptr) return false;
  StorageDriver* tier = nullptr;
  std::uint64_t freed = 0;
  std::uint64_t dropped = 0;
  bool victim_low_retention = false;
  {
    // Under the placement mutex, so a concurrent publish lands wholly
    // before or after the drop, and drops of one file serialize.
    std::lock_guard lock(cm->placement_mutex());
    if (cm->ResidentCount() == 0 ||
        (chunk.has_value() && !cm->IsResident(*chunk))) {
      return false;
    }
    // Read pins: a demand read is mid-flight on this file's
    // staged copy — its bytes stay until the read ends. A reader that
    // pins after this check degrades to the pre-pinning behaviour
    // (kNotFound -> PFS fallback). A quarantine comes from the pinned
    // reader that caught the corruption.
    if (cause != DropCause::kQuarantine &&
        f.read_pins.load(std::memory_order_acquire) > 0) {
      eviction_pinned_skips_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    victim_low_retention = f.low_retention.load(std::memory_order_acquire);
    tier = &hierarchy_.Level(cm->tier());
    // Peers fetch a pack file only whole, so the cluster directory
    // advertises complete copies only: retract the ad before the bytes
    // go.
    if (cm->ResidentCount() == cm->num_chunks() && peer_view_ != nullptr) {
      peer_view_->OnDropped(f.name);
    }
    const std::uint32_t first = chunk.value_or(0);
    const std::uint32_t last =
        chunk.has_value() ? *chunk : cm->num_chunks() - 1;
    for (std::uint32_t c = first; c <= last; ++c) {
      if (!cm->IsResident(c)) continue;
      // The object goes before the resident bit: a resident chunk
      // refuses claims, so no re-stage can write it while it is deleted.
      (void)tier->Delete(pack::ChunkObjectName(f.name, *cm, c));
      const std::uint64_t stored = cm->TryEvict(c);
      tier->Release(stored);
      freed += stored;
      ++dropped;
    }
    bool permanently = false;
    if (cause == DropCause::kQuarantine) {
      // A corrupt copy counts toward the per-file cap so persistent
      // corruption eventually parks the file as unplaceable; with
      // restage_after_quarantine off it is parked immediately.
      const int failures =
          f.fetch_failures.fetch_add(1, std::memory_order_acq_rel) + 1;
      permanently = !resilience_.restage_after_quarantine ||
                    failures >= resilience_.max_placement_attempts;
    }
    if (cm->ResidentCount() == 0) NoteCopyDropped(f);
    Settle(f, *cm, permanently);
  }

  obs::EventTracer& tracer = obs::EventTracer::Global();
  if (cause == DropCause::kQuarantine) {
    quarantined_.fetch_add(1, std::memory_order_relaxed);
    if (tracer.enabled()) {
      tracer.RecordInstant("placement.quarantine", "resilience",
                           "\"file\":" + obs::JsonQuote(f.name) +
                               ",\"tier\":" + obs::JsonQuote(tier->name()) +
                               ",\"phase\":\"read\"");
    }
    MLOG_WARN << "quarantined corrupt copy of '" << f.name << "' on tier '"
              << tier->name() << "'; reads fall back to the PFS";
  } else if (cause == DropCause::kEvict) {
    if (scan_evictor && !victim_low_retention) {
      // Unreachable under the guard above; counted so a future
      // regression shows up in `qos.cross_class_evictions` instead of
      // hiding.
      cross_class_evictions_.fetch_add(1, std::memory_order_relaxed);
      cross_class_counter_->Increment();
    }
    if (!cm->whole_file()) {
      chunks_evicted_.fetch_add(dropped, std::memory_order_relaxed);
      chunk_evicted_counter_->Increment(dropped);
    } else {
      evictions_.fetch_add(1, std::memory_order_relaxed);
      evictions_counter_->Increment();
    }
    evicted_bytes_.fetch_add(freed, std::memory_order_relaxed);
    evicted_bytes_counter_->Increment(freed);
    if (tracer.enabled()) {
      tracer.RecordInstant(
          "placement.evict", "placement",
          "\"file\":" + obs::JsonQuote(f.name) +
              ",\"bytes\":" + std::to_string(freed) +
              (cm->whole_file() ? ""
                                : ",\"chunks\":" + std::to_string(dropped)) +
              ",\"tier\":" + obs::JsonQuote(tier->name()));
    }
  }
  return true;
}

std::uint64_t PlacementHandler::DropAllCopies() {
  // Quiesce staging first so no copy lands after its delete.
  const bool was_stopped = stopped_.exchange(true);
  Drain();
  std::uint64_t dropped = 0;
  for (const auto& entry : metadata_.Snapshot()) {
    if (entry.state != PlacementState::kPlaced) continue;
    FileInfoPtr info = metadata_.Lookup(entry.name);
    if (info && DropCopy(info, DropCause::kCleanup)) ++dropped;
  }
  if (!was_stopped) stopped_.store(false);
  return dropped;
}

std::uint64_t PlacementHandler::ReadvertiseCopies() {
  if (peer_view_ == nullptr) return 0;
  std::uint64_t readvertised = 0;
  for (const auto& entry : metadata_.Snapshot()) {
    if (entry.state != PlacementState::kPlaced) continue;
    FileInfoPtr info = metadata_.Lookup(entry.name);
    pack::ChunkMap* cm = info ? info->chunk_map() : nullptr;
    if (cm == nullptr) continue;
    // A copy is advertised only while it is complete; under the placement
    // mutex, like a publish, so the ad cannot outlive a concurrent drop.
    std::lock_guard lock(cm->placement_mutex());
    if (cm->ResidentCount() != cm->num_chunks()) continue;
    peer_view_->OnStaged(entry.name, cm->tier());
    ++readvertised;
  }
  return readvertised;
}

bool PlacementHandler::MayEvict(StagingLane lane) const {
  return lane == StagingLane::kDemand
             ? options_.enable_eviction || policy_->EvictsUnderPressure()
             : policy_->PrefetchMayEvict();
}

std::optional<int> PlacementHandler::ReserveSpace(const FileInfoPtr& file,
                                                  StagingLane lane,
                                                  std::uint64_t bytes,
                                                  int level) {
  const auto reserve = [&]() -> std::optional<int> {
    if (level < 0) return policy_->PickLevel(hierarchy_, bytes);
    if (hierarchy_.Level(level).Reserve(bytes)) return level;
    return std::nullopt;
  };
  if (std::optional<int> reserved = reserve()) return reserved;
  if (!MayEvict(lane)) return std::nullopt;

  // The policy ranks; this loop claims and drops. Re-try the reservation
  // after each drop — freed space is first-come-first-served under
  // concurrent workers, so the reservation is the only proof.
  for (const FileInfoPtr& victim : RankVictims(file, lane)) {
    if (victim == file) continue;
    // A reservation pinned to `level` (the tier holding the incoming
    // file's other chunks) is helped only by victims resident there.
    if (level >= 0 && victim->level.load(std::memory_order_acquire) != level) {
      continue;
    }
    if (!DropCopy(victim, DropCause::kEvict)) continue;
    if (std::optional<int> reserved = reserve()) return reserved;
  }
  eviction_refused_.fetch_add(1, std::memory_order_relaxed);
  eviction_refused_counter_->Increment();
  obs::EventTracer& tracer = obs::EventTracer::Global();
  if (tracer.enabled()) {
    tracer.RecordInstant("placement.evict_refused", "placement",
                         "\"file\":" + obs::JsonQuote(file->name) +
                             ",\"bytes\":" + std::to_string(bytes));
  }
  return std::nullopt;
}

std::vector<FileInfoPtr> PlacementHandler::RankVictims(
    const FileInfoPtr& incoming, StagingLane lane) {
  std::vector<FileInfoPtr> victims = policy_->SelectVictims(
      metadata_, *incoming, lane == StagingLane::kDemand);
  if (!options_.qos.enabled) return victims;
  // Low-retention (scan) copies are tried first: they are explicitly
  // marked expendable, so demand working sets survive pressure longest.
  // The flags are live atomics that staging and eviction flip
  // concurrently, so they are snapshotted once: a partition predicate
  // whose answer changes mid-partition breaks the algorithm's
  // preconditions.
  std::vector<char> low(victims.size());
  for (std::size_t i = 0; i < victims.size(); ++i) {
    low[i] = victims[i]->low_retention.load(std::memory_order_acquire);
  }
  std::vector<FileInfoPtr> ranked;
  ranked.reserve(victims.size());
  for (const bool pass : {true, false}) {
    for (std::size_t i = 0; i < victims.size(); ++i) {
      if ((low[i] != 0) == pass) ranked.push_back(victims[i]);
    }
  }
  return ranked;
}

std::optional<int> PlacementHandler::ReserveChunk(const FileInfoPtr& file,
                                                  pack::ChunkMap& cm,
                                                  std::uint64_t stored_bytes,
                                                  StagingLane lane) {
  int level = cm.tier();
  if (level < 0) {
    // No tier assigned yet: let the policy pick one (reserving the
    // bytes there), then race to install it as the file's tier.
    const std::optional<int> picked = ReserveSpace(file, lane, stored_bytes);
    if (!picked.has_value()) return std::nullopt;
    {
      std::lock_guard lock(cm.placement_mutex());
      level = cm.AssignTier(*picked);
    }
    if (level == *picked) return level;
    // Lost the assignment race: hand the reservation back and reserve
    // on the winner's tier instead.
    hierarchy_.Level(*picked).Release(stored_bytes);
  }
  return ReserveSpace(file, lane, stored_bytes, level);
}

void PlacementHandler::InstallSchedule(
    const std::vector<std::string>& sequence) {
  policy_->OnSchedule(sequence);
  obs::EventTracer& tracer = obs::EventTracer::Global();
  if (tracer.enabled()) {
    tracer.RecordInstant("placement.schedule", "placement",
                         "\"accesses\":" + std::to_string(sequence.size()) +
                             ",\"policy\":" + obs::JsonQuote(policy_->Name()));
  }
}

void PlacementHandler::NoteAccess(const FileInfo& file) {
  policy_->OnAccess(file);
}

void PlacementHandler::Drain() {
  std::unique_lock lock(mu_);
  drain_cv_.wait(lock, [this] {
    return queue_.empty() && deferred_.empty() && active_ == 0;
  });
}

PlacementStats PlacementHandler::Stats() const {
  PlacementStats s;
  s.scheduled = scheduled_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.rejected_no_space = rejected_no_space_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.bytes_staged = bytes_staged_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.evicted_bytes = evicted_bytes_.load(std::memory_order_relaxed);
  s.eviction_refused = eviction_refused_.load(std::memory_order_relaxed);
  s.eviction_pinned_skips =
      eviction_pinned_skips_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.quarantined = quarantined_.load(std::memory_order_relaxed);
  s.abandoned = abandoned_.load(std::memory_order_relaxed);
  s.prefetch_scheduled = prefetch_scheduled_.load(std::memory_order_relaxed);
  s.prefetch_completed = prefetch_completed_.load(std::memory_order_relaxed);
  s.prefetch_promoted = prefetch_promoted_.load(std::memory_order_relaxed);
  s.prefetch_cancelled = prefetch_cancelled_.load(std::memory_order_relaxed);
  s.chunks_copied = chunks_copied_.load(std::memory_order_relaxed);
  s.donated_bytes = donated_bytes_.load(std::memory_order_relaxed);
  s.chunks_staged = chunks_staged_.load(std::memory_order_relaxed);
  s.chunk_stored_bytes = chunk_stored_bytes_.load(std::memory_order_relaxed);
  s.chunks_evicted = chunks_evicted_.load(std::memory_order_relaxed);
  s.chunk_failures = chunk_failures_.load(std::memory_order_relaxed);
  s.cross_class_evictions =
      cross_class_evictions_.load(std::memory_order_relaxed);
  s.scan_stage_refusals =
      scan_stage_refusals_.load(std::memory_order_relaxed);
  s.low_retention_resident_bytes =
      low_retention_resident_bytes_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(mu_);
    s.queue_depth_interactive = queue_.class_depth(
        qos::ClassIndex(qos::IoClass::kInteractive));
    s.queue_depth_training =
        queue_.class_depth(qos::ClassIndex(qos::IoClass::kTraining));
    s.queue_depth_scan =
        queue_.class_depth(qos::ClassIndex(qos::IoClass::kScan));
    s.queue_depth_drain =
        queue_.class_depth(qos::ClassIndex(qos::IoClass::kDrain));
    // The original two-lane gauges survive as aggregates: every demand-
    // band class counts as demand, the prefetch class (plus parked
    // tasks) as prefetch.
    s.queue_depth_demand = s.queue_depth_interactive +
                           s.queue_depth_training + s.queue_depth_scan +
                           s.queue_depth_drain;
    s.queue_depth_prefetch =
        queue_.class_depth(qos::ClassIndex(qos::IoClass::kPrefetch)) +
        deferred_.size();
    for (const std::uint64_t bytes : inflight_bytes_) s.inflight_bytes += bytes;
  }
  s.buffer_pool_used_bytes = pool_.in_use_bytes();
  s.buffer_pool_capacity_bytes = pool_.capacity_bytes();
  return s;
}

}  // namespace monarch::core
