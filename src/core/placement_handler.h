// PlacementHandler: MONARCH's background staging engine (§III-A/B),
// rebuilt as a pipelined, two-lane copy service. It alone decides what a
// staged copy is. The one unit is the chunk of a file's ChunkMap: a
// fixed-size chunk in pack mode, the whole file in whole-file mode (the
// paper's unit, the one-chunk case). Every copy runs one lifecycle:
//
//   claim    Stage() takes the ChunkMap claim bits of the chunks a read
//            touched (all of them for a prestage or hint) and enqueues
//            the task; a claim is held by exactly one staging task.
//   place    dedicated worker threads — the paper configures 6 — ask the
//            placement policy for a writable level with room (first-fit
//            top-down in the paper's configuration), then copy each
//            claimed chunk: the triggering read's bytes from the chunk's
//            offset on, the rest read from the PFS through a bounded,
//            reusable buffer pool (peak staging memory is
//            `staging_buffer_bytes`) slice by slice, CRC'd on the way; a
//            pack chunk with a codec is gathered whole, encoded and CRC'd
//            on both sides.
//   publish  when verify_staged_writes is on, a read-back in pooled
//            slices proves the chunk's CRC; its metadata is then
//            published so reads are served from it, and a complete copy
//            is advertised to the cluster directory.
//   drop     DropCopy() honours read pins, retracts the advertisement,
//            deletes the named chunk (or every resident one), releases
//            the quota and resets the file to PFS-resident once nothing
//            is left — for eviction, read-time quarantine and cleanup
//            alike.
//
// Two lanes: DEMAND tasks come from actual reads and always run first;
// PREFETCH tasks come from look-ahead hints (Monarch::HintUpcoming) and
// only run when no demand work is queued. A per-tier in-flight byte cap
// additionally parks prefetch copies while a tier's staging bandwidth is
// saturated, so speculative work cannot starve demand staging. A demand
// read that overtakes a queued prefetch promotes it to the demand lane;
// prefetch never evicts and a prefetch rejection is never permanent.
//
// Failure handling (ISSUE 2): backend I/O is retried inside the storage
// drivers; a staging attempt that still fails is re-tried on a later
// access until the per-file cap (max_placement_attempts) marks the file
// unplaceable — for a chunked file, no more of its chunks are claimed. A
// copy whose checksum does not match is QUARANTINED: dropped, and the
// file reset to PFS-resident — corruption degrades to vanilla-PFS
// performance, never wrong bytes.
//
// Evictions (ISSUE 6): the paper's first-fit policy never evicts — with
// random per-epoch access every file is equally likely, so replacement
// would only add tier-to-tier traffic ("I/O trashing"). The eviction-
// capable policies (lru, hotspot, clairvoyant; docs/PLACEMENT.md) make
// the opposite bet for partial-fit datasets: when no tier has room, the
// handler walks the policy's victim ranking and drops placed copies
// until the incoming file (or chunk) fits. The demand lane evicts
// whenever the policy allows it (or the enable_eviction ablation forces
// it); the prefetch lane only under clairvoyant, whose speculative
// copies are certain future reads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/file_info.h"
#include "core/metadata_container.h"
#include "core/peer_view.h"
#include "core/placement_policy.h"
#include "core/resilience.h"
#include "core/storage_hierarchy.h"
#include "obs/metrics_registry.h"
#include "pack/codec.h"
#include "pack/options.h"
#include "qos/fair_queue.h"
#include "qos/options.h"
#include "qos/tenant.h"
#include "util/buffer_pool.h"

namespace monarch::core {

/// Which queue a staging task belongs to. Demand tasks (read-triggered)
/// always pop before prefetch tasks (hint-triggered).
enum class StagingLane { kDemand, kPrefetch };

struct PlacementOptions {
  /// Background copy threads (paper: 6).
  int num_threads = 6;

  /// When the framework's read covers only part of a chunk, fetch the
  /// whole chunk — in whole-file mode the whole file — in the background
  /// anyway (§III-B). Disabling this is the `abl_design_choices`
  /// "no-full-fetch" arm: only the chunks a read covers in full (in
  /// whole-file mode, only full-file reads) get staged.
  bool fetch_full_file_on_partial_read = true;

  /// Force the demand lane to evict even under a policy that does not
  /// evict on its own (FirstFitPolicy's ablation arm: LRU-ordered
  /// victims). Policies whose EvictsUnderPressure() is true evict
  /// regardless of this flag; the prefetch lane evicts only when the
  /// policy's PrefetchMayEvict() allows it (clairvoyant).
  bool enable_eviction = false;

  /// Total budget for the chunk buffer pool — the hard cap on staging
  /// memory (`[placement] staging_buffer_bytes`).
  std::uint64_t staging_buffer_bytes = 64ULL * 1024 * 1024;

  /// Copy granularity: each pooled buffer holds one chunk of this size
  /// (`[placement] staging_chunk_bytes`).
  std::uint64_t staging_chunk_bytes = 4ULL * 1024 * 1024;

  /// Per-tier cap on bytes being staged concurrently by the PREFETCH
  /// lane; 0 = uncapped. Every task's claimed bytes count as in flight;
  /// while a tier carries this much, further prefetch copies park until a
  /// copy completes — demand staging is exempt
  /// (`[placement] tier_inflight_cap_bytes`).
  std::uint64_t tier_inflight_cap_bytes = 0;

  /// How many hinted files the prefetch cursor keeps in flight ahead of
  /// the newest demand read; 0 disables look-ahead prefetching
  /// (`[placement] prefetch_lookahead`). Consumed by Monarch, carried
  /// here so one options struct configures the whole staging engine.
  int prefetch_lookahead = 0;

  /// Multi-tenant QoS (ISSUE 10). When `qos.enabled`, the two-lane
  /// queue generalizes to per-class weighted fair queuing (interactive >
  /// training > scan > drain/prefetch) and low-retention tenants are
  /// scan-resisted: they may only evict other low-retention copies, and
  /// `qos.scan_stage_cap_bytes` caps their resident footprint. Off, the
  /// queue degenerates to the original demand/prefetch behaviour.
  qos::QosOptions qos;

  /// Small-file packing / chunk-granularity staging (ISSUE 9). When
  /// `pack.enabled`, files are cut into `pack.chunk_bytes` chunks instead
  /// of one whole-file chunk; `pack.chunk_bytes` is clamped to the
  /// staging chunk size so a logical chunk always fits one pooled buffer.
  pack::PackOptions pack;
};

struct PlacementStats {
  std::uint64_t scheduled = 0;     ///< placement tasks enqueued (both lanes)
  std::uint64_t completed = 0;     ///< files now served from upper tiers
  std::uint64_t rejected_no_space = 0;
  std::uint64_t failed = 0;        ///< backend errors during staging
  std::uint64_t bytes_staged = 0;
  std::uint64_t evictions = 0;       ///< placed copies dropped for space
  std::uint64_t evicted_bytes = 0;   ///< bytes those copies occupied
  /// Evictions the policy refused (no eligible victim) or that freed no
  /// usable room — the incoming file stayed rejected.
  std::uint64_t eviction_refused = 0;
  /// Victim claims reverted because a demand read held the file pinned.
  std::uint64_t eviction_pinned_skips = 0;
  std::uint64_t retries = 0;       ///< failed stagings left retryable
  std::uint64_t quarantined = 0;   ///< copies deleted on CRC mismatch
  std::uint64_t abandoned = 0;     ///< files past max_placement_attempts

  // Pipelined-staging telemetry (docs/OBSERVABILITY.md §1).
  std::uint64_t prefetch_scheduled = 0;  ///< hint-lane tasks enqueued
  std::uint64_t prefetch_completed = 0;  ///< hint-lane copies published
  std::uint64_t prefetch_promoted = 0;   ///< hints overtaken by demand reads
  std::uint64_t prefetch_cancelled = 0;  ///< hints dropped before staging
  std::uint64_t chunks_copied = 0;       ///< tier writes across all copies
  std::uint64_t donated_bytes = 0;       ///< triggering-read bytes reused
  std::uint64_t queue_depth_demand = 0;  ///< gauge: demand tasks waiting
  std::uint64_t queue_depth_prefetch = 0; ///< gauge: prefetch waiting+parked
  std::uint64_t inflight_bytes = 0;      ///< gauge: bytes being copied now
  std::uint64_t buffer_pool_used_bytes = 0;      ///< gauge
  std::uint64_t buffer_pool_capacity_bytes = 0;  ///< gauge

  // Chunk-granularity staging (ISSUE 9; zero when pack mode is off).
  std::uint64_t chunks_staged = 0;        ///< chunk copies published
  std::uint64_t chunk_stored_bytes = 0;   ///< post-codec bytes written
  std::uint64_t chunks_evicted = 0;       ///< chunk copies dropped
  std::uint64_t chunk_failures = 0;       ///< chunk copies that failed

  // Multi-tenant QoS (ISSUE 10; docs/OBSERVABILITY.md §1).
  std::uint64_t queue_depth_interactive = 0;  ///< gauge: class depth
  std::uint64_t queue_depth_training = 0;     ///< gauge: class depth
  std::uint64_t queue_depth_scan = 0;         ///< gauge: class depth
  std::uint64_t queue_depth_drain = 0;        ///< gauge: class depth
  /// Evictions where a low-retention requester dropped a non-low-
  /// retention copy. Zero by construction: the victim walk skips them.
  std::uint64_t cross_class_evictions = 0;
  /// Scan stagings refused by `qos.scan_stage_cap_bytes` (the read was
  /// served straight from the PFS instead of churning the cache).
  std::uint64_t scan_stage_refusals = 0;
  /// Gauge: resident bytes currently held by low-retention copies.
  std::uint64_t low_retention_resident_bytes = 0;
};

/// What to claim and stage (PlacementHandler::Stage).
struct StageRequest {
  StagingLane lane = StagingLane::kDemand;
  /// The bytes a read touched: the chunks that overlap the range are
  /// claimed (only those it covers in full when
  /// fetch_full_file_on_partial_read is off). Default: the whole file.
  std::uint64_t offset = 0;
  std::uint64_t length = std::numeric_limits<std::uint64_t>::max();
  /// Bytes the triggering read already pulled at `offset`. Those from a
  /// claimed chunk's offset on are donated to its copy, which never
  /// re-reads them from the PFS; they are copied only when a claim
  /// succeeds.
  std::span<const std::byte> served{};
  /// A look-ahead hint asked: mark the file `prefetched` (prefetch-hit
  /// accounting).
  bool hint = false;
};

/// Why a placed copy is dropped (PlacementHandler::DropCopy).
enum class DropCause {
  kEvict,       ///< make room; read pins and scan resistance honoured
  kQuarantine,  ///< failed read-time verification; counts as a failure
  kCleanup,     ///< ephemeral teardown; read pins honoured
};

class PlacementHandler {
 public:
  /// `peer_view`, when set, is notified of every publish/drop of a
  /// placed copy so the cluster's FileDirectory tracks what this node
  /// can serve to peers (ISSUE 4).
  PlacementHandler(StorageHierarchy& hierarchy, MetadataContainer& metadata,
                   PlacementPolicyPtr policy, PlacementOptions options,
                   ResilienceOptions resilience = {},
                   PeerViewPtr peer_view = nullptr);
  ~PlacementHandler();

  PlacementHandler(const PlacementHandler&) = delete;
  PlacementHandler& operator=(const PlacementHandler&) = delete;

  /// Claim every unclaimed non-resident chunk of `file` that `request`
  /// touches and enqueue them as one task. Returns false when nothing was
  /// claimed (resident, held by another stager, past
  /// max_placement_attempts, or a partial read with
  /// fetch_full_file_on_partial_read off); a demand request that finds
  /// its chunks claimed by a queued prefetch promotes it. A stopped
  /// handler hands the claims straight back. Never blocks on I/O.
  bool Stage(const FileInfoPtr& file, const StageRequest& request);

  /// `file`'s chunk map, created on first use: `pack.chunk_bytes` chunks
  /// in pack mode, one whole-file chunk otherwise.
  pack::ChunkMap& ChunksOf(FileInfo& file) const {
    return *file.EnsureChunkMap(
        options_.pack.enabled ? options_.pack.chunk_bytes : 0);
  }

  /// A demand read overtook a queued (or parked) prefetch of `file`:
  /// move the task to the demand lane so it stops waiting behind other
  /// speculative work. Returns false when no queued prefetch matched
  /// (the copy may already be running or done).
  bool PromoteToDemand(const FileInfoPtr& file);

  /// Drop every queued/parked prefetch task and return the files to the
  /// retryable PFS-only state. Used at StopPlacement/shutdown; returns
  /// the number of cancelled hints.
  std::size_t CancelPrefetches();

  /// The one drop routine: under the file's placement mutex, honour read
  /// pins (not for a quarantine: the reader that found the corruption
  /// holds one), retract the directory ad of a complete copy, delete
  /// resident `chunk` — every resident chunk when none is named — release
  /// the quota, and reset the file to PFS-resident once nothing is left.
  /// A quarantine counts toward max_placement_attempts. Returns false
  /// when nothing was dropped. Thread-safe.
  bool DropCopy(const FileInfoPtr& file, DropCause cause,
                std::optional<std::uint32_t> chunk = std::nullopt);

  /// Ephemeral teardown (Monarch::CleanupStagedCopies): pause staging,
  /// drain it, DropCopy every placed file, then resume staging unless it
  /// was already stopped. Returns the number of copies dropped.
  std::uint64_t DropAllCopies();

  /// Re-publish every complete placed copy to the peer view (a revived
  /// node re-enters the cluster directory). Returns the copies
  /// advertised; 0 without a peer view.
  std::uint64_t ReadvertiseCopies();

  /// Forward the whole-run demand access sequence to the policy
  /// (Monarch::InstallRunSchedule; the clairvoyant policy consumes it).
  void InstallSchedule(const std::vector<std::string>& sequence);

  /// Forward one demand access to the policy (offset-0 reads only — the
  /// policy sees file visits, not chunks).
  void NoteAccess(const FileInfo& file);

  /// Stop scheduling new placements (e.g. the integration layer signals
  /// the end of epoch 1 when tiers filled); in-flight tasks finish.
  void StopScheduling() noexcept { stopped_.store(true); }
  [[nodiscard]] bool stopped() const noexcept { return stopped_.load(); }

  /// Block until every scheduled placement finished (tests, shutdown).
  void Drain();

  [[nodiscard]] PlacementStats Stats() const;

  [[nodiscard]] const PlacementOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const ResilienceOptions& resilience() const noexcept {
    return resilience_;
  }
  [[nodiscard]] const BufferPool& buffer_pool() const noexcept {
    return pool_;
  }

  /// The resolved chunk codec (nullptr = identity / "none"). The read
  /// path decodes with exactly this codec so both sides always agree.
  [[nodiscard]] const pack::Codec* pack_codec() const noexcept {
    return codec_;
  }

 private:
  struct StagingTask {
    FileInfoPtr file;
    /// Bytes the triggering read donated, starting at file offset
    /// `content_offset` (a claimed chunk's offset).
    std::vector<std::byte> content;
    std::uint64_t content_offset = 0;
    StagingLane lane = StagingLane::kDemand;
    /// Claimed chunk indexes, ascending.
    std::vector<std::uint32_t> chunks;
    /// Who this staging serves, captured from the scheduling thread's
    /// ambient tenant and re-installed on the worker (ISSUE 10).
    qos::TenantContext tenant;
  };

  /// How a copy loop ended. `next` is the first claimed chunk it did not
  /// publish; `tier` names the destination of a corrupt copy.
  struct CopyResult {
    enum Kind { kPublished, kParked, kNoSpace, kFailed, kCorrupt } kind;
    Status error = Status::Ok();
    std::string tier{};
    std::size_t next = 0;
  };

  /// Fair-queue class the task is served on: the prefetch lane always
  /// rides the prefetch class; demand tasks use their tenant's I/O
  /// class (interactive/training in band 0, scan in band 1).
  [[nodiscard]] static int TaskClass(const StagingTask& task) noexcept;
  /// Logical bytes of the task's claimed chunks: its fair-queue cost and
  /// its in-flight charge.
  [[nodiscard]] static std::uint64_t TaskBytes(const StagingTask& task);
  /// Enqueue on the fair queue. Caller holds mu_.
  void PushLocked(StagingTask task);
  /// Hand back a task's chunk claims (the file is marked unplaceable
  /// when `permanently` and nothing of it is resident).
  void ReleaseClaims(const StagingTask& task, bool permanently = false);
  /// Rewrite `file`'s view (state, level) from its map: kPlaced on the
  /// map's tier while a chunk is resident, else the PFS level and
  /// kFetching while claims are out, kUnplaceable once `permanently` (or
  /// already) marked, kPfsOnly otherwise. Caller holds
  /// cm.placement_mutex().
  void Settle(FileInfo& file, pack::ChunkMap& cm, bool permanently);
  /// Low-retention bookkeeping when a staged copy disappears (any drop)
  /// or a demand tenant re-stages it: clears the file's marking and
  /// returns the resident gauge's share.
  void NoteCopyDropped(FileInfo& file) noexcept;

  void WorkerLoop();
  /// Stage one task: the prologue (trace span, scan-cap refusal), the
  /// copy loop, and the epilogue (no-space rejection, failure
  /// accounting). Returns normally whatever the outcome.
  void Place(StagingTask task);
  /// The copy loop: for each claimed chunk, reserve room on the file's
  /// tier (the first chunk also admits the task's in-flight bytes), write
  /// the donated prefix and the rest read from the PFS — slice by slice
  /// through one pooled buffer, or gathered and encoded when a codec is
  /// on — verify the read-back and publish.
  CopyResult CopyChunks(StagingTask& task);
  /// The bytes the triggering read donated from chunk `c`'s offset on
  /// (at most the chunk), empty when it donated none.
  static std::span<const std::byte> DonatedPrefix(const StagingTask& task,
                                                  const pack::ChunkMap& cm,
                                                  std::uint32_t c);
  /// Fill `dst` from the PFS copy of `name` at `offset`; a short read is
  /// an error.
  Status ReadPfs(const std::string& name, std::uint64_t offset,
                 std::span<std::byte> dst);
  /// Read `bytes` of `object` back from `tier` through `buffer`, slice by
  /// slice, and compare the CRC with `crc`.
  static bool ReadBackMatches(StorageDriver& tier, const std::string& object,
                              std::uint64_t bytes, std::uint32_t crc,
                              std::span<std::byte> buffer);
  /// Publish bookkeeping once `file` first serves from `level`: reset
  /// the failure count, mark (or clear) the low-retention share, settle
  /// the view and count the completion. Caller holds the placement mutex.
  void PublishFile(FileInfo& file, pack::ChunkMap& cm, const StagingTask& task);
  /// Count one failed staging attempt and release the task's claims:
  /// the file stays retryable (a later access re-claims it) until the
  /// per-file cap marks it unplaceable.
  void RecordStagingFailure(const StagingTask& task);
  /// Whether `lane` may evict under the policy and options.
  [[nodiscard]] bool MayEvict(StagingLane lane) const;
  /// The one victim walk: reserve `bytes` on `level` (any level the
  /// policy picks when negative), dropping the policy's ranked victims
  /// — only those resident on `level` when one is given — until the
  /// reservation succeeds. Returns the reserved level, or nullopt when
  /// the lane may not evict, the policy offered no victims, or the
  /// freed space still was not enough.
  std::optional<int> ReserveSpace(const FileInfoPtr& file, StagingLane lane,
                                  std::uint64_t bytes, int level = -1);
  /// The policy's victim ranking for `incoming`, with low-retention
  /// (scan) copies moved first when QoS is on.
  std::vector<FileInfoPtr> RankVictims(const FileInfoPtr& incoming,
                                       StagingLane lane);
  /// Reserve `stored_bytes` for one chunk of `file`: on the file's tier
  /// once one is assigned, else on the level the policy picks (which
  /// then becomes the file's tier; all of a file's chunks share it).
  std::optional<int> ReserveChunk(const FileInfoPtr& file,
                                  pack::ChunkMap& cm,
                                  std::uint64_t stored_bytes,
                                  StagingLane lane);

  /// Take the in-flight accounting for `task`'s copy to `level`. For the
  /// prefetch lane, parks the task (moving from it) and returns false
  /// when the tier is already past the cap (progress guaranteed: parking
  /// requires another copy in flight on that tier).
  bool AdmitInflight(int level, StagingTask& task);
  void FinishInflight(int level, std::uint64_t size);

  StorageHierarchy& hierarchy_;
  MetadataContainer& metadata_;
  PlacementPolicyPtr policy_;
  PlacementOptions options_;
  ResilienceOptions resilience_;
  PeerViewPtr peer_view_;
  BufferPool pool_;

  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> scheduled_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> rejected_no_space_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> bytes_staged_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> evicted_bytes_{0};
  std::atomic<std::uint64_t> eviction_refused_{0};
  std::atomic<std::uint64_t> eviction_pinned_skips_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> quarantined_{0};
  std::atomic<std::uint64_t> abandoned_{0};
  std::atomic<std::uint64_t> prefetch_scheduled_{0};
  std::atomic<std::uint64_t> prefetch_completed_{0};
  std::atomic<std::uint64_t> prefetch_promoted_{0};
  std::atomic<std::uint64_t> prefetch_cancelled_{0};
  std::atomic<std::uint64_t> chunks_copied_{0};
  std::atomic<std::uint64_t> donated_bytes_{0};
  std::atomic<std::uint64_t> chunks_staged_{0};
  std::atomic<std::uint64_t> chunk_stored_bytes_{0};
  std::atomic<std::uint64_t> chunks_evicted_{0};
  std::atomic<std::uint64_t> chunk_failures_{0};
  std::atomic<std::uint64_t> cross_class_evictions_{0};
  std::atomic<std::uint64_t> scan_stage_refusals_{0};
  std::atomic<std::uint64_t> low_retention_resident_bytes_{0};

  /// Codec for chunk staging, resolved once from options_.pack.codec
  /// (falls back to the identity codec on an unknown name).
  const pack::Codec* codec_ = nullptr;

  /// Process-wide eviction counters (docs/OBSERVABILITY.md §1), owned
  /// like `storage.retries`: resolved once at construction so eviction
  /// activity reports through the registry like every other placement
  /// stat (the per-instance counts stay in Stats()).
  obs::Counter* evictions_counter_ = nullptr;
  obs::Counter* evicted_bytes_counter_ = nullptr;
  obs::Counter* eviction_refused_counter_ = nullptr;
  obs::Counter* chunk_staged_counter_ = nullptr;
  obs::Counter* chunk_stored_bytes_counter_ = nullptr;
  obs::Counter* chunk_evicted_counter_ = nullptr;
  obs::Counter* cross_class_counter_ = nullptr;   ///< qos.cross_class_evictions
  obs::Counter* scan_refusal_counter_ = nullptr;  ///< qos.scan_stage_refusals

  // Per-class fair work queue (ISSUE 10; the original two lanes are the
  // degenerate case: every demand task on the training class, prefetch
  // on the prefetch class). `deferred_` holds prefetch tasks parked by
  // the per-tier in-flight cap; any copy completion splices them back
  // into the queue (under mu_, so no wakeup is lost).
  mutable std::mutex mu_;
  std::condition_variable cv_;        ///< workers wait here
  std::condition_variable drain_cv_;  ///< Drain() waits here
  qos::FairQueue<StagingTask> queue_;
  std::vector<StagingTask> deferred_;
  std::vector<std::uint64_t> inflight_bytes_;  ///< per level, under mu_
  int active_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace monarch::core
