// PlacementHandler: MONARCH's background staging engine (§III-A/B),
// rebuilt as a pipelined, two-lane copy service. It alone decides what a
// staged copy is — the whole file, or the fixed-size chunks of a file in
// pack mode — and runs every copy through one lifecycle:
//
//   claim    Stage() takes the FileInfo fetch flag (whole file) or the
//            ChunkMap claim bits of a byte range (pack mode) and enqueues
//            the task; a claim is held by exactly one staging task.
//   place    dedicated worker threads — the paper configures 6 — ask the
//            placement policy for a writable level with room (first-fit
//            top-down in the paper's configuration), then copy: a whole
//            file streams tier-to-tier in chunks drawn from a bounded,
//            reusable buffer pool (peak staging memory is
//            `staging_buffer_bytes`), reusing any leading bytes the
//            triggering read already pulled; a chunk is read, encoded by
//            the pack codec and CRC'd on both sides.
//   publish  the copy's CRC is recorded (and, when verify_staged_writes
//            is on, proven by a read-back), the file's level flips so
//            reads are served from it, and a complete copy is advertised
//            to the cluster directory.
//   drop     DropCopy() claims a placed copy, honours read pins, retracts
//            the advertisement, deletes the object(s), releases the quota
//            and resets the file to PFS-resident — for eviction, read-time
//            quarantine and cleanup alike.
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

  /// When the framework's read covers only part of the file, fetch the
  /// whole file in the background anyway (§III-B). Disabling this is the
  /// `abl_design_choices` "no-full-fetch" arm: only full-file reads get
  /// staged.
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
  /// lane; 0 = uncapped. While a tier carries this much in-flight
  /// staging, further prefetch copies park until a copy completes —
  /// demand staging is exempt (`[placement] tier_inflight_cap_bytes`).
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
  /// `pack.enabled`, dataset files are staged, evicted and served chunk
  /// by chunk instead of whole; `pack.chunk_bytes` is clamped to the
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
  std::uint64_t chunks_copied = 0;       ///< chunk writes across all copies
  std::uint64_t donated_bytes = 0;       ///< triggering-read bytes reused
  std::uint64_t queue_depth_demand = 0;  ///< gauge: demand tasks waiting
  std::uint64_t queue_depth_prefetch = 0; ///< gauge: prefetch waiting+parked
  std::uint64_t inflight_bytes = 0;      ///< gauge: bytes being copied now
  /// Per-hierarchy-level breakdown of `inflight_bytes` (monarchctl
  /// stage-status; the in-flight cap is enforced per tier).
  std::vector<std::uint64_t> inflight_bytes_per_level;
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
  /// The bytes a read touched. Whole-file mode stages the whole file
  /// (a partial range only when fetch_full_file_on_partial_read); pack
  /// mode the chunks that overlap the range. Default: the whole file.
  std::uint64_t offset = 0;
  std::uint64_t length = std::numeric_limits<std::uint64_t>::max();
  /// Bytes the triggering read already pulled at `offset`. An offset-0
  /// read donates them to the whole-file copy, which never re-reads them
  /// from the PFS; they are copied only when the claim succeeds.
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

  /// Claim `file`'s staging unit for `request` — the file-level fetch
  /// flag, or every unclaimed non-resident chunk of the range in pack
  /// mode — and enqueue it. Returns false when nothing was claimed
  /// (resident, held by another stager, past max_placement_attempts, or
  /// a partial read with fetch_full_file_on_partial_read off); a demand
  /// request that loses the whole-file claim to a queued prefetch
  /// promotes it. A stopped handler hands a claim straight back. Never
  /// blocks.
  bool Stage(const FileInfoPtr& file, const StageRequest& request);

  /// A demand read overtook a queued (or parked) prefetch of `file`:
  /// move the task to the demand lane so it stops waiting behind other
  /// speculative work. Returns false when no queued prefetch matched
  /// (the copy may already be running or done).
  bool PromoteToDemand(const FileInfoPtr& file);

  /// Drop every queued/parked prefetch task and return the files to the
  /// retryable PFS-only state. Used at StopPlacement/shutdown; returns
  /// the number of cancelled hints.
  std::size_t CancelPrefetches();

  /// The one drop routine: claim `file`'s placed copy (kPlaced ->
  /// kFetching), honour read pins (not for a quarantine: the reader that
  /// found the corruption holds one), retract the directory ad, delete
  /// the whole-file object or every resident chunk, release the quota,
  /// return the low-retention share and reset the file to PFS-resident.
  /// Returns false when nothing was dropped. Thread-safe.
  bool DropCopy(const FileInfoPtr& file, DropCause cause);

  /// Ephemeral teardown (Monarch::CleanupStagedCopies): pause staging,
  /// drain it, DropCopy every placed file, then resume staging unless it
  /// was already stopped. Returns the number of copies dropped.
  std::uint64_t DropAllCopies();

  /// Re-publish every complete placed copy to the peer view (a revived
  /// node re-enters the cluster directory). Returns the copies
  /// advertised; 0 without a peer view.
  std::uint64_t ReadvertiseCopies();

  /// Drop resident chunk `chunk` of `file` from `tier`: clear its
  /// residency bit, retract the cluster-directory advertisement when the
  /// file's copy was complete, delete the chunk object and release its
  /// quota. Returns the stored bytes freed (0 = it was not resident).
  /// Caller holds cm.placement_mutex().
  std::uint64_t DropChunkLocked(const FileInfo& file, pack::ChunkMap& cm,
                                std::uint32_t chunk, StorageDriver& tier);

  /// Forward the whole-run demand access sequence to the policy
  /// (Monarch::InstallRunSchedule; the clairvoyant policy consumes it).
  void InstallSchedule(const std::vector<std::string>& sequence);

  /// Forward one demand access to the policy (offset-0 reads only — the
  /// policy sees file visits, not chunks).
  void NoteAccess(const FileInfo& file);

  [[nodiscard]] const PlacementPolicy& policy() const noexcept {
    return *policy_;
  }

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
    std::optional<std::vector<std::byte>> content;
    StagingLane lane = StagingLane::kDemand;
    /// Claimed chunk indexes (pack mode); empty = whole-file task.
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
  /// Service cost of the task in bytes (fair-queue finish-tag units).
  [[nodiscard]] double TaskCost(const StagingTask& task) const noexcept;
  /// Enqueue on the fair queue. Caller holds mu_.
  void PushLocked(StagingTask task);
  /// Hand back a task's claims: the file-level fetch flag (marked
  /// unplaceable when `permanently`), or every chunk claim.
  void ReleaseClaims(const StagingTask& task, bool permanently = false);
  /// Low-retention bookkeeping when a staged copy disappears (any drop)
  /// or a demand tenant re-stages it: clears the file's marking and
  /// returns the resident gauge's share.
  void NoteCopyDropped(FileInfo& file) noexcept;

  void WorkerLoop();
  /// Stage one task: the shared prologue (trace span, scan-cap refusal),
  /// the unit's copy loop, and the shared epilogue (no-space rejection,
  /// failure accounting). Returns normally whatever the outcome.
  void Place(StagingTask task);
  /// Whole-file copy loop: reserve a level, admit the in-flight bytes,
  /// copy (donated prefix first), verify and publish.
  CopyResult CopyFile(StagingTask& task);
  /// Chunk copy loop: read, encode and CRC each claimed chunk, reserve
  /// on the file's tier, write, verify and publish.
  CopyResult CopyChunks(const StagingTask& task);
  /// Chunk loop: write the donated `prefix` (if any), then stream the
  /// rest of the file from the PFS through one pooled buffer.
  /// `crc` accumulates over every byte in file order.
  Status StreamCopy(const FileInfoPtr& file,
                    const std::optional<std::vector<std::byte>>& prefix,
                    StorageDriver& destination, std::uint32_t& crc);
  /// Chunked read-back verification against `crc` (bounded memory).
  bool VerifyStagedCopy(const FileInfoPtr& file, StorageDriver& destination,
                        std::uint32_t crc);
  /// Publish bookkeeping once `file` first serves from `level`: reset
  /// the failure count, mark (or clear) the low-retention share, flip
  /// the level and count the completion.
  void PublishFile(FileInfo& file, int level, const StagingTask& task);
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
  /// then becomes the file's tier).
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
