// FileInfo: the per-file entry of MONARCH's virtual namespace (§III-A,
// "metadata container"). Tracks the file's size, its chunk map — the
// staging unit whose claim bits make first-epoch staging race-free — and
// a file-level view of that map for policies and tests:
//
//   kPfsOnly --(chunk claimed)--> kFetching --(chunk published)--> kPlaced
//        ^                            |                              |
//        +----(claims released)------+-----(last chunk dropped)-----+
//
// The placement handler rewrites the view (state and level) under the
// map's placement mutex whenever a claim, publish or drop changes it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "pack/chunk_map.h"

namespace monarch::core {

enum class PlacementState : int {
  kPfsOnly = 0,   ///< only the PFS copy exists
  kFetching = 1,  ///< a background copy to an upper tier is in flight
  kPlaced = 2,    ///< an upper-tier copy exists and serves reads
  kUnplaceable = 3, ///< no upper tier had room; reads stay on the PFS
};

struct FileInfo {
  FileInfo(std::string name_in, std::uint64_t size_in, int pfs_level)
      : name(std::move(name_in)), size(size_in), level(pfs_level) {}

  const std::string name;       ///< hierarchy-relative path
  const std::uint64_t size;     ///< bytes (fixed for the job's lifetime)

  /// Storage level holding the file's staged chunks, the PFS level while
  /// none is resident (⑤ in the paper's operation flow). A view: the read
  /// path routes by the chunk map.
  std::atomic<int> level;

  std::atomic<PlacementState> state{PlacementState::kPfsOnly};

  /// Monotonic access stamp, maintained for the eviction-policy ablation
  /// (the paper's design deliberately never evicts; §III-A).
  std::atomic<std::uint64_t> last_access{0};

  /// Failed staging attempts so far; once this reaches the configured
  /// cap the placement handler marks the file kUnplaceable so a broken
  /// file cannot hammer the staging pool on every access.
  std::atomic<int> fetch_failures{0};

  /// Set when a look-ahead hint (not a demand read) claimed this file's
  /// fetch. The read path exchanges it back to false on the first demand
  /// read served from a cache tier — that exchange is one prefetch hit.
  std::atomic<bool> prefetched{false};

  /// In-flight demand reads of this file (ISSUE 6). A nonzero count pins
  /// the staged copy against eviction: the evictor checks it under the
  /// placement mutex and skips the file — so an active read never loses
  /// its tier copy mid-flight. Readers that pin after the evictor's
  /// check fall back to the PFS exactly like the pre-pinning eviction
  /// race.
  std::atomic<int> read_pins{0};

  /// Latched when a retryable no-space rejection bounced this file (an
  /// eviction-capable policy refused to make room). The read path skips
  /// re-claiming a latched file until the next offset-0 read re-arms it:
  /// chunked readers would otherwise re-enqueue a doomed demand staging
  /// per chunk and starve the prefetch lane behind the demand lane's
  /// priority.
  std::atomic<bool> stage_refused{false};

  /// Scan-resistance marking (ISSUE 10): set when the staged copy was
  /// placed on behalf of a low-retention tenant (a full-scan data-prep
  /// job). Low-retention copies are fair game for any evictor, but a
  /// low-retention requester may ONLY evict other low-retention copies —
  /// a scan can never push out a trainer's working set.
  std::atomic<bool> low_retention{false};

  /// Chunk residency and claims (the staging unit), lazily allocated by
  /// the first read or staging of the file and immutable-as-a-pointer
  /// afterwards: the read hot path does one acquire load, never an
  /// allocation. Owned by this FileInfo (freed in the destructor).
  std::atomic<pack::ChunkMap*> chunks{nullptr};

  ~FileInfo() { delete chunks.load(std::memory_order_acquire); }

  /// The chunk map, or nullptr while the file has never been touched.
  [[nodiscard]] pack::ChunkMap* chunk_map() const noexcept {
    return chunks.load(std::memory_order_acquire);
  }

  /// Get-or-create the chunk map (CAS; the loser frees its copy) —
  /// `chunk_bytes` 0 is whole-file mode's one-chunk map. Once per file,
  /// not per read.
  pack::ChunkMap* EnsureChunkMap(std::uint64_t chunk_bytes) {
    pack::ChunkMap* existing = chunks.load(std::memory_order_acquire);
    if (existing != nullptr) return existing;
    auto* fresh = new pack::ChunkMap(size, chunk_bytes);
    if (chunks.compare_exchange_strong(existing, fresh,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      return fresh;
    }
    delete fresh;
    return existing;
  }
};

using FileInfoPtr = std::shared_ptr<FileInfo>;

}  // namespace monarch::core
