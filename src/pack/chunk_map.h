// Per-file chunk residency state for chunk-granularity staging
// (Hoard/FanStore-style, see PAPERS.md): which fixed-size chunks of one
// logical file currently have a staged copy on a cache tier, which are
// being staged right now, and the per-chunk verification metadata the
// read path needs to serve them.
//
// Concurrency contract — the read path is lock-free, placement is not:
//
//   readers    IsResident / RangeResident / Meta / tier(): atomic loads
//              only, no mutex, no allocation (the micro_read_hotpath
//              budget).
//   claimers   TryClaim / ReleaseClaim: lock-free CAS on the claimed
//              bitmap; a set claim bit means exactly one staging task
//              owns the chunk (the dedup that stops N readers of the
//              same cold chunk from scheduling N copies).
//   mutators   Publish / TryEvict / tier transitions: serialized per
//              file by `placement_mutex()` — staging and eviction are
//              I/O-bound, a mutex there costs nothing and removes every
//              meta/residency torn-state race.
//
// A resident chunk's metadata is immutable: Publish requires the claim
// bit (one owner), TryClaim refuses resident chunks, so nobody can
// rewrite meta while a reader might be using it.
#pragma once

#include <atomic>
#include <cassert>
#include <charconv>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace monarch::pack {

class ChunkMap {
 public:
  /// Stored-side description of one resident chunk.
  struct ChunkMeta {
    std::uint32_t stored_bytes = 0;  ///< post-codec bytes on the tier
    std::uint32_t crc_stored = 0;    ///< CRC32C of the stored bytes
    std::uint32_t crc_logical = 0;   ///< CRC32C of the logical bytes
  };

  ChunkMap(std::uint64_t file_bytes, std::uint64_t chunk_bytes)
      : file_bytes_(file_bytes),
        chunk_bytes_(chunk_bytes),
        num_chunks_(static_cast<std::uint32_t>(
            chunk_bytes == 0 ? 0 : (file_bytes + chunk_bytes - 1) /
                                       chunk_bytes)),
        resident_bits_((num_chunks_ + 63) / 64),
        claimed_bits_((num_chunks_ + 63) / 64),
        meta_lo_(num_chunks_),
        meta_hi_(num_chunks_) {
    assert(chunk_bytes > 0);
  }

  ChunkMap(const ChunkMap&) = delete;
  ChunkMap& operator=(const ChunkMap&) = delete;

  // ------------------------------------------------------- geometry

  [[nodiscard]] std::uint64_t file_bytes() const { return file_bytes_; }
  [[nodiscard]] std::uint64_t chunk_bytes() const { return chunk_bytes_; }
  [[nodiscard]] std::uint32_t num_chunks() const { return num_chunks_; }

  [[nodiscard]] std::uint32_t ChunkOf(std::uint64_t offset) const {
    return static_cast<std::uint32_t>(offset / chunk_bytes_);
  }
  [[nodiscard]] std::uint64_t ChunkOffset(std::uint32_t index) const {
    return static_cast<std::uint64_t>(index) * chunk_bytes_;
  }
  /// Logical bytes in chunk `index` (the last chunk may be short).
  [[nodiscard]] std::uint32_t ChunkLogicalBytes(std::uint32_t index) const {
    const std::uint64_t begin = ChunkOffset(index);
    const std::uint64_t end =
        begin + chunk_bytes_ < file_bytes_ ? begin + chunk_bytes_
                                           : file_bytes_;
    return static_cast<std::uint32_t>(end - begin);
  }

  // ------------------------------------------------------ read path

  [[nodiscard]] bool IsResident(std::uint32_t index) const {
    return (resident_bits_[index / 64].load(std::memory_order_acquire) &
            Bit(index)) != 0;
  }

  /// All chunks overlapping [offset, offset+length) resident?
  [[nodiscard]] bool RangeResident(std::uint64_t offset,
                                   std::uint64_t length) const {
    if (length == 0) return true;
    const std::uint32_t first = ChunkOf(offset);
    const std::uint32_t last = ChunkOf(offset + length - 1);
    for (std::uint32_t c = first; c <= last; ++c) {
      if (!IsResident(c)) return false;
    }
    return true;
  }

  [[nodiscard]] std::uint32_t ResidentCount() const {
    return resident_count_.load(std::memory_order_acquire);
  }

  /// Post-codec bytes currently staged (== tier quota charged).
  [[nodiscard]] std::uint64_t ResidentStoredBytes() const {
    return resident_stored_bytes_.load(std::memory_order_acquire);
  }

  /// Pre-codec bytes currently staged.
  [[nodiscard]] std::uint64_t ResidentLogicalBytes() const {
    return resident_logical_bytes_.load(std::memory_order_acquire);
  }

  /// Meta of a resident chunk. Only meaningful after IsResident(index)
  /// returned true; immutable while the chunk stays resident.
  [[nodiscard]] ChunkMeta Meta(std::uint32_t index) const {
    const std::uint64_t lo = meta_lo_[index].load(std::memory_order_acquire);
    ChunkMeta meta;
    meta.stored_bytes = static_cast<std::uint32_t>(lo >> 32u);
    meta.crc_stored = static_cast<std::uint32_t>(lo);
    meta.crc_logical = meta_hi_[index].load(std::memory_order_acquire);
    return meta;
  }

  /// Which hierarchy level holds this file's staged chunks, -1 when
  /// none is assigned. All of one file's chunks live on one level.
  [[nodiscard]] int tier() const {
    return tier_.load(std::memory_order_acquire);
  }

  // ------------------------------------------------------- claimers

  /// Claim chunk `index` for staging. Fails when the chunk is already
  /// resident or another task holds the claim.
  [[nodiscard]] bool TryClaim(std::uint32_t index) {
    if (IsResident(index)) return false;
    const std::uint64_t bit = Bit(index);
    const std::uint64_t prev = claimed_bits_[index / 64].fetch_or(
        bit, std::memory_order_acq_rel);
    if ((prev & bit) != 0) return false;
    if (IsResident(index)) {  // lost the race against a publisher
      ReleaseClaim(index);
      return false;
    }
    claims_.fetch_add(1, std::memory_order_acq_rel);
    return true;
  }

  /// Give up a claim without publishing (staging failed or refused).
  void ReleaseClaim(std::uint32_t index) {
    claimed_bits_[index / 64].fetch_and(~Bit(index),
                                        std::memory_order_acq_rel);
    claims_.fetch_sub(1, std::memory_order_acq_rel);
  }

  /// Outstanding claims (staging tasks in flight for this file).
  [[nodiscard]] std::uint32_t Claims() const {
    return claims_.load(std::memory_order_acquire);
  }

  // -------------------------------- mutators (hold placement_mutex())

  /// Serializes Publish / TryEvict / tier transitions per file.
  [[nodiscard]] std::mutex& placement_mutex() { return placement_mu_; }

  /// Assign the file's staging level if unassigned; returns the level
  /// in force afterwards. Caller holds placement_mutex().
  int AssignTier(int level) {
    int expected = -1;
    tier_.compare_exchange_strong(expected, level,
                                  std::memory_order_acq_rel,
                                  std::memory_order_acquire);
    return tier_.load(std::memory_order_acquire);
  }

  /// Drop the tier assignment once nothing is resident or in flight.
  /// Caller holds placement_mutex().
  void MaybeResetTier() {
    if (ResidentCount() == 0 && Claims() == 0) {
      tier_.store(-1, std::memory_order_release);
    }
  }

  /// Publish a staged chunk: record its meta, flip the resident bit
  /// (release — readers that see the bit see the meta), drop the
  /// claim. Returns the resident count after the publish. Caller holds
  /// the claim bit and placement_mutex().
  std::uint32_t Publish(std::uint32_t index, const ChunkMeta& meta) {
    meta_lo_[index].store(
        (static_cast<std::uint64_t>(meta.stored_bytes) << 32u) |
            meta.crc_stored,
        std::memory_order_release);
    meta_hi_[index].store(meta.crc_logical, std::memory_order_release);
    resident_stored_bytes_.fetch_add(meta.stored_bytes,
                                     std::memory_order_acq_rel);
    resident_logical_bytes_.fetch_add(ChunkLogicalBytes(index),
                                      std::memory_order_acq_rel);
    resident_bits_[index / 64].fetch_or(Bit(index),
                                        std::memory_order_acq_rel);
    const std::uint32_t count =
        resident_count_.fetch_add(1, std::memory_order_acq_rel) + 1;
    ReleaseClaim(index);
    return count;
  }

  /// Claim chunk `index` for eviction by clearing its resident bit.
  /// Returns the stored bytes freed (0 = not resident / lost the
  /// race). Caller holds placement_mutex() and deletes the tier object
  /// + releases quota afterwards.
  std::uint64_t TryEvict(std::uint32_t index) {
    const std::uint64_t bit = Bit(index);
    const std::uint64_t prev = resident_bits_[index / 64].fetch_and(
        ~bit, std::memory_order_acq_rel);
    if ((prev & bit) == 0) return 0;
    const ChunkMeta meta = Meta(index);
    resident_stored_bytes_.fetch_sub(meta.stored_bytes,
                                     std::memory_order_acq_rel);
    resident_logical_bytes_.fetch_sub(ChunkLogicalBytes(index),
                                      std::memory_order_acq_rel);
    resident_count_.fetch_sub(1, std::memory_order_acq_rel);
    return meta.stored_bytes;
  }

 private:
  static std::uint64_t Bit(std::uint32_t index) {
    return std::uint64_t{1} << (index % 64);
  }

  const std::uint64_t file_bytes_;
  const std::uint64_t chunk_bytes_;
  const std::uint32_t num_chunks_;

  std::vector<std::atomic<std::uint64_t>> resident_bits_;
  std::vector<std::atomic<std::uint64_t>> claimed_bits_;
  /// Per-chunk (stored_bytes << 32 | crc_stored) — one load gives the
  /// read path a consistent pair.
  std::vector<std::atomic<std::uint64_t>> meta_lo_;
  std::vector<std::atomic<std::uint32_t>> meta_hi_;  ///< crc_logical

  std::atomic<std::uint32_t> resident_count_{0};
  std::atomic<std::uint32_t> claims_{0};
  std::atomic<std::uint64_t> resident_stored_bytes_{0};
  std::atomic<std::uint64_t> resident_logical_bytes_{0};
  std::atomic<int> tier_{-1};

  std::mutex placement_mu_;
};

/// Tier object name of one staged chunk. '#' cannot appear in pack
/// logical names (PackWriter rejects it), so chunk objects never
/// collide with whole-file staged copies.
inline std::string ChunkObjectName(const std::string& file,
                                   std::uint32_t index) {
  return file + "#c" + std::to_string(index);
}

/// Inverse of ChunkObjectName: the file a chunk object belongs to, or
/// nullopt when `object` is not a chunk-object name. Splits at the last
/// "#c" followed by a canonical decimal index, so the mapping is exact
/// for every name ChunkObjectName produces.
inline std::optional<std::string_view> ChunkObjectFile(
    std::string_view object) {
  const std::size_t mark = object.rfind("#c");
  if (mark == std::string_view::npos) return std::nullopt;
  const std::string_view digits = object.substr(mark + 2);
  if (digits.empty() || (digits.size() > 1 && digits.front() == '0')) {
    return std::nullopt;
  }
  std::uint32_t index = 0;
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, index);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return object.substr(0, mark);
}

}  // namespace monarch::pack
