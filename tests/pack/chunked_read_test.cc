// End-to-end chunk-granularity staging (ISSUE 9): partial reads must be
// byte-identical to whole-file reads with the codec on and off, across
// eviction races and the degradation ladder, and sparse access must
// stage (and bill) only the chunks actually touched.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "../test_support.h"
#include "core/monarch.h"
#include "core/placement_policy.h"
#include "pack/chunk_map.h"
#include "storage/memory_engine.h"
#include "util/rng.h"
#include "workload/small_file_dataset.h"

namespace monarch::core {
namespace {

class ChunkedReadTest : public ::testing::Test {
 protected:
  static workload::SmallFileSpec Spec() {
    workload::SmallFileSpec spec;
    spec.directory = "data";
    spec.num_files = 12;
    spec.num_classes = 3;
    spec.mean_file_bytes = 4 * 1024;
    spec.file_size_jitter = 0.4;
    spec.seed = 21;
    spec.pack_extent_bytes = 16 * 1024;
    return spec;
  }

  /// Packed dataset + pack-enabled Monarch over a memory PFS and one
  /// memory cache tier.
  Result<std::unique_ptr<Monarch>> Build(const std::string& codec,
                                         std::uint64_t quota = 1'000'000,
                                         const std::string& policy = "") {
    spec_ = Spec();
    pfs_ = std::make_shared<storage::MemoryEngine>("pfs");
    local_ = std::make_shared<storage::MemoryEngine>("local");
    auto manifest = workload::GeneratePackedSmallFiles(*pfs_, spec_);
    if (!manifest.ok()) return manifest.status();
    total_bytes_ = manifest.value().total_bytes;

    MonarchConfig config;
    config.cache_tiers.push_back(TierSpec{"local", local_, quota});
    config.pfs = TierSpec{"pfs", pfs_, 0};
    config.dataset_dir = "data";
    config.placement.num_threads = 2;
    config.placement.pack.enabled = true;
    config.placement.pack.chunk_bytes = 1024;
    config.placement.pack.codec = codec;
    if (!policy.empty()) {
      auto made = MakePlacementPolicyByName(policy);
      if (!made.ok()) return made.status();
      config.policy = std::move(made).value();
    }
    return Monarch::Create(std::move(config));
  }

  std::vector<std::byte> Expected(std::uint64_t index) const {
    return workload::SmallFilePayload(spec_, index);
  }

  void ExpectSliceMatches(Monarch& monarch, std::uint64_t index,
                          std::uint64_t offset, std::size_t length) {
    const std::vector<std::byte> whole = Expected(index);
    std::vector<std::byte> buf(length);
    auto read = monarch.Read(workload::SmallFilePath(spec_, index), offset,
                             buf);
    ASSERT_OK(read);
    const std::size_t expect_n = static_cast<std::size_t>(
        offset >= whole.size()
            ? 0
            : std::min<std::uint64_t>(length, whole.size() - offset));
    ASSERT_EQ(expect_n, read.value())
        << "file " << index << " offset " << offset;
    EXPECT_TRUE(std::equal(
        buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(expect_n),
        whole.begin() + static_cast<std::ptrdiff_t>(offset)))
        << "file " << index << " offset " << offset << " len " << length;
  }

  workload::SmallFileSpec spec_;
  std::shared_ptr<storage::MemoryEngine> pfs_;
  std::shared_ptr<storage::MemoryEngine> local_;
  std::uint64_t total_bytes_ = 0;
};

TEST_F(ChunkedReadTest, PartialReadsMatchWholeFileColdAndWarm) {
  for (const std::string codec : {"none", "lz"}) {
    auto monarch = Build(codec);
    ASSERT_OK(monarch);
    // Cold pass: everything comes from the packed PFS extents.
    for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
      ExpectSliceMatches(**monarch, f, 0, 512);
      ExpectSliceMatches(**monarch, f, 700, 900);
      ExpectSliceMatches(**monarch, f, 3000, 8 * 1024);
    }
    monarch.value()->DrainPlacements();
    // Warm pass: the same slices now come from resident chunks.
    const auto hits_before = monarch.value()->Stats().chunk_hits;
    for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
      ExpectSliceMatches(**monarch, f, 0, 512);
      ExpectSliceMatches(**monarch, f, 700, 900);
      ExpectSliceMatches(**monarch, f, 1, 1024);  // straddles chunks 0/1
    }
    EXPECT_GT(monarch.value()->Stats().chunk_hits, hits_before)
        << "codec " << codec
        << ": warm reads must be served from resident chunks";
  }
}

TEST_F(ChunkedReadTest, SparseReadsStageOnlyTouchedChunks) {
  auto monarch = Build("none");
  ASSERT_OK(monarch);
  // Touch only the first 100 bytes of every file: exactly chunk 0 of
  // each file should become resident.
  for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
    ExpectSliceMatches(**monarch, f, 0, 100);
  }
  monarch.value()->DrainPlacements();
  EXPECT_EQ(spec_.num_files * 1024, local_->TotalBytes())
      << "only the touched 1 KiB chunk of each file may be staged";
  EXPECT_LT(local_->TotalBytes(), total_bytes_ / 2)
      << "sparse staging must not fetch whole files";
  const MonarchStats stats = monarch.value()->Stats();
  EXPECT_EQ(spec_.num_files, stats.placement.chunks_staged);
  EXPECT_EQ(stats.placement.bytes_staged, stats.placement.chunk_stored_bytes)
      << "codec none stores every chunk at its logical size";
  EXPECT_GT(stats.pack_extents, 0u);
  EXPECT_EQ(spec_.num_files, stats.pack_logical_files);
}

// A cold offset-0 read of a whole multi-chunk file donates its bytes to
// every chunk's copy: staging reads nothing more from the PFS, with the
// codec off and on.
TEST_F(ChunkedReadTest, ColdWholeFileReadDonatesEveryChunk) {
  for (const std::string codec : {"none", "lz"}) {
    auto monarch = Build(codec);
    ASSERT_OK(monarch);
    const std::vector<std::byte> whole = Expected(0);
    ASSERT_GT(whole.size(), 2 * 1024u) << "the file must span several chunks";
    const auto before = pfs_->Stats().Snapshot();
    ExpectSliceMatches(**monarch, 0, 0, whole.size());
    monarch.value()->DrainPlacements();
    const auto delta = pfs_->Stats().Snapshot() - before;
    const MonarchStats stats = monarch.value()->Stats();
    EXPECT_EQ((whole.size() + 1023) / 1024, stats.placement.chunks_staged)
        << codec;
    EXPECT_EQ(whole.size(), delta.bytes_read)
        << codec << ": staging must not re-read the donated bytes";
    EXPECT_EQ(whole.size(), stats.placement.donated_bytes) << codec;
  }
}

TEST_F(ChunkedReadTest, CompressedChunksShrinkTierFootprint) {
  auto monarch = Build("lz");
  ASSERT_OK(monarch);
  std::vector<std::byte> buf(16 * 1024);
  std::uint64_t logical = 0;
  for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
    auto read =
        monarch.value()->Read(workload::SmallFilePath(spec_, f), 0, buf);
    ASSERT_OK(read);
    logical += read.value();
  }
  monarch.value()->DrainPlacements();
  EXPECT_GT(local_->TotalBytes(), 0u);
  EXPECT_LT(local_->TotalBytes(), logical * 3 / 4)
      << "run-heavy payloads must compress on stage-in";
  // And the compressed copies decode back byte-identically.
  for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
    ExpectSliceMatches(**monarch, f, 0, 16 * 1024);
    ExpectSliceMatches(**monarch, f, 1500, 300);
  }
}

TEST_F(ChunkedReadTest, CorruptStagedChunkDegradesToPfs) {
  auto monarch = Build("lz");
  ASSERT_OK(monarch);
  const std::string name = workload::SmallFilePath(spec_, 0);
  std::vector<std::byte> buf(2048);
  ASSERT_OK(monarch.value()->Read(name, 0, buf));
  monarch.value()->DrainPlacements();

  // Flip the staged chunk object's bytes behind the driver's back.
  const std::string object = pack::ChunkObjectName(name, 0);
  auto stored = local_->FileSize(object);
  ASSERT_OK(stored);
  std::vector<std::byte> garbage(stored.value(), std::byte{0x5C});
  ASSERT_OK(local_->Write(object, garbage));

  const auto corrupt_before = monarch.value()->Stats().fallbacks_corruption;
  ExpectSliceMatches(**monarch, 0, 0, 2048);  // correct despite corruption
  EXPECT_EQ(corrupt_before + 1,
            monarch.value()->Stats().fallbacks_corruption);
  // The bad copy was dropped; a later pass re-stages and serves it again.
  monarch.value()->DrainPlacements();
  ExpectSliceMatches(**monarch, 0, 0, 2048);
}

// A truncated staged chunk is a corrupt copy in both lanes: the lease
// lane's lent view is checked like the copy lane's read (a short view is
// dropped and counted, never silently re-read), and the PFS serves.
TEST_F(ChunkedReadTest, TruncatedChunkIsDroppedInBothLanes) {
  auto monarch = Build("none");
  ASSERT_OK(monarch);
  const std::string name = workload::SmallFilePath(spec_, 0);
  const std::string object = pack::ChunkObjectName(name, 0);
  ExpectSliceMatches(**monarch, 0, 0, 1024);
  monarch.value()->DrainPlacements();

  for (const bool zero_copy : {false, true}) {
    ASSERT_OK(local_->Write(object, std::vector<std::byte>(100)));
    const auto corrupt_before = monarch.value()->Stats().fallbacks_corruption;
    if (zero_copy) {
      auto lease = monarch.value()->ReadZeroCopy(name, 0, 1024);
      ASSERT_OK(lease);
      const std::vector<std::byte> whole = Expected(0);
      EXPECT_TRUE(std::equal(lease.value().data().begin(),
                             lease.value().data().end(), whole.begin()));
      EXPECT_EQ(1024u, lease.value().size());
    } else {
      ExpectSliceMatches(**monarch, 0, 0, 1024);
    }
    EXPECT_EQ(corrupt_before + 1,
              monarch.value()->Stats().fallbacks_corruption)
        << (zero_copy ? "ReadZeroCopy" : "Read");
    // The dropped chunk is re-staged from the PFS read.
    monarch.value()->DrainPlacements();
    ASSERT_OK(local_->FileSize(object));
  }
}

TEST_F(ChunkedReadTest, EvictionUnderPressureKeepsReadsCorrect) {
  // Quota holds ~3 files of chunks; LRU evicts chunk sets under pressure.
  auto monarch = Build("none", /*quota=*/12 * 1024, "lru");
  ASSERT_OK(monarch);
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
      ExpectSliceMatches(**monarch, f, 0, 4 * 1024);
    }
  }
  monarch.value()->DrainPlacements();
  const MonarchStats stats = monarch.value()->Stats();
  EXPECT_GT(stats.placement.chunks_evicted, 0u)
      << "staging past the quota must evict earlier chunk copies";
  EXPECT_LE(local_->TotalBytes(), 12 * 1024u);
  for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
    ExpectSliceMatches(**monarch, f, 100, 2000);
  }
}

TEST_F(ChunkedReadTest, ZeroCopyLaneAssemblesIdenticalBytes) {
  for (const std::string codec : {"none", "lz"}) {
    auto monarch = Build(codec);
    ASSERT_OK(monarch);
    for (int pass = 0; pass < 2; ++pass) {  // cold then chunk-resident
      for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
        const std::vector<std::byte> whole = Expected(f);
        const std::string name = workload::SmallFilePath(spec_, f);
        std::vector<std::byte> assembled;
        std::uint64_t offset = 0;
        while (offset < whole.size()) {
          auto lease = monarch.value()->ReadZeroCopy(name, offset);
          ASSERT_OK(lease);
          ASSERT_GT(lease.value().size(), 0u);
          const std::span<const std::byte> data = lease.value().data();
          assembled.insert(assembled.end(), data.begin(), data.end());
          offset += lease.value().size();
        }
        EXPECT_EQ(whole, assembled) << "codec " << codec << " file " << f
                                    << " pass " << pass;
      }
      monarch.value()->DrainPlacements();
    }
  }
}

TEST_F(ChunkedReadTest, CleanupDropsChunkCopies) {
  auto monarch = Build("none");
  ASSERT_OK(monarch);
  std::vector<std::byte> buf(1024);
  for (std::uint64_t f = 0; f < 4; ++f) {
    ASSERT_OK(
        monarch.value()->Read(workload::SmallFilePath(spec_, f), 0, buf));
  }
  monarch.value()->DrainPlacements();
  ASSERT_GT(local_->TotalBytes(), 0u);
  EXPECT_EQ(4u, monarch.value()->CleanupStagedCopies());
  EXPECT_EQ(0u, local_->TotalBytes());
  EXPECT_EQ(0u, monarch.value()->Stats().levels[0].occupancy_bytes);
}

// TSan stress: concurrent chunked readers racing chunk eviction driven
// by staging pressure on a tiny quota. Every read must return the right
// bytes no matter which side of an eviction it lands on.
TEST_F(ChunkedReadTest, ConcurrentReadersSurviveChunkEviction) {
  auto monarch = Build("lz", /*quota=*/8 * 1024, "lru");
  ASSERT_OK(monarch);
  std::vector<std::vector<std::byte>> expected;
  for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
    expected.push_back(Expected(f));
  }
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
      std::vector<std::byte> buf(3 * 1024);
      for (int i = 0; i < 200 && !failed.load(); ++i) {
        const auto f = rng() % spec_.num_files;
        const auto& whole = expected[f];
        const std::uint64_t offset = rng() % whole.size();
        auto read = monarch.value()->Read(
            workload::SmallFilePath(spec_, f), offset, buf);
        if (!read.ok()) {
          failed.store(true);
          ADD_FAILURE() << read.status().ToString();
          break;
        }
        const std::size_t expect_n = static_cast<std::size_t>(
            std::min<std::uint64_t>(buf.size(), whole.size() - offset));
        if (read.value() != expect_n ||
            !std::equal(buf.begin(),
                        buf.begin() + static_cast<std::ptrdiff_t>(expect_n),
                        whole.begin() +
                            static_cast<std::ptrdiff_t>(offset))) {
          failed.store(true);
          ADD_FAILURE() << "wrong bytes: file " << f << " offset " << offset;
          break;
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  monarch.value()->DrainPlacements();
  EXPECT_GT(monarch.value()->Stats().placement.chunks_evicted, 0u)
      << "the stress run must actually exercise eviction";
}

}  // namespace
}  // namespace monarch::core
