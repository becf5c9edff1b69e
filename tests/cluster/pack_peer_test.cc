// Pack mode x peer tier: two in-process nodes in one PeerGroup over a
// packed small-file dataset staged with the `lz` codec. The chunked read
// ladders must serve a file another node holds in full over the fabric —
// decoded locally and verified against the pack index CRC — and must
// fall back to the PFS (with the right accounting) whenever that is not
// possible: a corrupt holder copy, an incomplete copy, a loose file, or a
// partial read of a multi-chunk file. Which rung served a read is read
// off the per-level counters, never off timing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "../test_support.h"
#include "cluster/peer_group.h"
#include "core/monarch.h"
#include "core/placement_policy.h"
#include "pack/chunk_map.h"
#include "storage/memory_engine.h"
#include "util/crc32c.h"
#include "workload/small_file_dataset.h"

namespace monarch::cluster {
namespace {

using storage::MemoryEngine;

constexpr int kNodes = 2;

struct BuildOptions {
  std::uint64_t chunk_bytes = 1024;  ///< files of ~4 KiB span 2-6 chunks
  std::uint64_t quota = 1 << 20;
  std::string policy;                ///< empty = first-fit
  bool packed = true;                ///< false = loose files, no index
  std::string codec = "lz";
};

class PackPeerTest : public ::testing::Test {
 protected:
  struct Node {
    std::shared_ptr<MemoryEngine> local;
    std::unique_ptr<core::Monarch> monarch;
  };

  void Build(const BuildOptions& options = {}) {
    nodes_.clear();  // a rebuild retires the old nodes before their group
    spec_.directory = "data";
    spec_.num_files = 24;
    spec_.num_classes = 3;
    spec_.mean_file_bytes = 4 * 1024;
    spec_.file_size_jitter = 0.4;
    spec_.seed = 33;
    spec_.pack_extent_bytes = 16 * 1024;
    pfs_ = std::make_shared<MemoryEngine>("pfs");
    if (options.packed) {
      ASSERT_OK(workload::GeneratePackedSmallFiles(*pfs_, spec_));
    } else {
      ASSERT_OK(workload::GenerateSmallFiles(*pfs_, spec_));
    }
    group_ = std::make_unique<PeerGroup>(kNodes);
    nodes_.resize(kNodes);
    for (int n = 0; n < kNodes; ++n) {
      nodes_[static_cast<std::size_t>(n)].local =
          std::make_shared<MemoryEngine>("local" + std::to_string(n));
      group_->RegisterNode(n, nodes_[static_cast<std::size_t>(n)].local);
    }
    for (int n = 0; n < kNodes; ++n) {
      Node& node = nodes_[static_cast<std::size_t>(n)];
      core::MonarchConfig config;
      config.cache_tiers.push_back(
          core::TierSpec{"local", node.local, options.quota});
      config.peer_tier = core::TierSpec{"peer", group_->MakePeerEngine(n), 0};
      config.peer_view = group_->MakePeerView(n);
      config.pfs = core::TierSpec{"pfs", pfs_, 0};
      config.dataset_dir = "data";
      config.placement.num_threads = 2;
      config.placement.pack.enabled = true;
      config.placement.pack.chunk_bytes = options.chunk_bytes;
      config.placement.pack.codec = options.codec;
      if (!options.policy.empty()) {
        auto policy = core::MakePlacementPolicyByName(options.policy);
        ASSERT_OK(policy);
        config.policy = std::move(policy).value();
      }
      auto monarch = core::Monarch::Create(std::move(config));
      ASSERT_OK(monarch);
      node.monarch = std::move(monarch).value();
    }
  }

  [[nodiscard]] std::string Name(std::uint64_t f) const {
    return workload::SmallFilePath(spec_, f);
  }
  [[nodiscard]] std::vector<std::byte> Expected(std::uint64_t f) const {
    return workload::SmallFilePayload(spec_, f);
  }
  [[nodiscard]] int Owner(std::uint64_t f) const {
    return group_->directory().PrimaryOwner(Name(f));
  }
  core::Monarch& Mon(int node) {
    return *nodes_[static_cast<std::size_t>(node)].monarch;
  }
  [[nodiscard]] int PeerLevel() { return Mon(0).hierarchy().peer_level(); }
  std::uint64_t PeerReads(int node) {
    return Mon(node).Stats().levels[static_cast<std::size_t>(PeerLevel())]
        .reads;
  }
  std::uint64_t PfsReadOps() { return pfs_->Stats().Snapshot().read_ops; }
  std::uint64_t PfsBytes() { return pfs_->Stats().Snapshot().bytes_read; }

  /// A whole-file copy read of file `f` on `node`; asserts byte-exact.
  void ExpectWholeRead(int node, std::uint64_t f) {
    auto size = Mon(node).FileSize(Name(f));
    ASSERT_OK(size);
    std::vector<std::byte> buf(size.value());
    auto read = Mon(node).Read(Name(f), 0, buf);
    ASSERT_OK(read);
    ASSERT_EQ(buf.size(), read.value());
    EXPECT_EQ(Crc32c(Expected(f)), Crc32c(buf))
        << "node " << node << " read wrong bytes for " << Name(f);
  }

  /// Node by node (a deterministic interleaving): read every file whole,
  /// then drain that node's staging.
  void ColdPass() {
    for (int n = 0; n < kNodes; ++n) {
      for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
        ExpectWholeRead(n, f);
      }
      Mon(n).DrainPlacements();
    }
  }

  /// First file owned by `node` spanning at least `min_chunks` chunks.
  [[nodiscard]] std::uint64_t OwnedFile(int node,
                                        std::uint64_t chunk_bytes = 1024,
                                        std::size_t min_chunks = 2) const {
    for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
      if (Owner(f) == node &&
          Expected(f).size() > (min_chunks - 1) * chunk_bytes) {
        return f;
      }
    }
    ADD_FAILURE() << "no suitable file owned by node " << node;
    return 0;
  }

  [[nodiscard]] bool Advertised(std::uint64_t f, int asking_node) const {
    return group_->directory().PlacedHolder(Name(f), asking_node).has_value();
  }

  /// Scramble every byte of a holder's stored chunk object in place.
  void CorruptChunk(int holder, std::uint64_t f, std::uint32_t chunk) {
    MemoryEngine& local = *nodes_[static_cast<std::size_t>(holder)].local;
    const std::string object = pack::ChunkObjectName(Name(f), chunk);
    auto size = local.FileSize(object);
    ASSERT_OK(size);
    std::vector<std::byte> bytes(size.value());
    ASSERT_OK(local.Read(object, 0, bytes));
    for (std::byte& b : bytes) b ^= std::byte{0x5a};
    ASSERT_OK(local.Write(object, bytes));
  }

  workload::SmallFileSpec spec_;
  std::shared_ptr<MemoryEngine> pfs_;
  std::unique_ptr<PeerGroup> group_;
  std::vector<Node> nodes_;
};

TEST_F(PackPeerTest, WarmPassServesNonOwnedFilesFromPeerWithoutPfs) {
  Build();
  ColdPass();
  // Each node staged its own shard whole, and the directory advertises
  // every file exactly once.
  EXPECT_EQ(spec_.num_files, group_->directory().placed_copies());

  const std::uint64_t pfs_before = PfsBytes();
  std::vector<std::uint64_t> peer_before;
  for (int n = 0; n < kNodes; ++n) peer_before.push_back(PeerReads(n));
  for (int n = 0; n < kNodes; ++n) {
    for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
      ExpectWholeRead(n, f);
    }
  }
  EXPECT_EQ(0u, PfsBytes() - pfs_before)
      << "a warm pass must not touch the PFS";
  for (int n = 0; n < kNodes; ++n) {
    std::uint64_t non_owned = 0;
    for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
      if (Owner(f) != n) ++non_owned;
    }
    ASSERT_GT(non_owned, 0u);
    EXPECT_EQ(non_owned,
              PeerReads(n) - peer_before[static_cast<std::size_t>(n)])
        << "node " << n << ": every non-owned file must come from the peer";
    EXPECT_EQ(0u, Mon(n).Stats().degraded_fallbacks);
  }
}

TEST_F(PackPeerTest, CorruptHolderChunkFallsBackToPfsAsPeerError) {
  // With the identity codec a scrambled chunk still "decodes": only the
  // pack index CRC stands between it and the caller.
  for (const std::string codec : {"lz", "none"}) {
    SCOPED_TRACE("codec " + codec);
    BuildOptions options;
    options.codec = codec;
    Build(options);
    ColdPass();
    const std::uint64_t f = OwnedFile(0);
    CorruptChunk(0, f, 0);

    const std::uint64_t peer_before = PeerReads(1);
    const std::uint64_t pfs_before = PfsReadOps();
    ExpectWholeRead(1, f);
    const core::MonarchStats stats = Mon(1).Stats();
    EXPECT_EQ(1u, stats.fallbacks_peer_error);
    EXPECT_EQ(1u, stats.degraded_fallbacks);
    EXPECT_EQ(peer_before, PeerReads(1))
        << "a failed verification is no peer hit";
    EXPECT_EQ(pfs_before + 1, PfsReadOps());

    // The zero-copy lane verifies the same way.
    auto lease = Mon(1).ReadZeroCopy(Name(f), 0);
    ASSERT_OK(lease);
    EXPECT_EQ(Mon(1).hierarchy().pfs_level(), lease.value().level());
    EXPECT_EQ(Crc32c(Expected(f)), Crc32c(lease.value().data()));
    EXPECT_EQ(2u, Mon(1).Stats().fallbacks_peer_error);
  }
}

TEST_F(PackPeerTest, HolderChunkDropRetractsAdvertisement) {
  Build();
  ColdPass();
  const std::uint64_t f = OwnedFile(0);
  ASSERT_TRUE(Advertised(f, 1));

  // The holder's own read finds chunk 1 corrupt and drops it. Its
  // staging is stopped first, so the dropped chunk is not re-staged and
  // the copy stays incomplete: the directory must stop advertising it.
  Mon(0).StopPlacement();
  CorruptChunk(0, f, 1);
  ExpectWholeRead(0, f);
  EXPECT_EQ(1u, Mon(0).Stats().fallbacks_corruption);
  EXPECT_FALSE(Advertised(f, 1));

  // Reads elsewhere go straight to the PFS: no peer attempt, no fallback.
  const std::uint64_t peer_before = PeerReads(1);
  const std::uint64_t pfs_before = PfsReadOps();
  ExpectWholeRead(1, f);
  EXPECT_EQ(peer_before, PeerReads(1));
  EXPECT_EQ(pfs_before + 1, PfsReadOps());
  EXPECT_EQ(0u, Mon(1).Stats().degraded_fallbacks);
}

TEST_F(PackPeerTest, EvictionAndCleanupAdvertiseOnlyCompleteCopies) {
  // A quota far below each node's shard: LRU drops chunks under
  // pressure, which leaves some files partially resident.
  BuildOptions options;
  options.quota = 8 * 1024;
  options.policy = "lru";
  Build(options);
  for (int pass = 0; pass < 2; ++pass) ColdPass();
  std::uint64_t evicted = 0;
  for (int n = 0; n < kNodes; ++n) {
    evicted += Mon(n).Stats().placement.chunks_evicted;
  }
  ASSERT_GT(evicted, 0u) << "the quota must force chunk evictions";

  std::uint64_t complete = 0;
  for (int n = 0; n < kNodes; ++n) {
    const int other = 1 - n;
    for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
      const core::FileInfoPtr info = Mon(n).metadata().Lookup(Name(f));
      ASSERT_NE(nullptr, info);
      const pack::ChunkMap* cm = info->chunk_map();
      const bool whole =
          cm != nullptr && cm->ResidentCount() == cm->num_chunks();
      const std::vector<int> holders =
          group_->directory().PlacedHolders(Name(f), other);
      const bool advertised =
          std::find(holders.begin(), holders.end(), n) != holders.end();
      EXPECT_EQ(whole, advertised) << "node " << n << " file " << Name(f);
      if (whole) ++complete;
    }
  }
  ASSERT_GT(complete, 0u);

  // Cleanup retracts every remaining advertisement.
  for (int n = 0; n < kNodes; ++n) Mon(n).CleanupStagedCopies();
  EXPECT_EQ(0u, group_->directory().placed_copies());
  for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
    EXPECT_FALSE(Advertised(f, -1));
  }
}

TEST_F(PackPeerTest, ZeroCopyLaneLendsIdenticalPeerBytes) {
  Build();
  ColdPass();
  const std::uint64_t pfs_before = PfsBytes();
  const std::uint64_t peer_before = PeerReads(1);
  std::uint64_t served = 0;
  for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
    if (Owner(f) == 1) continue;
    auto lease = Mon(1).ReadZeroCopy(Name(f), 0);
    ASSERT_OK(lease);
    EXPECT_EQ(PeerLevel(), lease.value().level());
    EXPECT_FALSE(lease.value().zero_copy()) << "decoded bytes are a copy";
    const std::vector<std::byte> expected = Expected(f);
    ASSERT_EQ(expected.size(), lease.value().size());
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                           lease.value().data().begin()))
        << Name(f);
    ++served;
  }
  ASSERT_GT(served, 0u);
  EXPECT_EQ(peer_before + served, PeerReads(1));
  EXPECT_EQ(0u, PfsBytes() - pfs_before);
}

TEST_F(PackPeerTest, PartialReadOfMultiChunkFileGoesToPfs) {
  Build();
  ColdPass();
  const std::uint64_t f = OwnedFile(0, 1024, 3);
  const std::vector<std::byte> expected = Expected(f);
  const std::uint64_t transfers_before = group_->network()->transfers();
  const std::uint64_t peer_before = PeerReads(1);
  const std::uint64_t pfs_before = PfsReadOps();

  std::vector<std::byte> slice(200);
  auto read = Mon(1).Read(Name(f), 100, slice);
  ASSERT_OK(read);
  ASSERT_EQ(slice.size(), read.value());
  EXPECT_TRUE(std::equal(slice.begin(), slice.end(), expected.begin() + 100));
  // Zero-copy lane: a view covering only the first chunk.
  auto lease = Mon(1).ReadZeroCopy(Name(f), 0, 512);
  ASSERT_OK(lease);
  EXPECT_EQ(Mon(1).hierarchy().pfs_level(), lease.value().level());
  EXPECT_TRUE(std::equal(lease.value().data().begin(),
                         lease.value().data().end(), expected.begin()));

  EXPECT_EQ(transfers_before, group_->network()->transfers())
      << "a slice of a multi-chunk file must not pull the file over the fabric";
  EXPECT_EQ(peer_before, PeerReads(1));
  EXPECT_EQ(pfs_before + 2, PfsReadOps());
  EXPECT_EQ(0u, Mon(1).Stats().degraded_fallbacks);
}

TEST_F(PackPeerTest, SliceOfSingleChunkFileIsPeerServed) {
  BuildOptions options;
  options.chunk_bytes = 64 * 1024;  // every file is one chunk
  Build(options);
  ColdPass();
  const std::uint64_t f = OwnedFile(0, options.chunk_bytes, 1);
  const std::vector<std::byte> expected = Expected(f);
  const std::uint64_t peer_before = PeerReads(1);
  const std::uint64_t pfs_before = PfsReadOps();

  std::vector<std::byte> slice(200);
  auto read = Mon(1).Read(Name(f), 100, slice);
  ASSERT_OK(read);
  ASSERT_EQ(slice.size(), read.value());
  EXPECT_TRUE(std::equal(slice.begin(), slice.end(), expected.begin() + 100));
  auto lease = Mon(1).ReadZeroCopy(Name(f), 100, 200);
  ASSERT_OK(lease);
  EXPECT_EQ(PeerLevel(), lease.value().level());
  EXPECT_TRUE(std::equal(lease.value().data().begin(),
                         lease.value().data().end(), expected.begin() + 100));
  EXPECT_EQ(peer_before + 2, PeerReads(1));
  EXPECT_EQ(pfs_before, PfsReadOps());
}

TEST_F(PackPeerTest, LooseFilesHaveNoIndexCrcAndStayOnPfs) {
  BuildOptions options;
  options.packed = false;
  Build(options);
  ColdPass();
  const std::uint64_t pfs_before = PfsReadOps();
  std::uint64_t non_owned = 0;
  for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
    ExpectWholeRead(1, f);
    if (Owner(f) != 1) ++non_owned;
  }
  EXPECT_EQ(0u, PeerReads(1));
  EXPECT_EQ(pfs_before + non_owned, PfsReadOps());
  EXPECT_EQ(0u, Mon(1).Stats().degraded_fallbacks);
}

TEST(PackPeerNamesTest, ChunkObjectNamesMapBackToTheirFile) {
  for (const std::string file : {"data/a.bin", "x#c1", "#c", ""}) {
    for (const std::uint32_t index : {0u, 7u, 4294967295u}) {
      const std::string object = pack::ChunkObjectName(file, index);
      EXPECT_EQ(std::optional<std::string_view>(file),
                pack::ChunkObjectFile(object))
          << object;
    }
  }
  for (const std::string name : {"data/a.bin", "a#c", "a#c01", "a#cx",
                                 "a#c-1", "a#c1x", "a#c4294967296"}) {
    EXPECT_FALSE(pack::ChunkObjectFile(name).has_value()) << name;
  }
}

}  // namespace
}  // namespace monarch::cluster
