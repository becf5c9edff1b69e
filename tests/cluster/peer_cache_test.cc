// ISSUE 4 integration suite: cooperative peer caching end to end. Every
// test builds a small cluster of real Monarch instances over one shared
// in-memory PFS, wired together by a PeerGroup, and asserts the
// tentpole's contract: each node stages only its shard, demand reads of
// non-owned files are served owner-first over the simulated fabric, and
// every peer failure degrades to the PFS without the caller noticing —
// with the absorbed fault visible in the stats (the discipline of
// tests/core/resilience_test.cc, applied to the peer rung).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "../test_support.h"
#include "cluster/peer_group.h"
#include "core/monarch.h"
#include "storage/faulty_engine.h"
#include "storage/memory_engine.h"

namespace monarch::cluster {
namespace {

using storage::FaultyEngine;
using storage::MemoryEngine;

constexpr std::size_t kFileBytes = 4096;
constexpr int kFiles = 16;

std::string File(int i) { return "data/f" + std::to_string(i) + ".bin"; }

std::vector<std::byte> GoldenPayload(int index) {
  std::vector<std::byte> payload(kFileBytes);
  for (std::size_t b = 0; b < kFileBytes; ++b) {
    payload[b] = static_cast<std::byte>((b * 31 + index * 7) & 0xff);
  }
  return payload;
}

/// One cluster member: a clean-by-default FaultyEngine local tier (tests
/// inject owner-side faults through it) over an inspectable MemoryEngine.
struct Node {
  std::shared_ptr<MemoryEngine> local_inner;
  std::shared_ptr<FaultyEngine> local;
  std::unique_ptr<core::Monarch> monarch;
};

struct PeerWorld {
  std::shared_ptr<MemoryEngine> pfs;
  std::unique_ptr<PeerGroup> group;
  std::vector<Node> nodes;

  explicit PeerWorld(int num_nodes, PeerOptions options = {},
                     core::ResilienceOptions resilience = {}) {
    pfs = std::make_shared<MemoryEngine>("pfs");
    for (int i = 0; i < kFiles; ++i) {
      EXPECT_TRUE(pfs->Write(File(i), GoldenPayload(i)).ok());
    }
    group = std::make_unique<PeerGroup>(num_nodes, std::move(options));
    nodes.resize(static_cast<std::size_t>(num_nodes));
    for (int n = 0; n < num_nodes; ++n) {
      Node& node = nodes[static_cast<std::size_t>(n)];
      node.local_inner =
          std::make_shared<MemoryEngine>("local" + std::to_string(n));
      node.local = std::make_shared<FaultyEngine>(node.local_inner,
                                                  FaultyEngine::FaultSpec{});
      group->RegisterNode(n, node.local);

      core::MonarchConfig config;
      config.cache_tiers.push_back(
          core::TierSpec{"local", node.local, /*quota_bytes=*/1ull << 22});
      config.peer_tier =
          core::TierSpec{"peer", group->MakePeerEngine(n), /*quota_bytes=*/0};
      config.peer_view = group->MakePeerView(n);
      config.pfs = core::TierSpec{"pfs", pfs, 0};
      config.dataset_dir = "data";
      config.resilience = resilience;
      auto monarch = core::Monarch::Create(std::move(config));
      EXPECT_TRUE(monarch.ok()) << monarch.status().ToString();
      if (monarch.ok()) node.monarch = std::move(monarch).value();
    }
  }

  /// One full epoch on `node`: read every file, assert golden bytes.
  void ReadAll(int node) {
    std::vector<std::byte> buf(kFileBytes);
    for (int i = 0; i < kFiles; ++i) {
      auto read = nodes[static_cast<std::size_t>(node)].monarch->Read(
          File(i), 0, buf);
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      ASSERT_EQ(kFileBytes, read.value());
      ASSERT_EQ(GoldenPayload(i), std::vector<std::byte>(buf.begin(),
                                                         buf.end()))
          << "node " << node << " read wrong bytes for " << File(i);
    }
  }

  /// Epoch 1, node by node (deterministic placement interleaving): each
  /// node reads the whole dataset and drains its background staging.
  void WarmUp() {
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      ReadAll(static_cast<int>(n));
      nodes[n].monarch->DrainPlacements();
    }
  }

  [[nodiscard]] std::uint64_t OwnedCount(int node) const {
    std::uint64_t owned = 0;
    for (int i = 0; i < kFiles; ++i) {
      if (group->directory().PrimaryOwner(File(i)) == node) ++owned;
    }
    return owned;
  }

  /// Files whose primary owner is `node`, in index order.
  [[nodiscard]] std::vector<int> OwnedFiles(int node) const {
    std::vector<int> owned;
    for (int i = 0; i < kFiles; ++i) {
      if (group->directory().PrimaryOwner(File(i)) == node) owned.push_back(i);
    }
    return owned;
  }
};

TEST(PeerCacheTest, ShardedStagingServesSteadyStateWithoutPfs) {
  PeerWorld world(2);
  ASSERT_TRUE(world.nodes[0].monarch && world.nodes[1].monarch);
  const std::uint64_t owned0 = world.OwnedCount(0);
  const std::uint64_t owned1 = world.OwnedCount(1);
  ASSERT_EQ(static_cast<std::uint64_t>(kFiles), owned0 + owned1);

  world.WarmUp();

  // Each node staged exactly its shard — never a non-owned file — so the
  // cluster holds the dataset once, not once per node.
  EXPECT_EQ(static_cast<std::uint64_t>(kFiles), world.group->directory().entries());
  EXPECT_EQ(static_cast<std::uint64_t>(kFiles),
            world.group->directory().placed_copies());
  for (int n = 0; n < 2; ++n) {
    const auto stats = world.nodes[static_cast<std::size_t>(n)].monarch->Stats();
    EXPECT_EQ(world.OwnedCount(n), stats.placement.completed);
    EXPECT_EQ(world.OwnedCount(n) * kFileBytes,
              world.nodes[static_cast<std::size_t>(n)].local_inner->TotalBytes());
  }
  // Node 1 warmed up second: node 0's shard was already placed, so those
  // epoch-1 reads crossed the fabric instead of hitting the PFS.
  const int peer = world.nodes[1].monarch->hierarchy().peer_level();
  ASSERT_GE(peer, 0);
  EXPECT_EQ(owned0, world.nodes[1].monarch->Stats().levels[peer].reads);

  // Steady state: a full epoch on every node touches the PFS zero times.
  const auto pfs_before = world.pfs->Stats().Snapshot();
  world.ReadAll(0);
  world.ReadAll(1);
  const auto pfs_delta = world.pfs->Stats().Snapshot() - pfs_before;
  EXPECT_EQ(0u, pfs_delta.read_ops);
  EXPECT_EQ(0u, pfs_delta.bytes_read);

  // The non-owned half of each epoch crossed the fabric; everything
  // reconciles: interconnect transfers == peer-level reads == directory
  // remote hits, and the ladder never fired.
  const auto stats0 = world.nodes[0].monarch->Stats();
  const auto stats1 = world.nodes[1].monarch->Stats();
  EXPECT_EQ(owned1, stats0.levels[peer].reads);
  EXPECT_EQ(2 * owned0, stats1.levels[peer].reads);
  EXPECT_EQ(0u, stats0.degraded_fallbacks);
  EXPECT_EQ(0u, stats1.degraded_fallbacks);
  EXPECT_EQ(owned1 + 2 * owned0, world.group->network()->transfers());
  EXPECT_EQ((owned1 + 2 * owned0) * kFileBytes,
            world.group->network()->bytes_transferred());
  EXPECT_EQ(2 * owned0, world.group->directory().StatsFor(0).remote_hits);
  EXPECT_EQ(owned1, world.group->directory().StatsFor(1).remote_hits);
}

// Satellite (d): the owner node's engine goes UNAVAILABLE mid-read. A
// transient blip is absorbed by the peer driver's retry loop; a hard
// outage exhausts the retries and the PFS rescues the read. Either way
// the caller sees golden bytes and status OK, and injected == absorbed.
TEST(PeerCacheTest, OwnerOutageRetriesThenFallsBackToPfs) {
  PeerWorld world(2);
  ASSERT_TRUE(world.nodes[0].monarch && world.nodes[1].monarch);
  world.WarmUp();

  const std::vector<int> owned0 = world.OwnedFiles(0);
  ASSERT_GE(owned0.size(), 2u);
  const int peer = world.nodes[1].monarch->hierarchy().peer_level();
  ASSERT_GE(peer, 0);
  std::vector<std::byte> buf(kFileBytes);
  auto& reader = *world.nodes[1].monarch;

  // Transient: two injected failures, absorbed entirely by retries.
  world.nodes[0].local->FailNextReads(2);
  ASSERT_OK(reader.Read(File(owned0[0]), 0, buf));
  EXPECT_EQ(GoldenPayload(owned0[0]),
            std::vector<std::byte>(buf.begin(), buf.end()));
  auto stats = reader.Stats();
  EXPECT_EQ(2u, stats.levels[peer].retries);
  EXPECT_EQ(0u, stats.degraded_fallbacks);

  // Hard outage: retries exhaust, the ladder counts a peer_error, and
  // the PFS delivers the authoritative bytes.
  const auto pfs_before = world.pfs->Stats().Snapshot();
  world.nodes[0].local->FailUntilHealed();
  ASSERT_OK(reader.Read(File(owned0[1]), 0, buf));
  EXPECT_EQ(GoldenPayload(owned0[1]),
            std::vector<std::byte>(buf.begin(), buf.end()));
  stats = reader.Stats();
  EXPECT_EQ(1u, stats.fallbacks_peer_error);
  EXPECT_EQ(1u, stats.degraded_fallbacks);
  EXPECT_EQ(1u, (world.pfs->Stats().Snapshot() - pfs_before).read_ops);

  // Reconciliation: every injected fault was either retried in place or
  // surfaced exactly once into the PFS fallback. Nothing reached the app.
  EXPECT_EQ(world.nodes[0].local->injected_failures(),
            stats.levels[peer].retries + stats.fallbacks_peer_error);

  // After the owner heals, peer service resumes transparently.
  world.nodes[0].local->Heal();
  ASSERT_OK(reader.Read(File(owned0[0]), 0, buf));
  EXPECT_EQ(GoldenPayload(owned0[0]),
            std::vector<std::byte>(buf.begin(), buf.end()));
}

// The directory still advertises a holder whose copy vanished (the
// eviction-race window): the peer read comes back kNotFound, the ladder
// counts a peer_miss, and the PFS rescues the read.
TEST(PeerCacheTest, VanishedPeerCopyFallsBackAsMiss) {
  PeerWorld world(2);
  ASSERT_TRUE(world.nodes[0].monarch && world.nodes[1].monarch);
  world.WarmUp();

  const std::vector<int> owned0 = world.OwnedFiles(0);
  ASSERT_GE(owned0.size(), 1u);
  // Rip the staged copy out from under the directory (staged copies keep
  // the dataset-relative name on the tier engine).
  ASSERT_OK(world.nodes[0].local_inner->Delete(File(owned0[0])));

  std::vector<std::byte> buf(kFileBytes);
  ASSERT_OK(world.nodes[1].monarch->Read(File(owned0[0]), 0, buf));
  EXPECT_EQ(GoldenPayload(owned0[0]),
            std::vector<std::byte>(buf.begin(), buf.end()));
  const auto stats = world.nodes[1].monarch->Stats();
  EXPECT_EQ(1u, stats.fallbacks_peer_miss);
  EXPECT_EQ(0u, stats.fallbacks_peer_error);
  EXPECT_EQ(1u, stats.degraded_fallbacks);
}

// A corrupt local copy does not send the read to the PFS while another
// node advertises the file: the ladder's next rung is the peer.
TEST(PeerCacheTest, CorruptLocalCopyIsServedByPeer) {
  PeerOptions options;
  options.replication = 2;  // both nodes own, and stage, every file
  core::ResilienceOptions resilience;
  resilience.verify_on_read = true;
  PeerWorld world(2, options, resilience);
  ASSERT_TRUE(world.nodes[0].monarch && world.nodes[1].monarch);
  world.WarmUp();
  auto& reader = *world.nodes[1].monarch;
  ASSERT_EQ(static_cast<std::uint64_t>(kFiles),
            reader.Stats().placement.completed);

  const int peer = reader.hierarchy().peer_level();
  const int pfs = reader.hierarchy().pfs_level();
  ASSERT_GE(peer, 0);
  const auto before = reader.Stats();
  world.nodes[1].local->CorruptNextReads(1);
  std::vector<std::byte> buf(kFileBytes);
  ASSERT_OK(reader.Read(File(0), 0, buf));
  EXPECT_EQ(GoldenPayload(0), std::vector<std::byte>(buf.begin(), buf.end()));

  const auto after = reader.Stats();
  EXPECT_EQ(1u, world.nodes[1].local->injected_corruptions());
  EXPECT_EQ(1u, after.fallbacks_corruption);
  EXPECT_EQ(1u, after.degraded_fallbacks);
  EXPECT_EQ(before.levels[peer].reads + 1, after.levels[peer].reads);
  EXPECT_EQ(before.levels[pfs].reads, after.levels[pfs].reads);
}

// Peer sharing is cooperative, not load-bearing: a cluster of one gets a
// working (if pointless) peer tier — every lookup misses, every read
// stays local or PFS, and nothing falls over.
TEST(PeerCacheTest, SingleNodeClusterDegeneratesGracefully) {
  PeerWorld world(1);
  ASSERT_TRUE(world.nodes[0].monarch != nullptr);
  world.WarmUp();
  world.ReadAll(0);

  const auto stats = world.nodes[0].monarch->Stats();
  const int peer = world.nodes[0].monarch->hierarchy().peer_level();
  ASSERT_GE(peer, 0);
  EXPECT_EQ(0u, stats.levels[peer].reads);
  EXPECT_EQ(static_cast<std::uint64_t>(kFiles), stats.placement.completed);
  EXPECT_EQ(0u, stats.degraded_fallbacks);
  EXPECT_EQ(0u, world.group->network()->transfers());
}

}  // namespace
}  // namespace monarch::cluster
