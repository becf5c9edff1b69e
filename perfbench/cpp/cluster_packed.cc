// cluster_packed: two MONARCH nodes in one process, wired through one
// cluster::PeerGroup, over one shared Lustre-profile PFS that holds a
// packed small-file dataset (pack mode on, lz codec).
//
// Why: the only workload on `pack`, `net` and `cluster`. Each node's
// local tier holds its own shard but not the whole dataset, and each
// node's client reads every file once per epoch, so the working set is
// larger than either cache and the rest must come from the peer or the
// PFS. Pack mode's chunked read path has no peer rung, so today warm
// epochs re-read the uncached part from the PFS with zero peer reads —
// the gap this workload makes visible.
#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cluster/peer_group.h"
#include "core/monarch.h"
#include "storage/device_model.h"
#include "storage/memory_engine.h"
#include "util/crc32c.h"
#include "workload/small_file_dataset.h"
#include "workloads.h"
#include "wrappers.h"

namespace perfbench {
namespace {

using monarch::Crc32c;
namespace cluster = monarch::cluster;
namespace core = monarch::core;
namespace storage = monarch::storage;
namespace workload = monarch::workload;

constexpr int kNodes = 2;

struct Params {
  std::uint64_t files;
  int epochs;
};

Params ParamsFor(bool tiny) {
  if (tiny) return Params{128, 2};
  return Params{1024, 4};
}

/// Ground truth for the oracle: every logical file's name, size and CRC.
struct Truth {
  std::vector<std::string> names;
  std::vector<std::uint64_t> sizes;
  std::vector<std::uint32_t> crcs;
  std::uint64_t total_bytes = 0;
};

/// One trial's cluster: a shared PFS engine, and per node a local tier,
/// a peer engine and a Monarch instance.
struct Cluster {
  storage::StorageEnginePtr pfs;
  std::unique_ptr<cluster::PeerGroup> group;
  std::vector<storage::StorageEnginePtr> locals;
  std::vector<storage::StorageEnginePtr> peers;
  std::vector<std::unique_ptr<core::Monarch>> nodes;
};

monarch::Result<Cluster> SetUp(
    const std::shared_ptr<storage::MemoryEngine>& pfs_store,
    const workload::SmallFileSpec& spec, std::uint64_t quota) {
  Cluster c;
  c.pfs = MakeTier(pfs_store,
                   std::make_shared<storage::DeviceModel>(
                       storage::DeviceProfile::LustrePfs(),
                       storage::ContentionModel()),
                   Layer::kPfs, Layer::kPfsEngine);
  c.group = std::make_unique<cluster::PeerGroup>(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    c.locals.push_back(MakeTier(std::make_shared<storage::MemoryEngine>(
                                    "local" + std::to_string(i)),
                                std::make_shared<storage::DeviceModel>(
                                    storage::DeviceProfile::LocalSsd()),
                                Layer::kLocal, Layer::kLocalEngine));
    c.group->RegisterNode(i, c.locals.back());
  }
  for (int i = 0; i < kNodes; ++i) {
    storage::StorageEnginePtr peer = c.group->MakePeerEngine(i);
    if (Tracer::Active() != nullptr) {
      peer = std::make_shared<TracedEngine>(peer, Layer::kPeer);
    }
    c.peers.push_back(peer);
    core::MonarchConfig config;
    config.cache_tiers.push_back(
        core::TierSpec{"local", c.locals[static_cast<std::size_t>(i)], quota});
    config.pfs = core::TierSpec{"pfs", c.pfs, 0};
    config.peer_tier = core::TierSpec{"peer", peer, 0};
    config.peer_view = c.group->MakePeerView(i);
    config.dataset_dir = spec.directory;
    config.placement.pack.enabled = true;
    config.placement.pack.codec = "lz";
    // Chunk staging needs buffers of one pack chunk, not the default
    // 4 MiB whole-file copy buffers; with those, how many buffers the pool
    // happened to allocate swung peak RSS by ~20% run to run.
    config.placement.staging_chunk_bytes = config.placement.pack.chunk_bytes;
    auto monarch = core::Monarch::Create(std::move(config));
    if (!monarch.ok()) return monarch.status();
    c.nodes.push_back(std::move(monarch).value());
  }
  return c;
}

/// What one node's client saw in one epoch.
struct ClientEpoch {
  double wall_s = 0;
  double in_reads_s = 0;
  std::uint64_t reads = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_us;
  std::string first_error;
};

/// Closed loop: FileSize then a whole-file Read of every file once, in a
/// seeded shuffle, checking each file's CRC32C against the generator.
ClientEpoch RunClient(core::Monarch& monarch, const Truth& truth,
                      std::uint64_t shuffle_seed) {
  std::vector<std::size_t> order(truth.names.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(shuffle_seed);
  std::shuffle(order.begin(), order.end(), rng);
  ClientEpoch out;
  out.latency_us.reserve(order.size());
  std::vector<std::byte> buf;
  const std::int64_t start = NowNs();
  for (const std::size_t f : order) {
    const std::int64_t op_start = NowNs();
    monarch::Result<std::uint64_t> size = [&] {
      const Span span(Layer::kFileSize);
      return monarch.FileSize(truth.names[f]);
    }();
    bool ok = size.ok() && size.value() == truth.sizes[f];
    monarch::Result<std::size_t> read = std::size_t{0};
    if (ok) {
      buf.resize(size.value());
      const Span span(Layer::kReadCopy);
      read = monarch.Read(truth.names[f], 0, buf);
    }
    const std::int64_t op_end = NowNs();
    out.latency_us.push_back(static_cast<double>(op_end - op_start) / 1e3);
    out.in_reads_s += static_cast<double>(op_end - op_start) / 1e9;
    ++out.reads;
    ok = ok && read.ok() && read.value() == truth.sizes[f] &&
         Crc32c(buf) == truth.crcs[f];
    if (!ok) {
      ++out.failed;
      if (out.first_error.empty()) out.first_error = truth.names[f];
    }
  }
  out.wall_s = SecondsSince(start);
  return out;
}

}  // namespace

void RunClusterPacked(const Options& options, Report& report) {
  const Params params = ParamsFor(options.tiny);
  workload::SmallFileSpec spec;
  spec.directory = "smallfiles";
  spec.num_files = params.files;
  spec.num_classes = 16;
  spec.mean_file_bytes = 32 * 1024;
  spec.file_size_jitter = 0.5;
  spec.run_fraction = 0.5;
  spec.seed = Mix(options.seed);
  spec.pack_extent_bytes = 4u << 20;
  auto pfs_store = std::make_shared<storage::MemoryEngine>("pfs");
  auto generated = workload::GeneratePackedSmallFiles(*pfs_store, spec);
  if (!generated.ok()) {
    report.Fail(1, "generate: " + generated.status().ToString());
    return;
  }
  Truth truth;
  for (std::uint64_t i = 0; i < spec.num_files; ++i) {
    const auto payload = workload::SmallFilePayload(spec, i);
    truth.names.push_back(workload::SmallFilePath(spec, i));
    truth.sizes.push_back(payload.size());
    truth.crcs.push_back(Crc32c(payload));
    truth.total_bytes += payload.size();
  }
  // Each node may cache 0.6x the dataset, and staging is gated to its own
  // shard (about half), so the rest of its working set must come from
  // the peer or the PFS.
  const auto quota = static_cast<std::uint64_t>(
      0.6 * static_cast<double>(truth.total_bytes));

  EndToEnd e2e;
  e2e.MarkRssBaseline(report);
  LayerMetrics layers;
  TrialClock clock(options.seconds);
  while (clock.Another()) {
    const std::int64_t setup_start = NowNs();
    auto built = SetUp(pfs_store, spec, quota);
    if (!built.ok()) {
      report.Fail(1, "setup: " + built.status().ToString());
      return;
    }
    e2e.setup_s.push_back(SecondsSince(setup_start));
    Cluster& c = built.value();

    double wall = 0, in_reads = 0, warm_pfs_bytes = 0;
    std::uint64_t reads = 0;
    for (int epoch = 1; epoch <= params.epochs; ++epoch) {
      const auto pfs_before = c.pfs->Stats().Snapshot();
      std::vector<ClientEpoch> results(kNodes);
      std::vector<std::thread> clients;
      for (int i = 0; i < kNodes; ++i) {
        clients.emplace_back([&, i] {
          results[static_cast<std::size_t>(i)] = RunClient(
              *c.nodes[static_cast<std::size_t>(i)], truth,
              Mix(options.seed ^ (static_cast<std::uint64_t>(i) << 32) ^
                  static_cast<std::uint64_t>(epoch)));
        });
      }
      for (auto& t : clients) t.join();
      double slowest = 0;
      for (const ClientEpoch& r : results) {
        slowest = std::max(slowest, r.wall_s);
        in_reads += r.in_reads_s;
        reads += r.reads;
        report.attempted += r.reads;
        if (r.failed > 0) {
          report.Fail(r.failed, "read or CRC mismatch, first: " + r.first_error);
        }
        for (double us : r.latency_us) e2e.latency_us.Add(us);
      }
      wall += slowest;
      if (epoch == 1) {
        e2e.epoch1_s.push_back(slowest);
        // Let staging triggered by the cold epoch finish on both nodes
        // before the warm epochs.
        const Span span(Layer::kPlacementDrain);
        for (auto& node : c.nodes) node->DrainPlacements();
      } else {
        e2e.warm_epoch_s.push_back(slowest);
        warm_pfs_bytes += static_cast<double>(
            (c.pfs->Stats().Snapshot() - pfs_before).bytes_read);
      }
    }
    const auto pfs_io = c.pfs->Stats().Snapshot();
    e2e.read_stall_s.push_back(in_reads);
    e2e.pfs_read_mib.push_back(static_cast<double>(pfs_io.bytes_read) / kMiB);
    e2e.reads_per_s.push_back(static_cast<double>(reads) / wall);

    if (Tracer* tracer = Tracer::Active()) {
      layers.Add("storage.pfs.warm_read_mib",
                 warm_pfs_bytes / kMiB / static_cast<double>(params.epochs - 1));
      std::vector<core::MonarchStats> stats;
      for (auto& node : c.nodes) stats.push_back(node->Stats());
      layers.AddMonarchStats(stats);
      layers.AddIo("storage.pfs", pfs_io);
      storage::IoStatsSnapshot local_io, peer_io;
      for (auto& e : c.locals) local_io += e->Stats().Snapshot();
      for (auto& e : c.peers) peer_io += e->Stats().Snapshot();
      layers.AddIo("storage.local", local_io);
      layers.AddIo("net.peer", peer_io);
      c.nodes.clear();
      layers.AddSpans(tracer->Collect());
    }
  }
  TopUpSetups(e2e, report, [&] { return SetUp(pfs_store, spec, quota); });
  report.info["dataset_mib"] = static_cast<double>(truth.total_bytes) / kMiB;
  e2e.Fill(report);
  if (Tracer::Active() != nullptr) layers.Fill(report);
}

}  // namespace perfbench
