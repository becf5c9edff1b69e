// read_hot: one node on raw memory tiers (no device model), its whole
// namespace staged and drained during set-up, then two closed-loop
// clients issuing copying Monarch::Read calls at seeded random 4 KiB
// offsets. After the timed passes each client also runs a fixed number
// of whole-file zero-copy leases (FileSize + ReadZeroCopy) and of
// ReadRing lease submits; those feed only the per-layer lease, ring and
// metadata metrics, never the end-to-end ones.
//
// Why: it isolates the middleware's own CPU cost per read — lookup, pin,
// the tier ladder, counters, and copy — which is a negligible share of a
// train_fit read. The timed traffic is copy-only because nothing fixes
// the shares of a copy/lease/ring mix: the repository's own reader, the
// dlsim loader, uses one lane per run (64 KiB ReadAt copies, or
// whole-file ring leases), and no public trace is at hand. Two clients,
// not four: with four the clients fight Monarch's own threads on a
// 4-core box and the spread triples.
#include <algorithm>
#include <array>
#include <barrier>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/monarch.h"
#include "qos/tenant.h"
#include "storage/memory_engine.h"
#include "util/crc32c.h"
#include "workload/small_file_dataset.h"
#include "workloads.h"
#include "wrappers.h"

namespace perfbench {
namespace {

using monarch::Crc32c;
namespace core = monarch::core;
namespace storage = monarch::storage;
namespace workload = monarch::workload;

constexpr int kClients = 2;
constexpr std::size_t kRingWindow = 8;
static_assert(kClients <= Tracer::kRingSlots);
constexpr std::uint64_t kBlock = 4096;
/// Every 16th op's bytes are checked (CRC32C against the generator).
constexpr std::uint64_t kVerifyEvery = 16;

struct Params {
  std::uint64_t files;
  int passes;                  ///< timed passes per trial
  std::uint64_t ops_per_pass;  ///< copy reads per client and pass
  std::uint64_t lease_ops;     ///< untimed leases (and ring ops) per client
};

Params ParamsFor(bool tiny) {
  if (tiny) return Params{256, 2, 2048, 256};
  return Params{4096, 6, 32768, 4096};
}

struct Truth {
  std::vector<std::string> names;
  std::vector<std::uint64_t> sizes;
  std::vector<std::uint32_t> crcs;
  std::vector<std::vector<std::uint32_t>> block_crcs;  ///< per 4 KiB block
  std::uint64_t total_bytes = 0;
};

struct Node {
  storage::StorageEnginePtr pfs;
  storage::StorageEnginePtr local;
  std::unique_ptr<core::Monarch> monarch;
};

/// Create the node, read every file once (demand staging) and drain, so
/// the timed passes find the whole namespace on the cache tier.
monarch::Result<Node> SetUp(
    const std::shared_ptr<storage::MemoryEngine>& pfs_store,
    const workload::SmallFileSpec& spec, const Truth& truth, Report& report) {
  Node node;
  node.pfs = MakeTier(pfs_store, nullptr, Layer::kPfs, Layer::kPfsEngine);
  node.local = MakeTier(std::make_shared<storage::MemoryEngine>("local"),
                        nullptr, Layer::kLocal, Layer::kLocalEngine);
  core::MonarchConfig config;
  config.cache_tiers.push_back(
      core::TierSpec{"local", node.local, 2 * truth.total_bytes});
  config.pfs = core::TierSpec{"pfs", node.pfs, 0};
  config.dataset_dir = spec.directory;
  auto monarch = core::Monarch::Create(std::move(config));
  if (!monarch.ok()) return monarch.status();
  node.monarch = std::move(monarch).value();
  std::vector<std::byte> buf;
  for (std::size_t f = 0; f < truth.names.size(); ++f) {
    buf.resize(truth.sizes[f]);
    auto read = node.monarch->Read(truth.names[f], 0, buf);
    ++report.attempted;
    if (!read.ok() || read.value() != truth.sizes[f] ||
        Crc32c(buf) != truth.crcs[f]) {
      report.Fail(1, "warm read mismatch: " + truth.names[f]);
    }
  }
  node.monarch->DrainPlacements();
  const auto placed = node.monarch->Stats().placement.completed;
  if (placed != truth.names.size()) {
    report.Fail(1, "set-up staged " + std::to_string(placed) + " of " +
                       std::to_string(truth.names.size()) + " files");
  }
  return node;
}

/// One client's closed-loop state and results.
struct Client {
  int index = 0;
  std::mt19937_64 rng;
  Reservoir latency_us;
  double in_reads_s = 0;
  std::uint64_t ops = 0;        ///< every op, timed or not
  std::uint64_t timed_ops = 0;  ///< copy reads of the timed passes
  std::uint64_t failed = 0;
  std::string first_error;
  // Ring window hand-off: completions arrive on the ring's workers.
  std::mutex mu;
  std::condition_variable cv;
  int pending = 0;
  std::array<core::ReadCompletion, kRingWindow> completions;

  /// One finished op. Only timed ops (copy reads) add their wait
  /// `took_ns` to the end-to-end latency and stall.
  void Record(std::int64_t took_ns, bool ok, bool timed) {
    if (timed) {
      latency_us.Add(static_cast<double>(took_ns) / 1e3);
      in_reads_s += static_cast<double>(took_ns) / 1e9;
      ++timed_ops;
    }
    ++ops;
    if (!ok) {
      ++failed;
      if (first_error.empty()) first_error = "op " + std::to_string(ops);
    }
  }
  /// Every kVerifyEvery-th op's bytes are checked.
  [[nodiscard]] bool verify_next() const { return ops % kVerifyEvery == 0; }
};

bool WholeFileOk(const Truth& truth, std::size_t f,
                 std::span<const std::byte> data, bool verify) {
  return data.size() == truth.sizes[f] &&
         (!verify || Crc32c(data) == truth.crcs[f]);
}

std::size_t PickFile(const Truth& truth, Client& client) {
  return std::uniform_int_distribution<std::size_t>(
      0, truth.names.size() - 1)(client.rng);
}

bool CopyRead(core::Monarch& monarch, const Truth& truth, Client& client,
              std::size_t f, std::vector<std::byte>& buf, bool verify) {
  const std::uint64_t blocks = truth.block_crcs[f].size();
  const std::uint64_t b =
      std::uniform_int_distribution<std::uint64_t>(0, blocks - 1)(client.rng);
  const std::uint64_t want = std::min(kBlock, truth.sizes[f] - b * kBlock);
  auto read = [&] {
    const Span span(Layer::kReadCopy);
    return monarch.Read(truth.names[f], b * kBlock,
                        std::span(buf.data(), kBlock));
  }();
  if (!read.ok() || read.value() != want) return false;
  return !verify ||
         Crc32c(std::span(buf.data(), want)) == truth.block_crcs[f][b];
}

bool LeaseRead(core::Monarch& monarch, const Truth& truth, std::size_t f,
               bool verify) {
  auto size = [&] {
    const Span span(Layer::kFileSize);
    return monarch.FileSize(truth.names[f]);
  }();
  if (!size.ok()) return false;
  auto lease = [&] {
    const Span span(Layer::kReadLease);
    return monarch.ReadZeroCopy(truth.names[f], 0, size.value());
  }();
  return lease.ok() && WholeFileOk(truth, f, lease->data(), verify);
}

/// A batch of kRingWindow whole-file lease ops in one ring Submit, then
/// waited for together: the ring's batched use, one hand-off to a worker
/// per batch. Traced, one core.ring span covers the batch's Submit to its
/// last completion callback.
void RingWindow(core::Monarch& monarch, const Truth& truth, Client& client) {
  Tracer* tracer = Tracer::Active();
  std::array<std::size_t, kRingWindow> files{};
  std::vector<core::ReadOp> ops(kRingWindow);
  for (std::size_t k = 0; k < kRingWindow; ++k) {
    files[k] = PickFile(truth, client);
    ops[k].name = truth.names[files[k]];
    ops[k].lease = true;
    ops[k].user_data = k;
  }
  {
    const std::lock_guard<std::mutex> lock(client.mu);
    client.pending = kRingWindow;
  }
  const auto on_complete = [&client, tracer](core::ReadCompletion c) {
    const std::lock_guard<std::mutex> lock(client.mu);
    const auto k = static_cast<std::size_t>(c.user_data);
    client.completions[k] = std::move(c);
    if (--client.pending == 0) {
      if (tracer != nullptr) tracer->EndRing(client.index);
      client.cv.notify_one();
    }
  };
  if (tracer != nullptr) {
    // The ring re-installs the submitter's tenant on its worker; the
    // tracer reads it to parent the worker's spans under this batch.
    const monarch::qos::TenantContext marker{client.index, kRingTenant};
    const monarch::qos::ScopedTenant scope(marker);
    tracer->BeginRing(client.index);
    monarch.read_ring().Submit(std::move(ops), on_complete);
  } else {
    monarch.read_ring().Submit(std::move(ops), on_complete);
  }
  std::unique_lock<std::mutex> lock(client.mu);
  client.cv.wait(lock, [&] { return client.pending == 0; });
  for (std::size_t k = 0; k < kRingWindow; ++k) {
    core::ReadCompletion done = std::move(client.completions[k]);
    const bool ok = done.bytes.ok() &&
                    WholeFileOk(truth, files[k], done.lease.data(),
                                client.verify_next());
    client.Record(0, ok, /*timed=*/false);
  }
}

/// One timed op: a copying read of a random 4 KiB block of a random file.
void CopyStep(core::Monarch& monarch, const Truth& truth, Client& client,
              std::vector<std::byte>& buf) {
  const std::size_t f = PickFile(truth, client);
  const bool verify = client.verify_next();
  const std::int64_t start = NowNs();
  const bool ok = CopyRead(monarch, truth, client, f, buf, verify);
  client.Record(NowNs() - start, ok, /*timed=*/true);
}

/// The untimed lane ops after the timed passes: `ops` stat + whole-file
/// leases, then `ops` ring leases in batches of kRingWindow.
void LeaseAndRingOps(core::Monarch& monarch, const Truth& truth,
                     Client& client, std::uint64_t ops) {
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::size_t f = PickFile(truth, client);
    client.Record(0, LeaseRead(monarch, truth, f, client.verify_next()),
                  /*timed=*/false);
  }
  for (std::uint64_t i = 0; i < ops; i += kRingWindow) {
    RingWindow(monarch, truth, client);
  }
}

}  // namespace

void RunReadHot(const Options& options, Report& report) {
  const Params params = ParamsFor(options.tiny);
  workload::SmallFileSpec spec;
  spec.directory = "hot";
  spec.num_files = params.files;
  spec.num_classes = 64;
  spec.mean_file_bytes = 16 * 1024;
  spec.file_size_jitter = 0.25;
  spec.run_fraction = 0.5;
  spec.seed = Mix(options.seed);
  auto pfs_store = std::make_shared<storage::MemoryEngine>("pfs");
  auto generated = workload::GenerateSmallFiles(*pfs_store, spec);
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
    std::vector<std::uint32_t> blocks;
    for (std::uint64_t off = 0; off < payload.size(); off += kBlock) {
      const std::uint64_t n = std::min<std::uint64_t>(kBlock, payload.size() - off);
      blocks.push_back(Crc32c(std::span(payload.data() + off, n)));
    }
    truth.block_crcs.push_back(std::move(blocks));
    truth.total_bytes += payload.size();
  }

  EndToEnd e2e;
  e2e.MarkRssBaseline(report);
  LayerMetrics layers;
  TrialClock clock(options.seconds);
  std::uint64_t trial = 0;
  while (clock.Another()) {
    ++trial;
    const auto pfs_start = pfs_store->Stats().Snapshot();
    const std::int64_t setup_start = NowNs();
    auto built = SetUp(pfs_store, spec, truth, report);
    if (!built.ok()) {
      report.Fail(1, "setup: " + built.status().ToString());
      return;
    }
    e2e.setup_s.push_back(SecondsSince(setup_start));
    Node& node = built.value();
    const auto pfs_timed = pfs_store->Stats().Snapshot();
    const auto local_timed = node.local->Stats().Snapshot();
    // Per-layer values and kept spans cover the client ops only: drop
    // set-up's (staging has drained, so no thread is recording).
    if (Tracer* tracer = Tracer::Active()) tracer->Discard();

    // Pass boundaries are barrier phases; the completion step stamps them.
    std::vector<std::int64_t> stamps;
    stamps.reserve(static_cast<std::size_t>(params.passes) + 1);
    std::barrier sync(kClients, [&stamps]() noexcept {
      stamps.push_back(NowNs());
    });
    std::vector<std::unique_ptr<Client>> clients;
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
      auto client = std::make_unique<Client>();
      client->index = i;
      client->rng.seed(Mix(options.seed ^ (trial << 8) ^
                           static_cast<std::uint64_t>(i)));
      clients.push_back(std::move(client));
    }
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        Client& client = *clients[static_cast<std::size_t>(i)];
        std::vector<std::byte> buf(kBlock);
        for (int pass = 0; pass < params.passes; ++pass) {
          sync.arrive_and_wait();
          const std::uint64_t target = client.timed_ops + params.ops_per_pass;
          while (client.timed_ops < target) {
            CopyStep(*node.monarch, truth, client, buf);
          }
        }
        sync.arrive_and_wait();
        LeaseAndRingOps(*node.monarch, truth, client, params.lease_ops);
      });
    }
    for (auto& t : threads) t.join();

    double timed = 0, in_reads = 0;
    std::uint64_t ops = 0;
    for (int pass = 0; pass < params.passes; ++pass) {
      const double s = static_cast<double>(stamps[pass + 1] - stamps[pass]) / 1e9;
      timed += s;
      (pass == 0 ? e2e.epoch1_s : e2e.warm_epoch_s).push_back(s);
    }
    for (const auto& client : clients) {
      ops += client->timed_ops;
      in_reads += client->in_reads_s;
      report.attempted += client->ops;
      if (client->failed > 0) {
        report.Fail(client->failed, "read mismatch, first: " + client->first_error);
      }
      for (double us : client->latency_us.samples()) e2e.latency_us.Add(us);
    }
    const auto pfs_end = pfs_store->Stats().Snapshot();
    e2e.read_stall_s.push_back(in_reads);
    e2e.reads_per_s.push_back(static_cast<double>(ops) / timed);
    // Set-up stages the namespace from the PFS; the timed passes must not
    // touch it (storage.pfs.read_ops below is the check).
    e2e.pfs_read_mib.push_back(
        static_cast<double>((pfs_end - pfs_start).bytes_read) / kMiB);

    if (Tracer* tracer = Tracer::Active()) {
      const auto timed_io = pfs_end - pfs_timed;
      layers.Add("storage.pfs.warm_read_mib",
                 static_cast<double>(timed_io.bytes_read) / kMiB /
                     static_cast<double>(params.passes));
      layers.AddMonarchStats({node.monarch->Stats()});
      layers.Add("core.ring.zero_copy_ratio",
                 node.monarch->read_ring().Stats().zero_copy_hit_rate());
      layers.AddIo("storage.pfs", timed_io);
      layers.AddIo("storage.local",
                   node.local->Stats().Snapshot() - local_timed);
      node.monarch.reset();
      layers.AddSpans(tracer->Collect());
    }
  }
  TopUpSetups(e2e, report,
              [&] { return SetUp(pfs_store, spec, truth, report); });
  e2e.Fill(report);
  if (Tracer::Active() != nullptr) layers.Fill(report);
}

}  // namespace perfbench
