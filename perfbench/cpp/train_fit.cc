// train_fit: one node training LeNet over ImageNet-100GiB-shaped TFRecord
// shards through MONARCH, with write-back checkpoints.
//
// Why: the paper's mechanism end to end. Epoch 1 is demand staging with
// full-file fetch (PFS reads plus local-tier writes); later epochs are
// served from the local tier; checkpoint saves share the tier and the
// PFS with dataset reads. Modelled device time dominates, so a change to
// middleware CPU cost should not move this workload's epoch times.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint_manager.h"
#include "core/monarch.h"
#include "dlsim/monarch_opener.h"
#include "dlsim/trainer.h"
#include "storage/device_model.h"
#include "storage/memory_engine.h"
#include "util/crc32c.h"
#include "workload/dataset_generator.h"
#include "workloads.h"
#include "wrappers.h"

namespace perfbench {
namespace {

using monarch::Crc32c;
namespace core = monarch::core;
namespace ckpt = monarch::ckpt;
namespace dlsim = monarch::dlsim;
namespace storage = monarch::storage;
namespace workload = monarch::workload;

struct Params {
  double scale;               ///< DatasetSpec::ImageNet100GiB scale
  int epochs;
  int readers;
  std::uint64_t ckpt_bytes;
  std::uint64_t ckpt_every_steps;
  int keep_last;
};

Params ParamsFor(bool tiny) {
  if (tiny) return Params{0.125, 2, 4, 1u << 20, 2, 2};
  return Params{1.0, 4, 4, 8u << 20, 10, 2};
}

/// Digest of every sample straight from the generator, in the trainer's
/// order-insensitive form (sum of per-sample CRC32C).
std::uint64_t ExpectedDigest(const workload::DatasetSpec& spec) {
  std::uint64_t digest = 0;
  for (std::uint64_t f = 0; f < spec.num_files; ++f) {
    for (std::uint64_t s = 0; s < spec.samples_per_file; ++s) {
      digest += Crc32c(workload::SamplePayload(spec, f, s));
    }
  }
  return digest;
}

/// One trial's engines, middleware and checkpoint tier.
struct Node {
  storage::StorageEnginePtr pfs;
  storage::StorageEnginePtr local;
  std::unique_ptr<core::Monarch> monarch;
  std::unique_ptr<ckpt::CheckpointManager> manager;
};

monarch::Result<Node> SetUp(
    const std::shared_ptr<storage::MemoryEngine>& pfs_store,
    const workload::DatasetManifest& manifest, const Params& params) {
  Node node;
  node.pfs = MakeTier(pfs_store,
                      std::make_shared<storage::DeviceModel>(
                          storage::DeviceProfile::LustrePfs(),
                          storage::ContentionModel()),
                      Layer::kPfs, Layer::kPfsEngine);
  node.local = MakeTier(std::make_shared<storage::MemoryEngine>("local"),
                        std::make_shared<storage::DeviceModel>(
                            storage::DeviceProfile::LocalSsd()),
                        Layer::kLocal, Layer::kLocalEngine);
  // The quota holds the dataset plus the retained checkpoints (and one
  // in flight), so every file stages.
  const std::uint64_t quota =
      manifest.total_bytes +
      params.ckpt_bytes * static_cast<std::uint64_t>(params.keep_last + 2);
  core::MonarchConfig config;
  config.cache_tiers.push_back(core::TierSpec{"local", node.local, quota});
  config.pfs = core::TierSpec{"pfs", node.pfs, 0};
  config.dataset_dir = manifest.spec.directory;
  auto monarch = core::Monarch::Create(std::move(config));
  if (!monarch.ok()) return monarch.status();
  node.monarch = std::move(monarch).value();
  ckpt::CheckpointOptions options;
  options.keep_last = params.keep_last;
  node.manager = std::make_unique<ckpt::CheckpointManager>(
      node.monarch->hierarchy(), options);
  return node;
}

/// Every retained checkpoint is durable and the PFS holds exactly their
/// bytes (CRC match), and each restores CRC-verified.
void CheckCheckpoints(ckpt::CheckpointManager& manager,
                      storage::MemoryEngine& pfs_store, Report& report) {
  const auto view = manager.ManifestView();
  std::vector<std::uint32_t> expected;
  for (const auto& entry : view) {
    if (entry.state != ckpt::CkptState::kDurable) {
      report.Fail(1, "checkpoint " + entry.name + " not durable");
    }
    auto restored = manager.Restore(entry.name);
    if (!restored.ok() || Crc32c(restored.value()) != entry.crc) {
      report.Fail(1, "checkpoint " + entry.name + " restore mismatch");
    }
    expected.push_back(entry.crc);
  }
  std::vector<std::uint32_t> on_pfs;
  auto files = pfs_store.ListFiles(manager.options().dir);
  if (files.ok()) {
    for (const auto& file : files.value()) {
      std::vector<std::byte> bytes(file.size);
      auto read = pfs_store.Read(file.path, 0, bytes);
      if (read.ok() && read.value() == file.size) {
        on_pfs.push_back(Crc32c(bytes));
      }
      (void)pfs_store.Delete(file.path);  // next trial starts clean
    }
  }
  std::sort(expected.begin(), expected.end());
  std::sort(on_pfs.begin(), on_pfs.end());
  if (expected.empty() || expected != on_pfs) {
    report.Fail(view.size(), "durable checkpoint CRCs differ from the PFS");
  }
}

}  // namespace

void RunTrainFit(const Options& options, Report& report) {
  const Params params = ParamsFor(options.tiny);
  workload::DatasetSpec spec =
      workload::DatasetSpec::ImageNet100GiB(params.scale);
  spec.seed = Mix(options.seed);
  auto pfs_store = std::make_shared<storage::MemoryEngine>("pfs");
  auto manifest = workload::GenerateDataset(*pfs_store, spec);
  if (!manifest.ok()) {
    report.Fail(1, "generate: " + manifest.status().ToString());
    return;
  }
  const std::uint64_t expected_digest = ExpectedDigest(spec);
  const std::uint64_t samples_per_epoch = spec.total_samples();

  EndToEnd e2e;
  e2e.MarkRssBaseline(report);
  LayerMetrics layers;
  TrialClock clock(options.seconds);
  while (clock.Another()) {
    const std::int64_t setup_start = NowNs();
    auto node = SetUp(pfs_store, manifest.value(), params);
    if (!node.ok()) {
      report.Fail(1, "setup: " + node.status().ToString());
      return;
    }
    e2e.setup_s.push_back(SecondsSince(setup_start));
    Node& n = node.value();

    SharedReservoir latency_us;
    TracedSink traced_sink(*n.manager);
    dlsim::TrainerConfig config;
    config.model = dlsim::ModelProfile::LeNet();
    config.epochs = params.epochs;
    config.loader.reader_threads = params.readers;
    config.loader.shuffle_seed = Mix(options.seed + 1);
    config.checkpoint_sink = Tracer::Active() != nullptr
                                 ? static_cast<core::CheckpointSink*>(&traced_sink)
                                 : n.manager.get();
    config.checkpoint_every_steps = params.ckpt_every_steps;
    config.checkpoint_bytes = params.ckpt_bytes;
    storage::IoStatsSnapshot warm_start;
    auto opener = std::make_unique<MeteredOpener>(
        std::make_unique<dlsim::MonarchOpener>(*n.monarch), *n.monarch,
        latency_us, [&](int epoch) {
          if (epoch == 2) warm_start = n.pfs->Stats().Snapshot();
        });
    dlsim::Trainer trainer(manifest.value().file_paths, std::move(opener),
                           config);
    auto trained = trainer.Train();
    report.attempted += samples_per_epoch * static_cast<std::uint64_t>(params.epochs);
    if (!trained.ok()) {
      report.Fail(samples_per_epoch * static_cast<std::uint64_t>(params.epochs),
                  "train: " + trained.status().ToString());
      return;
    }
    const auto& epochs = trained.value().epochs;
    double wall = 0, stall = 0, ckpt_stall = 0, compute = 0;
    std::uint64_t saves = 0;
    for (const auto& epoch : epochs) {
      if (epoch.samples != samples_per_epoch ||
          epoch.sample_digest != expected_digest) {
        report.Fail(samples_per_epoch,
                    "epoch " + std::to_string(epoch.epoch) +
                        " sample digest differs from the generated shards");
      }
      if (epoch.epoch == 1) {
        e2e.epoch1_s.push_back(epoch.wall_seconds);
      } else {
        e2e.warm_epoch_s.push_back(epoch.wall_seconds);
      }
      wall += epoch.wall_seconds;
      stall += epoch.read_stall_seconds;
      ckpt_stall += epoch.checkpoint_seconds;
      compute += epoch.compute_seconds;
      saves += epoch.checkpoints_written;
    }
    const auto pending_at_end = n.manager->GetStats().pending_drains;
    const auto warm_pfs = n.pfs->Stats().Snapshot() - warm_start;
    if (auto flushed = n.manager->Flush(); !flushed.ok()) {
      report.Fail(saves, "flush: " + flushed.ToString());
    }
    report.attempted += saves;
    CheckCheckpoints(*n.manager, *pfs_store, report);
    // The trial's engines are fresh: their counters cover set-up through
    // the checkpoint flush.
    const auto pfs_io = n.pfs->Stats().Snapshot();
    const Reservoir reads = latency_us.Take();

    e2e.read_stall_s.push_back(stall);
    e2e.pfs_read_mib.push_back(static_cast<double>(pfs_io.bytes_read) / kMiB);
    e2e.reads_per_s.push_back(static_cast<double>(reads.seen()) / wall);
    for (double us : reads.samples()) e2e.latency_us.Add(us);

    if (Tracer* tracer = Tracer::Active()) {
      layers.Add("dlsim.compute_s", compute);
      layers.Add("ckpt.stall_s", ckpt_stall);
      const auto ck = n.manager->GetStats();
      layers.Add("ckpt.saves", static_cast<double>(ck.saves));
      layers.Add("ckpt.drain_mib", static_cast<double>(ck.drain_bytes) / kMiB);
      layers.Add("ckpt.pending_at_end", static_cast<double>(pending_at_end));
      layers.AddMonarchStats({n.monarch->Stats()});
      layers.AddIo("storage.pfs", pfs_io);
      layers.AddIo("storage.local", n.local->Stats().Snapshot());
      // PFS bytes per warm epoch: dataset reads the local tier did not
      // absorb plus the checkpoint drain's read-back verification.
      layers.Add("storage.pfs.warm_read_mib",
                 static_cast<double>(warm_pfs.bytes_read) / kMiB /
                     static_cast<double>(params.epochs - 1));
      n.manager.reset();
      n.monarch.reset();
      layers.AddSpans(tracer->Collect());
    }
  }
  TopUpSetups(e2e, report,
              [&] { return SetUp(pfs_store, manifest.value(), params); });
  e2e.Fill(report);
  if (Tracer::Active() != nullptr) layers.Fill(report);
}

}  // namespace perfbench
