// Metric bookkeeping shared by the workloads: the end-to-end set and the
// per-layer catalogue with its sources (span totals, Stats snapshots).
#include <algorithm>

#include "workloads.h"

namespace perfbench {

namespace {

/// Per-layer latency percentiles computed from pooled span durations.
struct PercentileSpec {
  const char* name;
  Layer layer;
  double percentile;
  double ns_per_unit;
};

const std::vector<PercentileSpec>& Percentiles() {
  static const std::vector<PercentileSpec> specs = {
      {"core.read.copy_p50_us", Layer::kReadCopy, 50, 1e3},
      {"core.read.copy_p99_us", Layer::kReadCopy, 99, 1e3},
      {"core.read.lease_p50_us", Layer::kReadLease, 50, 1e3},
      {"core.ring.p50_us", Layer::kRing, 50, 1e3},
      {"core.metadata.filesize_p50_ns", Layer::kFileSize, 50, 1},
      {"ckpt.save_p50_ms", Layer::kCkptSave, 50, 1e6},
  };
  return specs;
}

}  // namespace

const std::vector<MetricSpec>& PerLayerCatalogue() {
  static const std::vector<MetricSpec> catalogue = {
      {"dlsim.compute_s", "s"},
      {"dlsim.source_read_s", "s"},
      {"dlsim.source_reads", "count"},
      {"core.read.copy_p50_us", "us"},
      {"core.read.copy_p99_us", "us"},
      {"core.read.lease_p50_us", "us"},
      {"core.read.self_us", "us"},
      {"core.read.tier_hit_ratio", "ratio"},
      {"core.read.degraded_fallbacks", "count"},
      {"core.ring.p50_us", "us"},
      {"core.ring.zero_copy_ratio", "ratio"},
      {"core.metadata.filesize_p50_ns", "ns"},
      {"core.metadata.init_s", "s"},
      {"core.placement.completed", "count"},
      {"core.placement.staged_mib", "MiB"},
      {"core.placement.donated_mib", "MiB"},
      {"core.placement.failed", "count"},
      {"core.placement.evictions", "count"},
      {"core.placement.drain_s", "s"},
      {"storage.pfs.read_ops", "count"},
      {"storage.pfs.read_mib", "MiB"},
      {"storage.pfs.write_mib", "MiB"},
      {"storage.pfs.warm_read_mib", "MiB"},
      {"storage.pfs.busy_s", "s"},
      {"storage.pfs.device_s", "s"},
      {"storage.pfs.cpu_s", "s"},
      {"storage.local.read_ops", "count"},
      {"storage.local.read_mib", "MiB"},
      {"storage.local.write_mib", "MiB"},
      {"storage.local.busy_s", "s"},
      {"storage.local.device_s", "s"},
      {"storage.local.cpu_s", "s"},
      {"net.peer.read_ops", "count"},
      {"net.peer.read_mib", "MiB"},
      {"net.peer.busy_s", "s"},
      {"cluster.peer_served_ratio", "ratio"},
      {"pack.chunk_hit_ratio", "ratio"},
      {"pack.chunks_staged", "count"},
      {"pack.stored_ratio", "ratio"},
      {"ckpt.save_p50_ms", "ms"},
      {"ckpt.saves", "count"},
      {"ckpt.drain_mib", "MiB"},
      {"ckpt.pending_at_end", "count"},
      {"ckpt.stall_s", "s"},
  };
  return catalogue;
}

void EndToEnd::Fill(Report& report) const {
  auto& out =
      Tracer::Active() != nullptr ? report.traced_e2e : report.metrics;
  const auto set = [&](const char* name, const char* unit,
                       const std::vector<double>& samples) {
    out[name] = Metric{unit, Summarize(samples)};
  };
  set("setup_s", "s", setup_s);
  set("epoch1_s", "s", epoch1_s);
  set("warm_epoch_s", "s", warm_epoch_s);
  set("read_stall_s", "s", read_stall_s);
  set("pfs_read_mib", "MiB", pfs_read_mib);
  set("reads_per_s", "1/s", reads_per_s);
  ReportReadLatency(out, report.info, latency_us.samples(),
                    latency_us.seen());
  set("peak_rss_mib", "MiB", {PeakRssMiB() - rss_base_mib_});
}

void EndToEnd::MarkRssBaseline(Report& report) {
  bool reset = false;
  rss_base_mib_ = ResetPeakRss(reset);
  report.info["rss_baseline_mib"] = rss_base_mib_;
  // 0: the kernel refused the reset, so the peak may predate the inputs.
  report.info["rss_peak_reset"] = reset ? 1 : 0;
}

void LayerMetrics::AddSpans(const TraceTotals& totals) {
  for (std::size_t i = 0; i < kLayers; ++i) {
    span_totals_[i].count += totals.layers[i].count;
    span_totals_[i].total_ns += totals.layers[i].total_ns;
    span_totals_[i].self_ns += totals.layers[i].self_ns;
  }
  Add("dlsim.source_read_s", totals.busy_s(Layer::kSourceRead));
  Add("dlsim.source_reads",
      static_cast<double>(totals.at(Layer::kSourceRead).count));
  const std::uint64_t reads = totals.at(Layer::kReadCopy).count +
                              totals.at(Layer::kReadLease).count;
  if (reads > 0) {
    Add("core.read.self_us",
        static_cast<double>(totals.at(Layer::kReadCopy).self_ns +
                            totals.at(Layer::kReadLease).self_ns) /
            static_cast<double>(reads) / 1e3);
  }
  Add("core.placement.drain_s", totals.busy_s(Layer::kPlacementDrain));
  const auto tier = [&](const std::string& prefix, Layer outer, Layer inner) {
    Add(prefix + ".busy_s", totals.busy_s(outer));
    // With a device model the outer span's self time is the modelled
    // device sleep and the inner engine span the real work; a raw memory
    // tier has no inner span and is all CPU.
    const bool modelled = totals.at(inner).count > 0;
    Add(prefix + ".device_s", modelled ? totals.self_s(outer) : 0.0);
    Add(prefix + ".cpu_s",
        modelled ? totals.busy_s(inner) : totals.busy_s(outer));
  };
  tier("storage.pfs", Layer::kPfs, Layer::kPfsEngine);
  tier("storage.local", Layer::kLocal, Layer::kLocalEngine);
  Add("net.peer.busy_s", totals.busy_s(Layer::kPeer));
  for (const PercentileSpec& spec : Percentiles()) {
    Reservoir& pooled = durations_ns_[spec.layer];
    for (double ns : totals.durations_ns[static_cast<std::size_t>(spec.layer)]) {
      pooled.Add(ns);
    }
  }
}

void LayerMetrics::AddMonarchStats(
    const std::vector<monarch::core::MonarchStats>& nodes) {
  double cache_reads = 0, all_reads = 0, peer_reads = 0, pfs_reads = 0;
  double fallbacks = 0, init_s = 0, completed = 0, staged = 0, donated = 0;
  double failed = 0, evictions = 0, chunk_hits = 0, chunk_misses = 0;
  double chunks_staged = 0, stored = 0;
  for (const auto& s : nodes) {
    const int levels = static_cast<int>(s.levels.size());
    // Levels: writable cache tiers, then (cluster) the peer level, then
    // the PFS. A peer level is named by its tier spec ("peer").
    for (int i = 0; i < levels; ++i) {
      const auto reads = static_cast<double>(s.levels[i].reads);
      all_reads += reads;
      if (i == levels - 1) {
        pfs_reads += reads;
      } else if (s.levels[i].tier_name == "peer") {
        peer_reads += reads;
      } else {
        cache_reads += reads;
      }
    }
    fallbacks += static_cast<double>(s.degraded_fallbacks);
    init_s = std::max(init_s, s.metadata_init_seconds);
    completed += static_cast<double>(s.placement.completed);
    staged += static_cast<double>(s.placement.bytes_staged);
    donated += static_cast<double>(s.placement.donated_bytes);
    failed += static_cast<double>(s.placement.failed);
    evictions += static_cast<double>(s.placement.evictions);
    chunk_hits += static_cast<double>(s.chunk_hits);
    chunk_misses += static_cast<double>(s.chunk_misses);
    chunks_staged += static_cast<double>(s.placement.chunks_staged);
    stored += static_cast<double>(s.placement.chunk_stored_bytes);
  }
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  Add("core.read.tier_hit_ratio", ratio(cache_reads, all_reads));
  Add("core.read.degraded_fallbacks", fallbacks);
  Add("core.metadata.init_s", init_s);
  Add("core.placement.completed", completed);
  Add("core.placement.staged_mib", staged / kMiB);
  Add("core.placement.donated_mib", donated / kMiB);
  Add("core.placement.failed", failed);
  Add("core.placement.evictions", evictions);
  Add("cluster.peer_served_ratio", ratio(peer_reads, peer_reads + pfs_reads));
  Add("pack.chunk_hit_ratio", ratio(chunk_hits, chunk_hits + chunk_misses));
  Add("pack.chunks_staged", chunks_staged);
  Add("pack.stored_ratio", ratio(stored, staged));
}

void LayerMetrics::AddIo(const std::string& prefix,
                         const monarch::storage::IoStatsSnapshot& io) {
  Add(prefix + ".read_ops", static_cast<double>(io.read_ops));
  Add(prefix + ".read_mib", static_cast<double>(io.bytes_read) / kMiB);
  if (prefix != "net.peer") {
    Add(prefix + ".write_mib", static_cast<double>(io.bytes_written) / kMiB);
  }
}

void LayerMetrics::Fill(Report& report) const {
  for (std::size_t i = 0; i < kLayers; ++i) {
    const LayerTotals& t = span_totals_[i];
    if (t.count == 0) continue;
    const auto layer = static_cast<Layer>(i);
    report.span_layers[LayerName(layer)] =
        SpanTotal{t.count, static_cast<double>(t.total_ns) / 1e9,
                  static_cast<double>(t.self_ns) / 1e9, IsClientOp(layer)};
  }
  for (const MetricSpec& spec : PerLayerCatalogue()) {
    if (auto it = trials_.find(spec.name); it != trials_.end()) {
      report.Set(spec.name, spec.unit, it->second);
      continue;
    }
    double value = 0;
    std::size_t n = 0;
    for (const PercentileSpec& p : Percentiles()) {
      if (std::string(p.name) != spec.name) continue;
      if (auto it = durations_ns_.find(p.layer); it != durations_ns_.end()) {
        std::vector<double> sorted = it->second.samples();
        std::sort(sorted.begin(), sorted.end());
        value = SortedPercentile(sorted, p.percentile) / p.ns_per_unit;
        n = sorted.size();
      }
    }
    report.metrics[spec.name] = Metric{spec.unit, Summary{value, value, value, n}};
  }
}

}  // namespace perfbench
