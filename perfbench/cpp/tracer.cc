#include "tracer.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

std::atomic<Tracer*> Tracer::active_{nullptr};

namespace {
thread_local void* tls_buf = nullptr;  // this thread's ThreadBuf
}  // namespace

bool IsClientOp(Layer layer) {
  switch (layer) {
    case Layer::kSourceRead:
    case Layer::kReadCopy:
    case Layer::kReadLease:
    case Layer::kRing:
    case Layer::kFileSize:
    case Layer::kCkptSave:
    case Layer::kPlacementDrain:
      return true;
    default:
      return false;
  }
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSourceRead: return "dlsim.source_read";
    case Layer::kReadCopy: return "core.read.copy";
    case Layer::kReadLease: return "core.read.lease";
    case Layer::kRing: return "core.ring";
    case Layer::kFileSize: return "core.metadata.filesize";
    case Layer::kPfs: return "storage.pfs";
    case Layer::kPfsEngine: return "storage.pfs.engine";
    case Layer::kLocal: return "storage.local";
    case Layer::kLocalEngine: return "storage.local.engine";
    case Layer::kPeer: return "net.peer";
    case Layer::kCkptSave: return "ckpt.save";
    case Layer::kPlacementDrain: return "core.placement.drain";
    case Layer::kCount: break;
  }
  return "unknown";
}

Tracer::Tracer(std::size_t max_kept_spans)
    : max_kept_(max_kept_spans), epoch_ns_(NowNs()) {
  active_.store(this, std::memory_order_release);
}

Tracer::~Tracer() { active_.store(nullptr, std::memory_order_release); }

Tracer::ThreadBuf& Tracer::Local() {
  if (tls_buf == nullptr) {
    auto buf = std::make_unique<ThreadBuf>();
    const std::lock_guard<std::mutex> lock(mu_);
    buf->tid = static_cast<std::uint32_t>(bufs_.size() + 1);
    tls_buf = buf.get();
    bufs_.push_back(std::move(buf));
  }
  return *static_cast<ThreadBuf*>(tls_buf);
}

void Tracer::Begin(Layer layer) {
  ThreadBuf& buf = Local();
  Frame frame{next_id_.fetch_add(1, std::memory_order_relaxed), 0, 0, 0, 0,
              layer, kNoRoot, -1};
  if (!buf.stack.empty()) {
    frame.parent = buf.stack.back().id;
    frame.req = buf.stack.back().req;
  } else if (const monarch::qos::TenantContext* tenant =
                 monarch::qos::CurrentTenant();
             tenant != nullptr && tenant->name == kRingTenant &&
             tenant->tenant_id >= 0 && tenant->tenant_id < kRingSlots) {
    const RingSlot& slot = ring_[static_cast<std::size_t>(tenant->tenant_id)];
    frame.parent = slot.id;
    frame.req = slot.req;
    frame.ring_slot = tenant->tenant_id;
  } else if (IsClientOp(layer)) {
    frame.req = next_req_.fetch_add(1, std::memory_order_relaxed);
  } else {
    frame.root = tenant != nullptr && tenant->name == "ckpt-drain"
                     ? kDrainRoot
                     : kPlacementRoot;
  }
  frame.start = NowNs();
  buf.stack.push_back(frame);
}

void Tracer::End() {
  const std::int64_t end = NowNs();
  ThreadBuf& buf = Local();
  const Frame frame = buf.stack.back();
  buf.stack.pop_back();
  const std::int64_t duration = end - frame.start;
  if (!buf.stack.empty()) {
    buf.stack.back().child_ns += duration;
  } else if (frame.ring_slot >= 0) {
    ring_[static_cast<std::size_t>(frame.ring_slot)].child_ns.fetch_add(
        duration, std::memory_order_relaxed);
  }
  Record(buf,
         Kept{frame.id, frame.parent, frame.req, frame.start, end, buf.tid,
              frame.layer, frame.root},
         duration - frame.child_ns);
}

void Tracer::BeginRing(int slot) {
  RingSlot& ring = ring_[static_cast<std::size_t>(slot)];
  ring.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  ring.req = next_req_.fetch_add(1, std::memory_order_relaxed);
  ring.tid = Local().tid;
  ring.child_ns.store(0, std::memory_order_relaxed);
  ring.start = NowNs();
}

void Tracer::EndRing(int slot) {
  const std::int64_t end = NowNs();
  RingSlot& ring = ring_[static_cast<std::size_t>(slot)];
  const std::int64_t duration = end - ring.start;
  Record(Local(),
         Kept{ring.id, 0, ring.req, ring.start, end, ring.tid, Layer::kRing,
              kNoRoot},
         duration - ring.child_ns.load(std::memory_order_relaxed));
}

void Tracer::Record(ThreadBuf& buf, const Kept& span, std::int64_t self_ns) {
  const auto index = static_cast<std::size_t>(span.layer);
  const std::int64_t duration = span.end - span.start;
  LayerTotals& totals = buf.totals[index];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += self_ns;
  buf.durations[index].Add(static_cast<double>(duration));
  if (kept_.load(std::memory_order_relaxed) < max_kept_) {
    kept_.fetch_add(1, std::memory_order_relaxed);
    buf.kept.push_back(span);
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

TraceTotals Tracer::Collect() {
  TraceTotals out;
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& buf : bufs_) {
    for (std::size_t i = 0; i < kLayers; ++i) {
      out.layers[i].count += buf->totals[i].count;
      out.layers[i].total_ns += buf->totals[i].total_ns;
      out.layers[i].self_ns += buf->totals[i].self_ns;
      const auto& d = buf->durations[i].samples();
      out.durations_ns[i].insert(out.durations_ns[i].end(), d.begin(),
                                 d.end());
      buf->totals[i] = LayerTotals{};
      buf->durations[i] = Reservoir(kSamplesPerThread);  // frees the samples
    }
  }
  return out;
}

void Tracer::Discard() {
  (void)Collect();
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& buf : bufs_) buf->kept.clear();
  kept_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

std::uint64_t Tracer::kept_spans() const {
  return kept_.load(std::memory_order_relaxed);
}

std::uint64_t Tracer::dropped_spans() const {
  return dropped_.load(std::memory_order_relaxed);
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":"
      << dropped_spans() << "},\"traceEvents\":[";
  bool first = true;
  char line[512];
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : bufs_) {
    for (const Kept& span : buf->kept) {
      const char* root = span.root == kPlacementRoot ? "core.placement"
                         : span.root == kDrainRoot   ? "ckpt.drain"
                                                     : "";
      std::snprintf(
          line, sizeof(line),
          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
          "\"req\":%llu,\"root\":\"%s\"}}",
          first ? "" : ",\n", LayerName(span.layer), span.tid,
          static_cast<double>(span.start - epoch_ns_) / 1e3,
          static_cast<double>(span.end - span.start) / 1e3,
          static_cast<unsigned long long>(span.id),
          static_cast<unsigned long long>(span.parent),
          static_cast<unsigned long long>(span.req), root);
      out << line;
      first = false;
    }
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
