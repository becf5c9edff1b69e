#include "cluster/peer_group.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <utility>

#include "net/peer_engine.h"
#include "obs/event_tracer.h"
#include "obs/json.h"
#include "pack/chunk_map.h"
#include "util/rng.h"
#include "util/status.h"

namespace monarch::cluster {

namespace {

std::int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Resolves a peer read to a live holder's registered local engine.
/// Excludes the asking node (its own copies are served locally by its
/// hierarchy, never through the interconnect) and any holder the current
/// read already failed against. Among the remaining live holders it
/// picks by power-of-two-choices on in-flight transfer counts, so
/// replicated shards spread load instead of hammering ring-order
/// primary; quarantined holders are only used as a last resort.
class GroupResolver final : public net::PeerEngine::Resolver {
 public:
  GroupResolver(PeerGroup* group, int self)
      : group_(group),
        self_(self),
        rng_(0x9E3779B97F4A7C15ull ^ static_cast<std::uint64_t>(self + 1)) {}

  Result<Holder> ResolveHolder(const std::string& path,
                               std::span<const int> exclude) override {
    // Pack mode reads a holder's chunk objects ("name#cN"); the directory
    // keys by the file they belong to ('#' is reserved in pack names).
    const std::optional<std::string_view> file = pack::ChunkObjectFile(path);
    std::vector<int> candidates = group_->directory().PlacedHolders(
        file.has_value() ? std::string(*file) : path, self_);
    std::erase_if(candidates, [&](int node) {
      return std::find(exclude.begin(), exclude.end(), node) != exclude.end();
    });
    if (candidates.empty()) {
      return NotFoundError("no live peer holds a staged copy of '" + path +
                           "'");
    }
    // Quarantine: skip flapping holders unless they are all we have.
    std::vector<int> healthy = candidates;
    std::erase_if(healthy, [&](int node) { return group_->Quarantined(node); });
    const std::vector<int>& pool = healthy.empty() ? candidates : healthy;

    const int chosen = Pick(pool);
    storage::StorageEnginePtr engine = group_->NodeEngine(chosen);
    if (!engine) {
      return NotFoundError("peer node " + std::to_string(chosen) +
                           " holds '" + path +
                           "' but has no registered engine");
    }
    group_->directory().CountRemoteHit(chosen);
    return Holder{chosen, std::move(engine)};
  }

  void OnTransferStart(int node) override { group_->OnTransferStart(node); }
  void OnTransferDone(int node, bool ok) override {
    group_->OnTransferDone(node, ok);
  }

 private:
  int Pick(const std::vector<int>& pool) {
    if (pool.size() == 1) return pool.front();
    std::size_t a;
    std::size_t b;
    {
      std::lock_guard lock(rng_mu_);
      a = static_cast<std::size_t>(rng_.NextBounded(pool.size()));
      b = static_cast<std::size_t>(rng_.NextBounded(pool.size() - 1));
    }
    if (b >= a) ++b;  // two DISTINCT choices
    const int na = pool[a];
    const int nb = pool[b];
    const int load_a = group_->InflightFor(na);
    const int load_b = group_->InflightFor(nb);
    if (load_a != load_b) return load_a < load_b ? na : nb;
    // Tie: prefer the earlier candidate — ring order, the deterministic
    // way staging spread the copies.
    return a < b ? na : nb;
  }

  PeerGroup* group_;
  const int self_;
  std::mutex rng_mu_;
  Xoshiro256 rng_;
};

/// Glues one node's Monarch placement callbacks and staging gate to the
/// shared directory (the core-side half of the peer tier).
class DirectoryPeerView final : public core::PeerView {
 public:
  DirectoryPeerView(PeerGroup* group, int self)
      : group_(group), self_(self) {}

  bool HasRemoteCopy(const std::string& name) override {
    return group_->directory().PlacedHolder(name, self_).has_value();
  }

  bool ShouldStageLocally(const std::string& name) override {
    return group_->directory().IsOwner(name, self_);
  }

  void OnStaged(const std::string& name, int level) override {
    group_->directory().MarkPlaced(name, self_, level);
  }

  void OnDropped(const std::string& name) override {
    group_->directory().MarkEvicted(name, self_);
  }

 private:
  PeerGroup* group_;
  const int self_;
};

}  // namespace

PeerGroup::PeerGroup(int num_nodes, PeerOptions options)
    : options_(std::move(options)),
      directory_(num_nodes, options_.replication, options_.directory_shards,
                 options_.deferred_nodes) {
  net::NetworkProfile profile = net::NetworkProfile::ClusterInterconnect();
  profile.bandwidth_bps = options_.interconnect_bandwidth_bps;
  profile.hop_latency = options_.interconnect_latency;
  network_ = std::make_shared<net::NetworkModel>(profile);
  engines_.resize(static_cast<std::size_t>(directory_.num_nodes()));
  holder_state_.reserve(static_cast<std::size_t>(directory_.num_nodes()));
  for (int node = 0; node < directory_.num_nodes(); ++node) {
    holder_state_.push_back(std::make_unique<HolderState>());
  }
}

void PeerGroup::RegisterNode(int node, storage::StorageEnginePtr engine) {
  if (node < 0 || node >= num_nodes()) return;
  std::lock_guard lock(engines_mu_);
  engines_[static_cast<std::size_t>(node)] = std::move(engine);
}

storage::StorageEnginePtr PeerGroup::NodeEngine(int node) const {
  if (node < 0 || node >= num_nodes()) return nullptr;
  std::lock_guard lock(engines_mu_);
  return engines_[static_cast<std::size_t>(node)];
}

storage::StorageEnginePtr PeerGroup::MakePeerEngine(int node) {
  net::PeerEngine::Options engine_options;
  engine_options.self_node = node;
  engine_options.max_holders = std::max(1, options_.max_failover_holders);
  return std::make_shared<net::PeerEngine>(
      "peer" + std::to_string(node),
      std::make_shared<GroupResolver>(this, node), network_, engine_options);
}

core::PeerViewPtr PeerGroup::MakePeerView(int node) {
  return std::make_shared<DirectoryPeerView>(this, node);
}

MembershipDelta PeerGroup::KillNode(int node) {
  // Fabric first: any transfer racing the directory update times out
  // instead of silently reading a dead node's engine.
  network_->SetNodeDown(node, true);
  return directory_.NodeDown(node);
}

MembershipDelta PeerGroup::ReviveNode(int node) {
  network_->SetNodeDown(node, false);
  if (node >= 0 && node < num_nodes()) {
    HolderState& state = *holder_state_[static_cast<std::size_t>(node)];
    state.fail_streak.store(0, std::memory_order_relaxed);
    state.quarantined_until_ns.store(0, std::memory_order_relaxed);
  }
  return directory_.NodeUp(node);
}

MembershipDelta PeerGroup::JoinNode(int node) {
  network_->SetNodeDown(node, false);
  return directory_.NodeJoin(node);
}

int PeerGroup::InflightFor(int node) const {
  if (node < 0 || node >= num_nodes()) return 0;
  return holder_state_[static_cast<std::size_t>(node)]->inflight.load(
      std::memory_order_relaxed);
}

bool PeerGroup::Quarantined(int node) const {
  if (node < 0 || node >= num_nodes()) return false;
  const std::int64_t until =
      holder_state_[static_cast<std::size_t>(node)]->quarantined_until_ns.load(
          std::memory_order_relaxed);
  return until != 0 && SteadyNowNs() < until;
}

void PeerGroup::OnTransferStart(int node) {
  if (node < 0 || node >= num_nodes()) return;
  holder_state_[static_cast<std::size_t>(node)]->inflight.fetch_add(
      1, std::memory_order_relaxed);
}

void PeerGroup::OnTransferDone(int node, bool ok) {
  if (node < 0 || node >= num_nodes()) return;
  HolderState& state = *holder_state_[static_cast<std::size_t>(node)];
  state.inflight.fetch_sub(1, std::memory_order_relaxed);
  if (ok) {
    state.fail_streak.store(0, std::memory_order_relaxed);
    return;
  }
  const int streak =
      state.fail_streak.fetch_add(1, std::memory_order_relaxed) + 1;
  if (streak >= std::max(1, options_.quarantine_failures)) {
    state.quarantined_until_ns.store(
        SteadyNowNs() + options_.quarantine_cooldown.count(),
        std::memory_order_relaxed);
    state.fail_streak.store(0, std::memory_order_relaxed);
    obs::EventTracer& tracer = obs::EventTracer::Global();
    if (tracer.enabled()) {
      tracer.RecordInstant("peer.quarantine", "cluster",
                           "\"node\":" + std::to_string(node));
    }
  }
}

}  // namespace monarch::cluster
