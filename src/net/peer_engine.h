// PeerEngine: a StorageEngine whose bytes live on ANOTHER node's local
// tier, reached over the simulated interconnect (ISSUE 4, the kPeer
// hierarchy level).
//
// The engine itself knows nothing about the cluster: a Resolver —
// implemented by cluster::PeerGroup against the FileDirectory — maps a
// path to a live node currently holding a placed copy (power-of-two-
// choices across replicas, quarantining flapping holders). Reads then
// flow remote-engine -> network model, so a peer read pays BOTH the
// owner's device cost (its SSD really is busy serving us) and the
// fabric transfer, exactly like a remote read in FanStore/Hoard.
//
// Replica failover (ISSUE 7): a read that fails against one holder —
// modelled outage/partition (UNAVAILABLE after the RPC timeout) or a
// holder-side error — retries the NEXT live holder before surfacing the
// failure to the degradation ladder above. Only when every live holder
// is exhausted does the error escape, and the per-tier circuit breaker
// above then decides whether the whole peer rung gets quarantined.
//
// Peer tiers are strictly read-only caches of other nodes' staged
// copies: Write/WriteAt/Delete fail with kFailedPrecondition, and the
// StorageDriver above is constructed read-only so placement never
// reserves space here.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <type_traits>

#include "net/network_model.h"
#include "storage/storage_engine.h"

namespace monarch::net {

class PeerEngine final : public storage::StorageEngine {
 public:
  /// Maps a path to a live node holding a placed copy.
  /// Implementations return kNotFound when no peer currently holds the
  /// file — the miss the degradation ladder turns into a PFS fallback —
  /// and never return a node in `exclude` (holders this read already
  /// failed against).
  class Resolver {
   public:
    struct Holder {
      int node = -1;  ///< serving node id (-1: unknown, always reachable)
      storage::StorageEnginePtr engine;
    };

    virtual ~Resolver() = default;
    virtual Result<Holder> ResolveHolder(const std::string& path,
                                         std::span<const int> exclude) = 0;
    /// Transfer lifecycle callbacks: per-holder in-flight accounting for
    /// power-of-two-choices and failure streaks for quarantine.
    virtual void OnTransferStart(int /*node*/) {}
    virtual void OnTransferDone(int /*node*/, bool /*ok*/) {}
  };
  using ResolverPtr = std::shared_ptr<Resolver>;

  struct Options {
    /// This node's id on the fabric (reachability checks); -1 = unknown.
    int self_node = -1;
    /// Distinct holders tried per read before the failure escapes to
    /// the degradation ladder (1 = no failover).
    int max_holders = 2;
  };

  PeerEngine(std::string name, ResolverPtr resolver, NetworkModelPtr network);
  PeerEngine(std::string name, ResolverPtr resolver, NetworkModelPtr network,
             Options options);

  Result<std::size_t> Read(std::string_view path, std::uint64_t offset,
                           std::span<std::byte> dst) override;
  /// Zero-copy peer read: the holder lends its page across the (modelled)
  /// fabric — the transfer is still charged, but this node never memcpys.
  Result<storage::ReadView> ReadZeroCopy(std::string_view path,
                                         std::uint64_t offset,
                                         std::uint64_t max_bytes) override;
  Status Write(const std::string& path,
               std::span<const std::byte> data) override;
  Status WriteAt(const std::string& path, std::uint64_t offset,
                 std::span<const std::byte> data) override;
  Status Delete(const std::string& path) override;
  Result<std::uint64_t> FileSize(const std::string& path) override;
  Result<bool> Exists(const std::string& path) override;
  Result<std::vector<storage::FileStat>> ListFiles(
      const std::string& dir) override;

  storage::IoStats& Stats() override { return stats_; }
  [[nodiscard]] std::string Name() const override { return name_; }

  [[nodiscard]] const NetworkModelPtr& network() const noexcept {
    return network_;
  }

 private:
  /// The chosen holder for one RPC, or UNAVAILABLE after the modelled
  /// timeout when the fabric says it is unreachable.
  Result<Resolver::Holder> ResolveReachable(const std::string& path,
                                            std::span<const int> exclude);

  /// Replica failover shared by Read and ReadZeroCopy: run
  /// `read(holder_engine, path)` against a live holder and, when it
  /// fails, against the next one, up to max_holders. A success charges
  /// the fabric for its bytes and records the peer read; a success after
  /// a failed holder counts `net.peer_failover` and traces
  /// `peer.failover`.
  template <typename ReadFn>
  auto ReadFromHolders(std::string_view path, ReadFn&& read)
      -> std::invoke_result_t<ReadFn&, storage::StorageEngine&,
                              const std::string&>;

  std::string name_;
  ResolverPtr resolver_;
  NetworkModelPtr network_;
  Options options_;
  storage::IoStats stats_;
  obs::Counter* failovers_ = nullptr;  ///< `net.peer_failover`
  // Last member: deregisters before stats_ dies.
  obs::SourceRegistration stats_reg_;
};

}  // namespace monarch::net
