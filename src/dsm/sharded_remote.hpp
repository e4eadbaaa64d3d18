// A remote thread of the DSD system (paper §4): the migrated side of a
// thread pair, running on its own (virtual) platform with its own GThV
// image, synchronizing with the home node through MTh_lock / MTh_unlock /
// MTh_barrier / MTh_join.
//
// Every request is sequenced and retransmitted on timeout with exponential
// backoff + jitter (the home deduplicates, so retries are idempotent); a
// remote whose transport dies can re-dial through a user-supplied reconnect
// hook, and one that exhausts its budget detaches cleanly with
// HomeUnreachable so the rest of the cluster keeps making progress.  All
// retry/backoff *decisions* live in the pure `RetryCore`
// (retry_core.hpp) — this class is the I/O driver that sends, receives,
// and dials on its behalf.  See docs/RELIABILITY.md.
//
// Against a sharded home (docs/SHARDING.md) it keeps one retry-driven
// session per home shard, a cached region→shard map for routing, and the
// two client halves of the sharding protocol —
//
//   * **Lazy map revalidation.**  Requests carry the cached map's epoch;
//     a request that lands at a shard which no longer owns the region is
//     bounced with WrongShard + the authoritative map.  The remote
//     installs the newer map and re-issues at the new owner with `aux` =
//     the first bounced attempt's seq, so the owner can answer from the
//     reply cache that migrated with the region (no grant or ack is lost,
//     and none is executed twice).
//
//   * **Cross-shard pending drains.**  A LockGrant / BarrierRelease ships
//     only the granting shard's pending bytes; its `aux` bitmask names
//     the other shards still holding pending updates for this rank.  The
//     remote drains each with PendingPull before the acquire returns —
//     release consistency holds cluster-wide, not just per shard.
//
// With one shard (the paper's single home) there are no masks (always 0),
// no redirects, and one session.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsm/global_space.hpp"
#include "dsm/retry_core.hpp"
#include "dsm/shard_map.hpp"
#include "dsm/stats.hpp"
#include "dsm/sync_engine.hpp"
#include "dsm/trace.hpp"
#include "msg/endpoint.hpp"
#include "obs/telemetry.hpp"

namespace hdsm::dsm {

/// Thrown by a remote's synchronization calls when the home node stopped
/// answering: every retry timed out (and every permitted reconnect failed).
/// The remote has already detached itself — tracking is stopped and the
/// endpoints closed — so the application thread can terminate cleanly.
/// Derives from msg::ChannelClosed: to the application this *is* a dead
/// channel, just diagnosed at the protocol layer instead of the transport.
class HomeUnreachable : public msg::ChannelClosed {
 public:
  explicit HomeUnreachable(const std::string& what) : msg::ChannelClosed(what) {}
};

struct ShardedRemoteOptions {
  DsdOptions dsd;
  RetryPolicy retry;
  /// Optional reliability trace sink (RetrySent / DuplicateDropped /
  /// Reconnected / TimeoutDetached events); not owned, must outlive the
  /// remote.  A log of its own validates on its own; sharing the home's
  /// log is also valid (these events are lifecycle-exempt).
  TraceLog* trace = nullptr;
  /// Re-dial hook per shard session (e.g. TCP: dial that shard's listener
  /// again; the home re-attaches the rank and replays or resumes the
  /// outstanding request via its dedup cache).  Null = a dead session is
  /// fatal after the retry budget.
  std::function<msg::EndpointPtr(std::uint32_t shard)> reconnect;
  std::uint32_t max_reconnects = 3;  ///< reconnect budget per session
  /// Telemetry (docs/OBSERVABILITY.md).  Disabled ⇒ no Telemetry object is
  /// constructed; synchronization calls pay one null check each, and
  /// pull_cluster_metrics() ships the ShareStats mirror only.
  obs::ObsOptions obs;

  /// Object-granularity sharing mode (hdsm::obj, docs/OBJECTS.md): when
  /// set, unlock/barrier/join collect their update runs from this source
  /// instead of diffing the page-twin machinery — unlock passes the
  /// released region, barrier and join pass kAllRegions — and write
  /// tracking is never armed (no mprotect, no faults, no page diffs).
  /// Null = the page-mode path, byte-identical to before.
  std::function<ObjectRuns(std::uint32_t region)> run_source;
};

class ShardedRemote {
 public:
  /// `endpoints[s]` must be connected to shard s of a ShardedHome that
  /// attached `rank` (the vector ShardedHome::attach returns).
  ShardedRemote(tags::TypePtr gthv, const plat::PlatformDesc& platform,
                std::uint32_t rank, std::vector<msg::EndpointPtr> endpoints,
                ShardedRemoteOptions opts);
  ShardedRemote(tags::TypePtr gthv, const plat::PlatformDesc& platform,
                std::uint32_t rank, std::vector<msg::EndpointPtr> endpoints,
                DsdOptions opts = {});
  ~ShardedRemote();

  ShardedRemote(const ShardedRemote&) = delete;
  ShardedRemote& operator=(const ShardedRemote&) = delete;

  /// MTh_lock(index, rank): acquire distributed mutex `index`; outstanding
  /// updates arrive with the grant and are applied before this returns.
  void lock(std::uint32_t index);
  /// MTh_unlock(index, rank): map local writes to indexes/tags, ship them
  /// home, and release the mutex.
  void unlock(std::uint32_t index);
  /// MTh_barrier(index, rank): ship local writes, wait for all threads,
  /// apply the batched updates released with the barrier.
  void barrier(std::uint32_t index);
  /// MTh_join(): ship final writes (to shard 0) and detach from every
  /// shard; call immediately before thread termination.  No-op on a remote
  /// that already timed out.
  void join();

  GlobalSpace& space() noexcept { return space_; }
  const ShareStats& stats() const noexcept { return stats_; }
  std::uint32_t rank() const noexcept { return rank_; }
  std::uint32_t num_shards() const noexcept {
    return static_cast<std::uint32_t>(sessions_.size());
  }
  bool joined() const noexcept { return joined_; }
  /// True after retry exhaustion detached this remote (HomeUnreachable).
  bool detached() const noexcept { return detached_; }

  /// This remote's cached region→shard map (updated on WrongShard).
  const ShardMap& shard_map() const noexcept { return map_; }

  /// This remote's telemetry (null when the options' obs is disabled).
  obs::Telemetry* telemetry() noexcept { return telemetry_.get(); }
  /// Scrape: ship this node's metrics snapshot to shard 0, the directory's
  /// telemetry anchor (MetricsPull), and return the cluster-wide view it
  /// replies with (MetricsReport).  Sequenced + retried like every other
  /// request; a retransmitted pull is answered from the home's reply cache,
  /// so nothing is double-counted.
  obs::ClusterTelemetry pull_cluster_metrics();

 private:
  struct Session {
    msg::EndpointPtr endpoint;
    RetryCore retry;
  };

  /// Bounded-hop routed request: route by the cached map, intercept
  /// WrongShard, install the fresher map, re-issue at the new owner.
  msg::Message routed_rpc(msg::Message req, msg::MsgType want);
  /// One request/reply exchange on shard `shard`: send `req` (stamped with
  /// the next sequence number) and wait for the matching `want` reply,
  /// retransmitting and reconnecting as the session's RetryCore decides.
  /// When `allow_redirect`, a WrongShard echoing this request's
  /// seq is returned to the caller instead of raising ProtocolError.
  msg::Message rpc(std::uint32_t shard, msg::Message req, msg::MsgType want,
                   bool allow_redirect);
  /// Drain every shard flagged in `mask` (and any shard a PendingReply
  /// flags in turn) via PendingPull — part of the acquire.
  void drain_pending(std::uint32_t mask);
  /// One release episode's payload: page mode diffs the tracked region,
  /// object mode packs the run_source's dirty-object runs for `region`.
  std::vector<std::byte> collect_episode(std::uint32_t region);
  void send_hello(std::uint32_t shard, bool resume);
  bool try_reconnect(std::uint32_t shard);
  void detach_self();
  void trace(TraceEvent::Kind kind, std::uint32_t sync_id, std::uint64_t req);

  GlobalSpace space_;
  ShareStats stats_;
  std::unique_ptr<obs::Telemetry> telemetry_;
  SyncEngine engine_;
  std::uint32_t rank_;
  /// One incarnation epoch for all sessions: to the home this is one
  /// logical rank, whichever shard a request reaches.
  std::uint32_t epoch_;
  ShardedRemoteOptions opts_;
  std::vector<Session> sessions_;
  ShardMap map_;
  /// One request sequence across every session: each shard sees a gapped
  /// but strictly increasing stream, and — crucial for redirect replay —
  /// the seqs a migrating region's reply cache is keyed by are totally
  /// ordered with the re-issued attempts' seqs (docs/SHARDING.md).
  std::uint32_t send_seq_ = 0;
  bool joined_ = false;
  bool detached_ = false;
};

}  // namespace hdsm::dsm
