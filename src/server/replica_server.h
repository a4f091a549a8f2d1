#ifndef EPIDEMIC_SERVER_REPLICA_SERVER_H_
#define EPIDEMIC_SERVER_REPLICA_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/buffer_pool.h"
#include "common/clock.h"
#include "common/thread_annotations.h"
#include "core/conflict.h"
#include "core/journal.h"
#include "core/replica.h"
#include "core/sharded_replica.h"
#include "core/wire.h"
#include "net/transport.h"
#include "runtime/scheduler.h"

namespace epidemic::server {

/// Thread-safe conflict listener: shards report conflicts concurrently, so
/// the server records them under a private mutex and lets callers drain.
class LockedConflictListener : public ConflictListener {
 public:
  void OnConflict(const ConflictEvent& event) override EXCLUDES(mu_) {
    MutexLock lock(mu_);
    events_.push_back(event);
  }

  /// Removes and returns everything recorded so far.
  std::vector<ConflictEvent> Take() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return std::exchange(events_, {});
  }

  size_t count() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return events_.size();
  }

 private:
  mutable Mutex mu_;
  std::vector<ConflictEvent> events_ GUARDED_BY(mu_);
};

/// A deployable replica node: wraps a core::ShardedReplica behind a
/// single-writer shard scheduler (runtime/scheduler.h), serves protocol and
/// client RPCs as a net::RequestHandler, and (optionally) runs a background
/// anti-entropy thread that periodically pulls updates from its peers in
/// round-robin order — the "separate activity" of the epidemic model (§1).
///
/// Concurrency model (DESIGN.md §11): there are no shard mutexes. Every
/// shard is pinned to one owner and all access to it runs as tasks inside
/// its single-writer section; the `runtime::ShardToken` a task receives is
/// the REQUIRES-style capability proving it. User operations and
/// single-shard protocol steps are one task on one shard; a sharded
/// anti-entropy exchange fans S tasks out to the owners and joins
/// (ExecuteBatch) instead of taking S locks; whole-database operations
/// (stats, WithReplica) run under the scheduler's cross-shard barrier
/// (ExecuteExclusive), which replaced the old AllShardsLock — and with it
/// the codebase's last NO_THREAD_SAFETY_ANALYSIS escape. Reads go through
/// a lock-free optimistic path (seqlock version + per-shard read cache)
/// and fall back to a task only on miss or version churn. No shard is ever
/// held across a transport call, so two servers pulling from each other
/// cannot deadlock.
class ReplicaServer : public net::RequestHandler {
 public:
  struct Options {
    /// Peers this node pulls from, visited round-robin. Usually all other
    /// nodes, or the ring successor for a ring schedule.
    std::vector<NodeId> peers;

    /// Background pull period; 0 disables the thread (pull manually via
    /// PullFrom).
    TimeMicros anti_entropy_interval_micros = 0;

    /// Durable servers: checkpoint (snapshot + journal truncation) roughly
    /// this often, piggybacked on the anti-entropy thread. 0 = only on
    /// explicit Checkpoint() calls.
    TimeMicros checkpoint_interval_micros = 0;

    /// Shard count for the in-memory constructor (ignored by the durable
    /// one, where JournaledShardedReplica::Open fixes it). Every node of a
    /// cluster must agree.
    size_t num_shards = ShardedReplica::kDefaultShards;

    /// Shard-owner worker threads for the scheduler; 0 means callers run
    /// every task inline behind the per-shard gates (still correct, no
    /// extra threads).
    size_t ae_workers = 0;

    /// Per-shard optimistic read-cache slots (0 disables the lock-free
    /// read path; reads then always run as shard tasks).
    size_t read_cache_slots = 256;

    /// Speak wire v3 (tags 17/18: delta-encoded IVVs, indexed tails,
    /// zero-copy serve/accept, pooled buffers — DESIGN.md §10). Pulls try
    /// v3 first and fall back per peer when the v3 handshake is rejected
    /// (the sticky per-peer cache remembers). When false the server
    /// emulates a pre-v3 node: it neither sends v3 nor serves v3 requests
    /// (they get the same error reply an old binary's codec would send),
    /// which is what mixed-version interop tests key off.
    bool enable_wire_v3 = true;

    /// With v3: advertise in the handshake that this node accepts
    /// LZ77-compressed segment bodies (kPropFlagAcceptCompressed).
    bool accept_compressed_segments = false;
  };

  /// In-memory server. `transport` must outlive the server.
  ReplicaServer(NodeId id, size_t num_nodes, net::Transport* transport,
                Options options);

  /// Durable server over recovered journaled shards (core/journal.h):
  /// every mutating input is journaled to its shard, and `Checkpoint()`
  /// snapshots + truncates per shard. Create the state with
  /// JournaledShardedReplica::Open. Conflicts flow through the listener
  /// given to Open (pass a LockedConflictListener you own if you need
  /// them); this server's TakeConflicts sees only in-memory-mode events.
  ReplicaServer(std::unique_ptr<JournaledShardedReplica> durable,
                net::Transport* transport, Options options);

  ~ReplicaServer() override;

  ReplicaServer(const ReplicaServer&) = delete;
  ReplicaServer& operator=(const ReplicaServer&) = delete;

  /// Starts the background anti-entropy thread (no-op if the interval is 0).
  void Start() EXCLUDES(thread_mu_);

  /// Stops and joins the background thread. Safe to call repeatedly.
  void Stop() EXCLUDES(thread_mu_);

  // -------------------------------------------------------------------
  // RPC server side.

  /// Decodes one request frame, dispatches it to the replica, and returns
  /// the encoded reply. Unknown/undecodable input yields an encoded
  /// error ClientReply. (Wraps HandleRequestV — the vectored form is the
  /// real dispatcher, so every transport exercises the same paths.)
  std::string HandleRequest(std::string_view request) override;

  /// Vectored dispatch: v3 propagation serves produce the reply as pieces
  /// (envelope + pooled per-shard chunks, or a replayed cached frame) that
  /// a vectored transport writes without assembling a contiguous string;
  /// every other message type replies as one owned piece.
  void HandleRequestV(std::string_view request,
                      net::VectoredReply* reply) override;

  // -------------------------------------------------------------------
  // Local (thread-safe) API.

  Status Update(std::string_view item, std::string_view value);
  Status Delete(std::string_view item);
  Result<std::string> Read(std::string_view item);
  Status ResolveConflict(std::string_view item, const VersionVector& remote_vv,
                         std::string_view value);
  std::vector<std::pair<std::string, std::string>> Scan(
      std::string_view prefix, size_t limit = 0) const;
  std::string Stats() const;

  /// Atomic read of the aggregated protocol counters (taken under the
  /// cross-shard barrier); optionally resets them in the same critical
  /// section. Scheduler health counters (tasks executed, queue-depth
  /// peak) ride along in the sched_* fields.
  ReplicaStats TotalStats(bool reset = false);

  /// One anti-entropy exchange pulling from `peer` over the transport —
  /// all shards in one round trip, unchanged shards skipped by the peer.
  /// Pulls at one node run one at a time (the anti-entropy thread and any
  /// number of `sync` requests), each over the previous one's result.
  Status PullFrom(NodeId peer) EXCLUDES(pull_mu_);

  /// Out-of-bound fetch of `item` from `peer` over the transport (§5.2).
  Status OobFetch(NodeId peer, std::string_view item);

  /// Runs `fn` with every shard owned (a consistent whole-database view)
  /// — for inspection in tests/examples.
  void WithReplica(const std::function<void(const ShardedReplica&)>& fn) const;

  /// Drains conflicts recorded since the last call.
  std::vector<ConflictEvent> TakeConflicts() { return listener_.Take(); }

  /// Durable servers only: snapshot + journal truncation, shard by shard.
  /// For in-memory servers returns FailedPrecondition.
  Status Checkpoint();

  bool is_durable() const { return durable_ != nullptr; }

  NodeId id() const { return id_; }
  size_t num_shards() const { return sharded().num_shards(); }
  uint64_t conflicts_detected() const;

  /// Scheduler health, as surfaced through `epidemic_cli stats`.
  runtime::SchedulerStats SchedulerHealth() const {
    return sched_->Stats(false);
  }
  uint64_t optimistic_read_hits() const {
    // relaxed: monotonic stats counter; no payload is ordered behind it.
    return optimistic_read_hits_.load(std::memory_order_relaxed);
  }

 private:
  void AntiEntropyLoop() EXCLUDES(thread_mu_);

  Status PullFromLocked(NodeId peer) REQUIRES(pull_mu_);

  /// The sharded state, durable or in-memory. Per-shard access requires
  /// being inside that shard's single-writer section (hold a ShardToken
  /// for it).
  ShardedReplica& sharded() { return durable_ ? durable_->view() : *memory_; }
  const ShardedReplica& sharded() const {
    return durable_ ? durable_->view() : *memory_;
  }

  /// Serves a sharded handshake: every shard builds and encodes its
  /// segment inside its own single-writer section, fanned out as one
  /// scheduler batch.
  ShardedPropagationResponse ServeShardedPropagation(
      const ShardedPropagationRequest& req);

  /// Serial-scheduler fast path of the serve: encodes every stale shard's
  /// v3 segment as one self-contained piece ([shard varint][padded length
  /// slot][body]) in a pooled buffer inside that shard's single-writer
  /// section, plus a backpatched envelope piece in front — no per-segment
  /// staging buffers and no segment→frame stitch copy (a vectored
  /// transport sends the pieces as-is; Flatten() reproduces the exact
  /// frame bytes of the contiguous encoder for everything else). Only
  /// valid when the scheduler is not parallel — the shard-at-a-time
  /// Execute loop serializes the tasks — and only for uncompressed v3
  /// replies. Fills `parts`; parts[0] is the envelope (tag byte included).
  void ServeShardedPropagationPartsV3(const ShardedPropagationRequest& req,
                                      std::vector<std::string>* parts);

  /// Fan-out serve cache. A full v3 serve's reply is a pure function of
  /// (request flags + shard DBVVs, scheduler mutation epoch): the epoch is
  /// bumped by every mutating task, so equal epochs mean bytewise-equal
  /// replies. When N peers pull the same tail from a quiescent node, the
  /// first request encodes it and the other N-1 replay the cached pieces.
  /// Entries are immutable once published (shared_ptr<const>); the cache
  /// is direct-mapped by digest and invalidated by epoch mismatch.
  struct CachedServeFrame {
    uint64_t digest = 0;
    uint64_t epoch = 0;
    std::vector<std::string> parts;
  };

  /// FNV-1a over the serve-relevant request fields: flags, shard count,
  /// every shard DBVV entry. The requester id is deliberately excluded —
  /// the reply bytes do not depend on it (see the §4.1 frontier note at
  /// the lookup site).
  static uint64_t ServeDigest(const ShardedPropagationRequest& req);

  /// On hit, points `reply` at the cached pieces and returns true.
  bool LookupServeCache(uint64_t digest, uint64_t epoch,
                        net::VectoredReply* reply) EXCLUDES(serve_cache_mu_);
  void InsertServeCache(std::shared_ptr<const CachedServeFrame> entry)
      EXCLUDES(serve_cache_mu_);

  /// Applies a sharded response: every segment decoded and accepted as a
  /// task on its shard (journaled when durable), fanned out as one batch.
  Status AcceptShardedPropagation(const ShardedPropagationResponse& resp);

  /// Shared core of the accept path: segment bodies are borrowed views —
  /// into an owned response, or directly into the received wire frame
  /// (PullFrom's zero-copy v3 path). The backing must outlive the call.
  Status AcceptShardedSegments(uint32_t num_shards,
                               const std::vector<wire::ShardedSegmentView>& segments,
                               bool v3);

  /// Appends the scheduler/optimistic-read health line to a stats summary.
  void AppendSchedulerSummary(std::string* out) const;

  /// Appends the transport + serve-cache lines ("net: ...",
  /// "serve_cache: ...") to a stats summary, optionally resetting the
  /// underlying counters in the same pass.
  void AppendNetSummary(std::string* out, bool reset) const;

  /// The cached [0, S) index list the all-shard batches fan out over;
  /// built once so the anti-entropy hot loop never re-materializes it.
  const std::vector<size_t>& AllShardsList() const { return all_shards_; }
  void InitShardList() {
    all_shards_.resize(sched_->num_shards());
    for (size_t k = 0; k < all_shards_.size(); ++k) all_shards_[k] = k;
  }

  NodeId id_;
  net::Transport* transport_;
  Options options_;

  LockedConflictListener listener_;
  std::unique_ptr<ShardedReplica> memory_;              // in-memory mode
  std::unique_ptr<JournaledShardedReplica> durable_;    // durable mode

  /// Single-writer shard runtime. Declared after the replica state so it
  /// is destroyed (and drained) first — tasks capture `sharded()`.
  std::unique_ptr<runtime::ShardScheduler> sched_;
  std::vector<size_t> all_shards_;

  /// Reads served lock-free from the optimistic cache (never entered a
  /// shard section). Folded into TotalStats().reads.
  mutable std::atomic<uint64_t> optimistic_read_hits_{0};

  /// Recycles v3 segment and compression buffers across exchanges
  /// (internally synchronized; shared by all shard tasks).
  BufferPool buffer_pool_;

  /// Sticky per-peer wire-version cache for PullFrom: 0 = unknown (try
  /// v3), kWireV2 after a peer rejected the v3 handshake, kWireV3 after
  /// one succeeded. Lock-free — a stale read only costs one extra
  /// fallback round trip.
  std::unique_ptr<std::atomic<uint8_t>[]> peer_wire_;
  size_t peer_wire_count_ = 0;
  /// Last mutation epoch observed per peer (0 = never pulled). Lets
  /// PullFrom open with an O(1) epoch probe instead of the full per-shard
  /// DBVV handshake; a stale value only costs one resend round trip.
  std::unique_ptr<std::atomic<uint64_t>[]> peer_epoch_;

  /// Fan-out serve cache slots (direct-mapped by digest). Entries are
  /// immutable; the mutex only guards the slot pointers, never the bytes,
  /// so a hit costs one lock/shared_ptr copy and replays concurrently
  /// with other senders.
  static constexpr size_t kServeCacheSlots = 8;
  mutable Mutex serve_cache_mu_;
  std::shared_ptr<const CachedServeFrame> serve_cache_[kServeCacheSlots]
      GUARDED_BY(serve_cache_mu_);
  mutable std::atomic<uint64_t> serve_cache_hits_{0};
  mutable std::atomic<uint64_t> serve_cache_misses_{0};

  /// Serializes PullFrom: an overlapping pull would hand the replica
  /// tails that the other pull's accept has already moved below its DBVV.
  Mutex pull_mu_;

  Mutex thread_mu_;
  std::condition_variable_any cv_;
  bool stopping_ GUARDED_BY(thread_mu_) = false;
  bool started_ GUARDED_BY(thread_mu_) = false;
  std::thread ae_thread_;
};

/// Blocking client for a ReplicaServer reachable through a transport.
class ReplicaClient {
 public:
  /// Talks to node `server` via `transport` (not owned).
  ReplicaClient(net::Transport* transport, NodeId server)
      : transport_(transport), server_(server) {}

  Status Update(std::string_view item, std::string_view value);
  Status Delete(std::string_view item);
  Result<std::string> Read(std::string_view item);

  /// Lists live items by name prefix (`limit` 0 = unlimited).
  Result<std::vector<std::pair<std::string, std::string>>> Scan(
      std::string_view prefix, uint64_t limit = 0);

  /// Fetches the server's one-line status summary.
  Result<std::string> Stats();

  /// Atomically reads-and-resets the server's counters; returns the
  /// summary rendered at the moment of the reset.
  Result<std::string> ResetStats();

  /// Admin: makes the server pull from `peer` right now.
  Status TriggerSync(NodeId peer);

  /// Admin: makes a durable server checkpoint right now.
  Status TriggerCheckpoint();

  /// Asks the server to out-of-bound-fetch `item` from `from_peer` first,
  /// then returns the (fresh) value — a priority read.
  Result<std::string> OobRead(NodeId from_peer, std::string_view item);

 private:
  net::Transport* transport_;
  NodeId server_;
};

}  // namespace epidemic::server

#endif  // EPIDEMIC_SERVER_REPLICA_SERVER_H_
