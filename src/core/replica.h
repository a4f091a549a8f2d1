#ifndef EPIDEMIC_CORE_REPLICA_H_
#define EPIDEMIC_CORE_REPLICA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/conflict.h"
#include "core/messages.h"
#include "log/aux_log.h"
#include "log/log_vector.h"
#include "storage/item_store.h"
#include "vv/version_vector.h"

namespace epidemic {

/// Per-replica protocol counters, primarily for the benchmark harness.
/// "Work" counters (records examined, IVV comparisons) directly measure the
/// complexity claims of §6.
struct ReplicaStats {
  // Anti-entropy.
  uint64_t propagation_requests_served = 0;
  uint64_t you_are_current_replies = 0;
  uint64_t dbvv_comparisons = 0;
  uint64_t log_records_selected = 0;  // records placed into tails D_k
  uint64_t items_shipped = 0;         // |S| across all replies served
  uint64_t item_ivv_comparisons = 0;  // per-item comparisons at recipient
  uint64_t items_adopted = 0;
  uint64_t redundant_items_received = 0;  // received copy equal to local
  uint64_t records_appended = 0;          // AddLogRecord calls at recipient

  // Conflicts.
  uint64_t conflicts_detected = 0;
  uint64_t conflicts_resolved = 0;  // via ResolveConflict

  // User operations.
  uint64_t updates_regular = 0;
  uint64_t updates_aux = 0;
  uint64_t reads = 0;

  // Out-of-bound machinery.
  uint64_t oob_requests_served = 0;
  uint64_t oob_copies_adopted = 0;
  uint64_t oob_copies_ignored = 0;  // received copy was not newer
  uint64_t aux_copies_created = 0;
  uint64_t aux_copies_discarded = 0;
  uint64_t intra_node_ops_applied = 0;

  // Wire hot path (v3, DESIGN.md §10): per-exchange allocation
  // accounting. A "staging alloc" is one owned std::string materialized
  // between the protocol endpoints and the store — the serve counter
  // charges the owned SendPropagation pipeline (name + value per shipped
  // item, name per tail record), the accept counter its mirror image on
  // the receive side. The zero-copy view pipeline leaves both at zero:
  // names and values travel as views and are copied exactly once, into
  // the store. The benches report these as allocs/exchange.
  uint64_t serve_staging_allocs = 0;
  uint64_t accept_staging_allocs = 0;

  // Shard-scheduler health (runtime/scheduler.h). Filled by the server
  // layer when aggregating (a single Replica has no scheduler): total
  // tasks executed across owners/inline callers, and the peak MPSC
  // channel depth observed — the back-pressure signal.
  uint64_t sched_tasks_executed = 0;
  uint64_t sched_queue_depth_peak = 0;

  // Network pipeline (server layer; a bare Replica has no transport).
  // The net_* fields mirror net::TransportStats for this node's client
  // side — persistent-connection accounting (opened vs reused is the
  // connection-churn signal). The serve_cache_* pair counts the fan-out
  // serve cache: a hit replayed an already-encoded propagation frame to
  // another peer asking for the same tail at the same mutation epoch.
  uint64_t net_calls = 0;
  uint64_t net_connections_opened = 0;
  uint64_t net_connections_reused = 0;
  uint64_t net_reconnects = 0;
  uint64_t net_backoff_skips = 0;
  uint64_t net_bytes_sent = 0;
  uint64_t net_bytes_received = 0;
  uint64_t serve_cache_hits = 0;
  uint64_t serve_cache_misses = 0;

  /// Component-wise sum, used to aggregate counters across shards.
  void Accumulate(const ReplicaStats& o) {
    propagation_requests_served += o.propagation_requests_served;
    you_are_current_replies += o.you_are_current_replies;
    dbvv_comparisons += o.dbvv_comparisons;
    log_records_selected += o.log_records_selected;
    items_shipped += o.items_shipped;
    item_ivv_comparisons += o.item_ivv_comparisons;
    items_adopted += o.items_adopted;
    redundant_items_received += o.redundant_items_received;
    records_appended += o.records_appended;
    conflicts_detected += o.conflicts_detected;
    conflicts_resolved += o.conflicts_resolved;
    updates_regular += o.updates_regular;
    updates_aux += o.updates_aux;
    reads += o.reads;
    oob_requests_served += o.oob_requests_served;
    oob_copies_adopted += o.oob_copies_adopted;
    oob_copies_ignored += o.oob_copies_ignored;
    aux_copies_created += o.aux_copies_created;
    aux_copies_discarded += o.aux_copies_discarded;
    intra_node_ops_applied += o.intra_node_ops_applied;
    serve_staging_allocs += o.serve_staging_allocs;
    accept_staging_allocs += o.accept_staging_allocs;
    sched_tasks_executed += o.sched_tasks_executed;
    sched_queue_depth_peak =
        sched_queue_depth_peak > o.sched_queue_depth_peak
            ? sched_queue_depth_peak
            : o.sched_queue_depth_peak;
    net_calls += o.net_calls;
    net_connections_opened += o.net_connections_opened;
    net_connections_reused += o.net_connections_reused;
    net_reconnects += o.net_reconnects;
    net_backoff_skips += o.net_backoff_skips;
    net_bytes_sent += o.net_bytes_sent;
    net_bytes_received += o.net_bytes_received;
    serve_cache_hits += o.serve_cache_hits;
    serve_cache_misses += o.serve_cache_misses;
  }
};

/// A node's replica of the database, implementing the paper's protocol (§5).
///
/// The replica owns the four regular data structures —
///   * the item store (values + IVVs + control state),
///   * the database version vector V_i (§4.1),
///   * the log vector L_i (§4.2),
/// plus the auxiliary structures (auxiliary copies/IVVs inside items and the
/// auxiliary log AUX_i, §4.3–4.4).
///
/// Anti-entropy between replicas i (recipient) and j (source) is a
/// request/response exchange:
///
///   PropagationRequest req = i.BuildPropagationRequest();
///   PropagationResponse resp = j.HandlePropagationRequest(req);
///   i.AcceptPropagation(resp);              // adopts + intra-node replay
///
/// or, in-process, `PropagateOnce(j, i)`.
///
/// Thread-compatibility: a Replica is confined to one writer at a time;
/// all methods are non-blocking and never throw. The class deliberately
/// owns no mutex — serialization comes from the owner that drives it: the
/// shard-owned task runtime (runtime/scheduler.h) for shard replicas,
/// `multidb::MultiDbServer::mu_` for per-database ones, or plain
/// single-threaded confinement in tests and reference drivers. Every
/// mutating method carries REQUIRES_SHARD_CONTEXT, so under Clang
/// `-Wthread-safety` a library call chain can only reach one from inside a
/// scheduled task (or an audited single-owner escape) — DESIGN.md §12.
class Replica {
 public:
  /// `id` is this node's index in the fixed replica set of `num_nodes`
  /// servers (§2: the server set is fixed). `listener` may be null; if given
  /// it must outlive the replica.
  Replica(NodeId id, size_t num_nodes, ConflictListener* listener = nullptr);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  // ---------------------------------------------------------------------
  // User operations (§5.3).

  /// Applies a user update, writing `value` as the item's new contents.
  /// Uses the auxiliary copy when one exists, the regular copy otherwise.
  Status Update(std::string_view name, std::string_view value)
      REQUIRES_SHARD_CONTEXT;

  /// Deletes the item by writing a tombstone — an ordinary update whose
  /// state is "deleted", so it propagates (and conflicts) exactly like a
  /// value write. The control state persists; a later Update revives the
  /// item.
  Status Delete(std::string_view name) REQUIRES_SHARD_CONTEXT;

  /// User-facing read: auxiliary copy when present (it is never older than
  /// the regular copy), regular otherwise. NotFound for unknown or
  /// tombstoned items. Mutating in the capability sense: it bumps the read
  /// counter, so it still requires the shard context (the optimistic
  /// seqlock read path in the server bypasses this method entirely).
  Result<std::string> Read(std::string_view name) REQUIRES_SHARD_CONTEXT;

  /// Resolves a detected conflict on `name` by writing `value` as a new
  /// update that *supersedes both branches*: the item's IVV becomes the
  /// component-wise maximum of the local IVV and `remote_vv` (the vector
  /// reported in the ConflictEvent), plus this node's own increment. Once
  /// propagated, the resolution dominates every conflicting copy, so the
  /// conflict disappears system-wide.
  ///
  /// The paper leaves *choosing* the winning value to the application (§2);
  /// this is the mechanism that makes the choice stick. Fails with
  /// InvalidArgument unless `remote_vv` genuinely conflicts with the local
  /// regular copy, and with FailedPrecondition while the item is
  /// out-of-bound (resolve after the auxiliary copy retires).
  Status ResolveConflict(std::string_view name,
                         const VersionVector& remote_vv,
                         std::string_view value) REQUIRES_SHARD_CONTEXT;

  /// Lists live (non-tombstoned) items whose name starts with `prefix`,
  /// sorted by name, with their user-visible values. `limit` 0 = no limit.
  /// O(N log N) — a convenience for clients and tools, not a protocol op.
  std::vector<std::pair<std::string, std::string>> Scan(
      std::string_view prefix, size_t limit = 0) const;

  // ---------------------------------------------------------------------
  // Update propagation (§5.1).

  /// Step (1): the DBVV handshake message this node sends when it wants to
  /// pull updates from a source.
  PropagationRequest BuildPropagationRequest() const;

  /// SendPropagation (Fig. 2), executed at the source. Detects in O(1)
  /// (one DBVV comparison) that the requester is current; otherwise builds
  /// the tail vector D and item set S in time O(m) where m = items shipped,
  /// using the IsSelected flags (§6). This owned form materializes one
  /// string per name/value — the staged pipeline; the wire-v3 serve path
  /// uses HandlePropagationView instead.
  PropagationResponse HandlePropagationRequest(const PropagationRequest& req)
      REQUIRES_SHARD_CONTEXT;

  /// Zero-copy SendPropagation (Fig. 2): identical protocol decisions and
  /// bookkeeping, but the returned response *borrows* — names and values
  /// are views into this replica's store, IVVs are pointers at live item
  /// IVVs, and the vectors live in a scratch area reused across
  /// exchanges (so steady-state serving allocates nothing, and a
  /// you-are-current reply constructs nothing at all). The view is valid
  /// until this replica is next mutated or serves another request; the
  /// caller must finish encoding/applying it before releasing the lock
  /// that serializes this replica (DESIGN.md §10). Tail records carry
  /// `item_index` into S, ready for the v3 segment encoder.
  const PropagationResponseView& HandlePropagationView(
      const PropagationRequest& req) REQUIRES_SHARD_CONTEXT;

  /// AcceptPropagation (Fig. 3) followed by IntraNodePropagation (Fig. 4)
  /// over the items copied, executed at the recipient. The owned form
  /// wraps the view form below.
  Status AcceptPropagation(const PropagationResponse& resp)
      REQUIRES_SHARD_CONTEXT;

  /// Zero-copy AcceptPropagation: applies a borrowed response (views into
  /// a decode buffer or a peer replica's store). Each adopted name/value
  /// is copied exactly once, into this store; nothing else is
  /// materialized. The backing storage only needs to stay alive for the
  /// duration of the call.
  Status AcceptPropagation(const PropagationResponseView& resp)
      REQUIRES_SHARD_CONTEXT;

  /// The read-only validation AcceptPropagation runs before touching any
  /// state: OK exactly when AcceptPropagation would accept `resp`. Width
  /// and duplicate checks on S; every tail an ordered suffix beyond our
  /// DBVV naming only items in S; no tail seq already held in L[k] by a
  /// different item. Time O(m + records of L[k] beyond DBVV[k]) — the
  /// forged-seq scan starts from the end of each origin log, never its
  /// head. Journaling callers run it before writing the record, so a
  /// rejected response never reaches the journal.
  Status ValidatePropagationResponse(const PropagationResponseView& resp) const;

  /// Runs the Fig. 4 intra-node propagation loop over every out-of-bound
  /// item, not just ones copied by the last exchange: replays auxiliary
  /// redo records whose pre-IVV matches the regular copy and retires
  /// auxiliary copies the regular copy has caught up with. Each replay is
  /// an ordinary local update with full §4.1 bookkeeping, so this is legal
  /// at any point between protocol steps; AcceptPropagation already runs
  /// the same loop for the items it copies. Returns the number of
  /// auxiliary operations replayed. Used by the model checker (epicheck)
  /// as an explicit schedule action and by callers that want auxiliary
  /// copies retired without waiting for the next exchange.
  size_t PumpIntraNode() REQUIRES_SHARD_CONTEXT;

  // ---------------------------------------------------------------------
  // Out-of-bound copying (§5.2).

  OobRequest BuildOobRequest(std::string_view name) const;

  /// Source side: replies with the auxiliary copy if it exists (never older
  /// than the regular one), else the regular copy.
  OobResponse HandleOobRequest(const OobRequest& req) REQUIRES_SHARD_CONTEXT;

  /// Recipient side: adopts the received copy as (new) auxiliary data if it
  /// strictly dominates the local user-visible copy; ignores it otherwise;
  /// reports a conflict when the IVVs are concurrent. Never touches the
  /// DBVV, the log vector, or existing auxiliary-log records.
  Status AcceptOobResponse(const OobResponse& resp) REQUIRES_SHARD_CONTEXT;

  // ---------------------------------------------------------------------
  // Introspection.

  NodeId id() const { return id_; }
  size_t num_nodes() const { return num_nodes_; }
  const VersionVector& dbvv() const { return dbvv_; }
  const ItemStore& items() const { return store_; }
  const LogVector& log_vector() const { return logs_; }
  const AuxLog& aux_log() const { return aux_log_; }
  const ReplicaStats& stats() const { return stats_; }
  void ResetStats() REQUIRES_SHARD_CONTEXT { stats_ = ReplicaStats{}; }

  /// Regular copy of an item (ignores auxiliary data); nullptr if absent.
  const Item* FindItem(std::string_view name) const {
    return store_.Find(name);
  }

  /// Human-readable one-stop summary: id, DBVV, item/log/aux counts, and
  /// the protocol counters. For operators and the stats RPC.
  std::string DebugString() const;

  // ---------------------------------------------------------------------
  // Stability tracking (extension).
  //
  // Every propagation request a peer sends us carries its DBVV, so this
  // node passively learns how far each peer has come. The component-wise
  // minimum over all peers' last-known DBVVs (and our own) is the
  // *stability frontier*: updates below it are known to be replicated
  // everywhere — safe to archive, compact, or physically purge offline.
  // Knowledge spreads only through direct requests, so the frontier is
  // conservative (it lags under schedules where some pair never talks).

  /// Last DBVV peer `j` presented to us (zero vector if never heard from).
  const VersionVector& LastKnownDbvvOf(NodeId j) const {
    return peer_dbvv_[j];
  }

  /// Component-wise minimum of every node's known DBVV.
  VersionVector StabilityFrontier() const;

  /// True when every update reflected in the item's regular copy is below
  /// the stability frontier.
  bool IsStable(const Item& item) const;

  /// Counts stable items and stable tombstones (purgable garbage).
  struct StabilityInfo {
    size_t stable_items = 0;
    size_t stable_tombstones = 0;
  };
  StabilityInfo CountStable() const;

  /// Checks the DBVV invariant `V_i[k] == Σ_x ivv_i(x)[k]` (§4.1), the
  /// log invariants (≤ 1 record per item per component, origin-ordered,
  /// P(x) back-pointers consistent), and the §5.2 auxiliary-structure
  /// invariants (the auxiliary IVV is never dominated by the regular one,
  /// redo records replay in origin order below the auxiliary IVV, the
  /// auxiliary log preserves append order). Returns OK or Internal with a
  /// description. The invariant oracle of the model checker (epicheck) and
  /// of tests; O(n·N).
  Status CheckInvariants() const;

  /// Deterministic, creation-order-independent serialization of the
  /// protocol state: DBVV, items sorted by name (value, tombstone, IVV,
  /// auxiliary copy), per-origin logs as (item name, seq) lists, and the
  /// auxiliary log in append order. Two replicas have equal canonical
  /// states iff they are indistinguishable to the protocol. Soft state —
  /// counters and the stability-tracking peer DBVVs, which influence no
  /// protocol decision — is deliberately excluded. Used by the model
  /// checker for state deduplication and convergence comparison.
  std::string CanonicalState() const;

 private:
  /// Shared implementation of Update/Delete (§5.3).
  Status ApplyUserWrite(std::string_view name, std::string_view value,
                        bool deleted) REQUIRES_SHARD_CONTEXT;

  /// AcceptPropagation's state changes (Fig. 3 steps 2-3 and Fig. 4) for a
  /// response ValidatePropagationResponse has passed. JournaledReplica
  /// validates, journals, then applies through this, so the journal holds
  /// only accepted responses and the live path validates once.
  void ApplyPropagation(const PropagationResponseView& resp)
      REQUIRES_SHARD_CONTEXT;

  /// Runs the Fig. 4 loop for one item that was copied by AcceptPropagation.
  void IntraNodePropagation(Item& item) REQUIRES_SHARD_CONTEXT;

  void ReportConflict(const Item& item, const VersionVector& remote,
                      ConflictSource source);

  friend class SnapshotCodec;  // snapshot.cc: serializes/restores privates
  friend class JournaledReplica;  // journal.cc: validate, journal, apply

  NodeId id_;
  size_t num_nodes_;
  ConflictListener* listener_;

  ItemStore store_;
  VersionVector dbvv_;
  LogVector logs_;
  AuxLog aux_log_;

  /// peer_dbvv_[j]: the DBVV node j presented in its most recent
  /// propagation request to us (stability tracking).
  std::vector<VersionVector> peer_dbvv_;

  /// Serve-side scratch reused across exchanges (DESIGN.md §10): the tail
  /// collection buffer, the selected-item list, the ItemId → S-index map
  /// (entries valid only while the item's IsSelected flag is up), and the
  /// response view handed out by HandlePropagationView. Capacities are
  /// retained, so steady-state serving does not touch the allocator.
  struct PropagationScratch {
    std::vector<LogRecord> tail_buf;
    std::vector<Item*> selected;
    std::vector<uint32_t> item_index;
    PropagationResponseView serve_view;
    PropagationResponseView accept_view;  // owned→view staging for accepts
  };
  PropagationScratch scratch_;

  ReplicaStats stats_;
};

/// Runs one full anti-entropy exchange pulling updates from `source` into
/// `recipient` (both in-process). Returns the number of items copied, or an
/// error status. Uses the staged (owned-string) pipeline — the historical
/// baseline the benches compare against.
Result<size_t> PropagateOnce(Replica& source, Replica& recipient)
    REQUIRES_SHARD_CONTEXT;

/// Same exchange over the zero-copy pipeline: the source's response view
/// (borrowing its store) is applied directly by the recipient, with no
/// intermediate owned strings. `source` and `recipient` must be distinct
/// replicas confined to the calling thread for the duration.
Result<size_t> PropagateOnceFast(Replica& source, Replica& recipient)
    REQUIRES_SHARD_CONTEXT;

}  // namespace epidemic

#endif  // EPIDEMIC_CORE_REPLICA_H_
