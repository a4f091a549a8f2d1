#ifndef EPIDEMIC_RUNTIME_SCHEDULER_H_
#define EPIDEMIC_RUNTIME_SCHEDULER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/mpsc_queue.h"
#include "runtime/optimistic_lock.h"
#include "runtime/read_cache.h"
#include "runtime/task.h"

namespace epidemic::runtime {

/// Aggregated scheduler health counters (satellite: surfaced through
/// ReplicaServer::TotalStats and `epidemic_cli stats`).
struct SchedulerStats {
  struct Worker {
    uint64_t tasks_executed = 0;   // tasks drained by this owner thread
    uint64_t queue_depth_peak = 0; // max channel depth across owned shards
  };
  std::vector<Worker> workers;
  uint64_t inline_tasks = 0;       // tasks drained by caller threads
  uint64_t fast_path_runs = 0;     // Execute calls that ran without queuing
  uint64_t exclusive_barriers = 0; // ExecuteExclusive invocations
  /// Max channel depth across all shards (covers workers == 0 too).
  uint64_t queue_depth_peak = 0;
  uint64_t tasks_by_kind[kNumTaskKinds] = {};

  uint64_t TotalTasks() const {
    uint64_t n = inline_tasks;
    for (const Worker& w : workers) n += w.tasks_executed;
    return n;
  }
};

/// Single-writer shard scheduler: every shard is pinned to exactly one
/// owner and all mutation arrives over its bounded MPSC channel.
///
/// ## Ownership model
/// Each shard has a *gate* (a futex-style word lock on one atomic) and a
/// task channel. Whoever holds the gate is the shard's writer of the
/// moment and drains the channel in FIFO order; the gate is only ever
/// (a) try-locked, or (b) blocking-locked one-at-a-time / in ascending
/// shard order (ExecuteExclusive), so there is no lock-order cycle.
///
/// The invariant that makes the channel a real handoff rather than a
/// mailbox nobody checks: **a gate holder drains the channel to empty,
/// releases, and re-checks** — if the channel refilled and the gate is
/// free, the releaser re-acquires and drains again. Combined with
/// producers that try the gate once after pushing, every pushed task is
/// executed by *someone* without any thread needing to be woken. Owner
/// worker threads add parallelism on multi-core hosts; they are not
/// needed for progress, which is what keeps the 1-core configuration at
/// striped-lock speed instead of paying a context switch per operation.
///
/// ## Execution modes
/// - workers > 0: shard k is owned by thread k % workers; producers
///   signal the owner after batch fan-out, and still execute inline when
///   they win the gate (flat combining).
/// - workers == 0: callers do all the work inline behind the gates —
///   semantically the striped-lock configuration, minus lock convoys.
/// - manual: no threads are ever created and nothing parks; work is
///   queued with Post/Execute and run by explicit PumpAll/PumpShard
///   steps in ascending shard order. This is the deterministic pump the
///   model checker (src/check) drives — same scheduler code, zero
///   entropy, zero wall clocks.
///
/// Tasks must not re-enter the scheduler (no Execute/ExecuteBatch/
/// ExecuteExclusive from inside a task): the caller may already hold the
/// task's gate, and nested acquisition would deadlock. Enforced statically
/// by epilint_ast's `scheduler-reentry` rule (tools/epilint_ast.py).
///
/// Mutating tasks are bracketed by the shard's OptimisticVersion, which
/// invalidates the lock-free read path (read_cache.h) in one increment.
class ShardScheduler {
 public:
  struct Options {
    size_t num_shards = 1;
    /// Owner threads. 0 = inline mode (callers drain behind the gates).
    /// Clamped to num_shards.
    size_t workers = 0;
    /// Deterministic mode: no threads, no parking; run via PumpAll.
    bool manual = false;
    /// Per-shard channel capacity (rounded up to a power of two).
    size_t channel_capacity = 256;
    /// Per-shard optimistic read-cache slots (0 disables the cache).
    size_t read_cache_slots = 256;
    /// MutationEpoch() before the first mutation; must be nonzero. A
    /// server draws it per incarnation, so that a peer's epoch cached from
    /// an earlier run of the same node does not match (see MutationEpoch).
    uint64_t first_epoch = 1;
  };

  explicit ShardScheduler(Options options);
  ~ShardScheduler();

  ShardScheduler(const ShardScheduler&) = delete;
  ShardScheduler& operator=(const ShardScheduler&) = delete;

  size_t num_shards() const { return num_shards_; }
  size_t num_workers() const { return workers_.size(); }
  bool manual() const { return options_.manual; }

  /// Runs `fn` inside shard `shard`'s single-writer section and returns
  /// after it executed. Fast path: win the gate, drain, run inline. Slow
  /// path: enqueue and either help drain or park until the holder runs
  /// it. In manual mode this pumps the shard synchronously (deterministic).
  void Execute(size_t shard, TaskKind kind, bool mutates,
               const std::function<void(const ShardToken&)>& fn);

  /// Queues `fn` without waiting for it. In manual mode the task stays
  /// queued until the next Pump step; otherwise the owner (or the next
  /// gate holder) runs it.
  void Post(size_t shard, TaskKind kind, bool mutates,
            std::function<void(const ShardToken&)> fn);

  /// Fan-out/join: enqueues every item to its shard's channel, wakes the
  /// owners once, helps drain, and returns when all items have executed.
  /// One anti-entropy round is S tasks, not S lock acquisitions.
  struct BatchItem {
    size_t shard = 0;
    TaskKind kind = TaskKind::kOther;
    bool mutates = false;
    std::function<void(const ShardToken&)> fn;
  };
  void ExecuteBatch(std::vector<BatchItem> items);

  /// Indexed fan-out/join: runs `fn(token, i)` inside `shards[i]`'s
  /// single-writer section for every i, with one kind/mutates for the
  /// whole batch. Semantically ExecuteBatch over per-item closures, but
  /// the anti-entropy hot loop builds no closure per segment: on the
  /// single-hardware-thread inline path it allocates nothing at all, and
  /// the queued paths wrap only (&fn, i) — small enough for std::function
  /// to store in place.
  void ExecuteBatchIndexed(
      const std::vector<size_t>& shards, TaskKind kind, bool mutates,
      const std::function<void(const ShardToken&, size_t)>& fn);

  /// Cross-shard barrier, the AllShardsLock replacement: acquires every
  /// gate in ascending order (draining each channel on the way, so queued
  /// work is ordered before the barrier), runs `fn` while owning all
  /// shards, then releases in descending order. `fn` receives an
  /// ExclusiveToken proving it owns every shard's single-writer section
  /// (assert it via AssertShardContext to call REQUIRES_SHARD_CONTEXT
  /// methods); use sparingly (stats, snapshots, reset).
  void ExecuteExclusive(bool mutates,
                        const std::function<void(const ExclusiveToken&)>& fn);

  /// Deterministic step functions (any mode, required for manual mode):
  /// run queued tasks shard-by-shard in ascending order until a full
  /// sweep finds every channel empty. Returns tasks executed.
  size_t PumpAll();
  size_t PumpShard(size_t shard);

  /// Optimistic read support. Readers sample, read published data, then
  /// validate; see read_cache.h for the staleness discipline.
  uint64_t ReadVersion(size_t shard) const {
    return shards_[shard].version.ReadBegin();
  }
  bool ValidateVersion(size_t shard, uint64_t sample) const {
    return shards_[shard].version.Validate(sample);
  }
  /// nullptr when the cache is disabled.
  ShardReadCache* read_cache(size_t shard) const {
    return shards_[shard].cache.get();
  }
  /// Current (even outside mutation brackets) version for stamping cache
  /// publishes; requires the caller to be inside the shard's section.
  uint64_t CurrentVersion(const ShardToken& token) const {
    return shards_[token.shard()].version.Current();
  }

  /// Global mutation epoch: incremented by every mutating task (and every
  /// mutating exclusive barrier) before its effects publish. Since shard
  /// state only changes inside mutating sections — the single-writer
  /// discipline — an unchanged epoch proves the whole database is
  /// unchanged, which is what makes the anti-entropy epoch probe sound
  /// (an O(1) "anything new since my last pull?" check). Starts at
  /// Options::first_epoch, never 0, so 0 can serve as a "never sampled"
  /// sentinel. Only this incarnation's mutations are counted, so epochs
  /// are comparable across restarts only if the first one differs.
  uint64_t MutationEpoch() const {
    // relaxed: conservative-not-lossy probe — the epoch is sampled BEFORE
    // serving, so a stale read only causes an extra propagation round,
    // never a missed update (DESIGN.md §11).
    return mutation_epoch_.load(std::memory_order_relaxed);
  }

  /// True when tasks can actually run on other threads (owner workers
  /// exist and the host has >1 hardware thread). When false, callers may
  /// prefer shard-at-a-time Execute loops over batch fan-out: there is no
  /// parallelism to lose, and sequential execution lets them share
  /// caller-local state across tasks (e.g. encoding every serve segment
  /// into one response frame).
  bool Parallel() const { return parallel_; }

  SchedulerStats Stats(bool reset = false) const;

 private:
  /// Futex-style word lock: 0 free, 1 held, 2 held with waiters. Not an
  /// epidemic::Mutex on purpose — the runtime's locking discipline is
  /// gates + channels, and protocol_lint bans mutexes on shard state.
  struct Gate {
    std::atomic<uint32_t> state{0};
    bool TryLock() {
      uint32_t expected = 0;
      // relaxed: failure order — a failed try-lock publishes nothing and
      // reads nothing the caller acts on beyond "gate busy".
      return state.compare_exchange_strong(expected, 1,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed);
    }
    void Lock();
    void Unlock() {
      if (state.exchange(0, std::memory_order_release) == 2) {
        state.notify_one();
      }
    }
  };

  struct Shard {
    Gate gate;
    std::unique_ptr<MpscQueue<Task>> channel;
    OptimisticVersion version;
    std::unique_ptr<ShardReadCache> cache;
    /// Peak channel depth observed at push time (relaxed max).
    std::atomic<uint64_t> depth_peak{0};
  };

  struct WorkerState {
    std::thread thread;
    /// Wake epoch: bumped+notified by producers that want the owner to
    /// look at its shards. The worker re-reads it before parking, so a
    /// bump between scan and wait is never lost.
    std::atomic<uint64_t> signal{0};
    std::atomic<uint64_t> tasks_executed{0};
  };

  static ShardToken Token(size_t shard) { return ShardToken(shard); }

  size_t OwnerOf(size_t shard) const { return shard % workers_.size(); }

  /// REQUIRES: gate held. Pops and runs tasks until the channel reports
  /// empty; attributes them to `executed_counter`.
  size_t DrainLocked(size_t shard, std::atomic<uint64_t>* executed_counter);

  /// REQUIRES: gate held and channel drained. Releases the gate, then
  /// re-checks the channel: if it refilled and the gate is free, this
  /// thread re-acquires and drains again, so no task is stranded behind
  /// a free gate.
  void DrainAndUnlock(size_t shard, std::atomic<uint64_t>* executed_counter);

  /// Pushes with backpressure: on a full channel, helps drain (if the
  /// gate is free) or parks until the consumer makes space.
  void PushWithBackpressure(size_t shard, Task task);

  void RunTask(size_t shard, Task& task);
  void WakeOwner(size_t shard);
  void WorkerLoop(size_t worker_index);

  Options options_;
  std::unique_ptr<Shard[]> shards_;  // atomics inside: fixed-place storage
  size_t num_shards_ = 0;
  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::atomic<bool> stop_{false};
  /// True when owner threads exist *and* the host has >1 hardware thread;
  /// gates/futexes only pay for notification when it can actually help.
  bool parallel_ = false;

  std::atomic<uint64_t> mutation_epoch_;
  mutable std::atomic<uint64_t> inline_tasks_{0};
  mutable std::atomic<uint64_t> fast_path_runs_{0};
  mutable std::atomic<uint64_t> exclusive_barriers_{0};
  mutable std::atomic<uint64_t> tasks_by_kind_[kNumTaskKinds] = {};
};

}  // namespace epidemic::runtime

#endif  // EPIDEMIC_RUNTIME_SCHEDULER_H_
