#include "runtime/scheduler.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/logging.h"

namespace epidemic::runtime {

// Futex word lock, the classic three-state scheme: a waiter always leaves
// the lock in state 2 when it acquires after parking, so the eventual
// unlock knows to notify. Only ExecuteExclusive and single-shard inline
// mode ever block here; everything else uses TryLock.
void ShardScheduler::Gate::Lock() {
  uint32_t c = 0;
  // relaxed: failure order — losing the CAS publishes nothing; the retry
  // path below re-reads with its own acquire exchange.
  if (state.compare_exchange_strong(c, 1, std::memory_order_acquire,
                                    std::memory_order_relaxed)) {
    return;
  }
  if (c != 2) c = state.exchange(2, std::memory_order_acquire);
  while (c != 0) {
    // relaxed: the wait is only a parking hint; the acquire exchange on
    // wake is what synchronizes with the releasing Unlock.
    state.wait(2, std::memory_order_relaxed);
    c = state.exchange(2, std::memory_order_acquire);
  }
}

ShardScheduler::ShardScheduler(Options options)
    : options_(options), mutation_epoch_(options.first_epoch) {
  EPI_CHECK(options_.first_epoch != 0) << "epoch 0 is the never-sampled mark";
  if (options_.num_shards == 0) options_.num_shards = 1;
  if (options_.manual) options_.workers = 0;
  options_.workers = std::min(options_.workers, options_.num_shards);

  num_shards_ = options_.num_shards;
  shards_ = std::make_unique<Shard[]>(num_shards_);
  for (size_t i = 0; i < num_shards_; ++i) {
    shards_[i].channel =
        std::make_unique<MpscQueue<Task>>(options_.channel_capacity);
    if (options_.read_cache_slots > 0) {
      shards_[i].cache =
          std::make_unique<ShardReadCache>(options_.read_cache_slots);
    }
  }

  // Owner notification is worth a futex syscall only when another core
  // can actually run the owner; on one hardware thread the inline/helper
  // paths do all the work and wakes would just burn syscalls.
  parallel_ =
      options_.workers > 0 && std::thread::hardware_concurrency() > 1;

  workers_.reserve(options_.workers);
  for (size_t w = 0; w < options_.workers; ++w) {
    workers_.push_back(std::make_unique<WorkerState>());
  }
  for (size_t w = 0; w < options_.workers; ++w) {
    workers_[w]->thread = std::thread([this, w] { WorkerLoop(w); });
  }
}

ShardScheduler::~ShardScheduler() {
  stop_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    w->signal.fetch_add(1, std::memory_order_release);
    w->signal.notify_all();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  // Leftover tasks (Post with no pump) still run, on the caller's thread:
  // destruction must not strand a queued completion.
  PumpAll();
}

void ShardScheduler::RunTask(size_t shard, Task& task) {
  Shard& sh = shards_[shard];
  const ShardToken token = Token(shard);
  // The task boundary: RunTask is only reached by the thread holding this
  // shard's gate inside a drain loop, so the body executes with the
  // shard-context capability. The assert makes that visible to Clang's
  // thread-safety analysis for the bracket code below; the task body
  // itself (a lambda, analyzed separately) re-asserts from its token.
  AssertShardContext(token);
  if (task.mutates) {
    // relaxed: the epoch probe is conservative-not-lossy (sampled before
    // serving); the seqlock WriteBegin below is the publishing fence.
    mutation_epoch_.fetch_add(1, std::memory_order_relaxed);
    sh.version.WriteBegin();
    task.fn(token);
    sh.version.WriteEnd();
  } else {
    task.fn(token);
  }
  // relaxed: monotonic stats counter, read only by Stats() reporting.
  tasks_by_kind_[static_cast<size_t>(task.kind)].fetch_add(
      1, std::memory_order_relaxed);
}

size_t ShardScheduler::DrainLocked(size_t shard,
                                   std::atomic<uint64_t>* executed_counter) {
  Shard& sh = shards_[shard];
  size_t ran = 0;
  Task task;
  while (sh.channel->TryPop(&task)) {
    RunTask(shard, task);
    ++ran;
  }
  if (ran > 0) {
    // relaxed: monotonic stats counter, read only by Stats() reporting.
    executed_counter->fetch_add(ran, std::memory_order_relaxed);
  }
  return ran;
}

void ShardScheduler::DrainAndUnlock(size_t shard,
                                    std::atomic<uint64_t>* executed_counter) {
  Shard& sh = shards_[shard];
  for (;;) {
    sh.gate.Unlock();
    // The channel refilled behind our drain and nobody owns the gate:
    // re-acquire and keep draining, otherwise the task would sit behind a
    // free gate until the next unrelated acquisition.
    if (sh.channel->EmptyApprox()) return;
    if (!sh.gate.TryLock()) return;  // new holder inherits the invariant
    DrainLocked(shard, executed_counter);
  }
}

void ShardScheduler::PushWithBackpressure(size_t shard, Task task) {
  Shard& sh = shards_[shard];
  while (!sh.channel->TryPush(std::move(task))) {
    if (options_.manual) {
      PumpShard(shard);
    } else if (sh.gate.TryLock()) {
      DrainLocked(shard, &inline_tasks_);
      DrainAndUnlock(shard, &inline_tasks_);
    } else {
      sh.channel->WaitNotFull();  // holder is draining; park until space
    }
  }
  const uint64_t depth = sh.channel->SizeApprox();
  // relaxed: best-effort high-water mark for Stats(); the CAS loop keeps
  // it monotonic, and no other state is ordered against it.
  uint64_t peak = sh.depth_peak.load(std::memory_order_relaxed);
  while (depth > peak &&
         // relaxed: same best-effort high-water mark as the load above.
         !sh.depth_peak.compare_exchange_weak(peak, depth,
                                              std::memory_order_relaxed)) {
  }
}

void ShardScheduler::Execute(size_t shard, TaskKind kind, bool mutates,
                             const std::function<void(const ShardToken&)>& fn) {
  assert(shard < num_shards_);
  Shard& sh = shards_[shard];

  if (options_.manual) {
    // Deterministic synchronous step: queue behind whatever is already
    // pending, then pump this shard to completion. No atomic is contended
    // (manual mode is single-threaded by contract).
    Task task{kind, mutates, [&fn](const ShardToken& token) { fn(token); }};
    PushWithBackpressure(shard, std::move(task));
    PumpShard(shard);
    return;
  }

  // Fast path (flat combining): win the gate while the channel is empty
  // and run inline — the common uncontended case costs one CAS each way,
  // like the striped lock it replaces, but never spins against a convoy.
  if (sh.channel->EmptyApprox() && sh.gate.TryLock()) {
    DrainLocked(shard, &inline_tasks_);  // racing push may have landed
    Task task{kind, mutates, [&fn](const ShardToken& token) { fn(token); }};
    RunTask(shard, task);
    // relaxed: monotonic stats counters, read only by Stats() reporting.
    inline_tasks_.fetch_add(1, std::memory_order_relaxed);
    fast_path_runs_.fetch_add(1, std::memory_order_relaxed);
    DrainAndUnlock(shard, &inline_tasks_);
    return;
  }

  // Slow path: hand the closure to whoever owns the gate. The completion
  // flag is shared-owned because the executing thread touches it after
  // setting it (notify), which may race with this frame unwinding.
  auto done = std::make_shared<std::atomic<uint32_t>>(0);
  Task task{kind, mutates, [&fn, done](const ShardToken& token) {
              fn(token);
              done->store(1, std::memory_order_release);
              done->notify_all();
            }};
  PushWithBackpressure(shard, std::move(task));
  while (done->load(std::memory_order_acquire) == 0) {
    if (sh.gate.TryLock()) {
      DrainLocked(shard, &inline_tasks_);
      DrainAndUnlock(shard, &inline_tasks_);
    } else {
      done->wait(0, std::memory_order_acquire);
    }
  }
}

void ShardScheduler::Post(size_t shard, TaskKind kind, bool mutates,
                          std::function<void(const ShardToken&)> fn) {
  assert(shard < num_shards_);
  PushWithBackpressure(shard, Task{kind, mutates, std::move(fn)});
  if (options_.manual) return;  // runs at the next explicit Pump step
  if (!workers_.empty()) {
    WakeOwner(shard);
  } else if (shards_[shard].gate.TryLock()) {
    DrainLocked(shard, &inline_tasks_);
    DrainAndUnlock(shard, &inline_tasks_);
  }
  // else: the current gate holder's drain-then-release invariant covers it.
}

void ShardScheduler::ExecuteBatch(std::vector<BatchItem> items) {
  if (items.empty()) return;

  if (options_.manual) {
    for (BatchItem& item : items) {
      assert(item.shard < num_shards_);
      PushWithBackpressure(item.shard,
                           Task{item.kind, item.mutates, std::move(item.fn)});
    }
    PumpAll();
    return;
  }

  if (!parallel_) {
    // One hardware thread: an owner can only run when we yield the core,
    // so fanning out through the channels buys no overlap and pays a
    // wrapper closure, two shared counters and a join scan per round.
    // Run each item inline behind its gate instead, deferring only the
    // shards whose gate a concurrent holder owns (that holder's
    // drain-then-release makes the deferred task run promptly).
    std::vector<BatchItem> contended;
    for (BatchItem& item : items) {
      assert(item.shard < num_shards_);
      Shard& sh = shards_[item.shard];
      if (!sh.gate.TryLock()) {
        contended.push_back(std::move(item));
        continue;
      }
      DrainLocked(item.shard, &inline_tasks_);
      Task task{item.kind, item.mutates, std::move(item.fn)};
      RunTask(item.shard, task);
      // relaxed: monotonic stats counter, read only by Stats() reporting.
      inline_tasks_.fetch_add(1, std::memory_order_relaxed);
      DrainAndUnlock(item.shard, &inline_tasks_);
    }
    if (contended.empty()) return;
    items = std::move(contended);  // stragglers take the fan-out/join path
  }

  auto remaining = std::make_shared<std::atomic<size_t>>(items.size());
  auto done = std::make_shared<std::atomic<uint32_t>>(0);

  std::vector<size_t> involved;
  involved.reserve(items.size());
  for (BatchItem& item : items) {
    assert(item.shard < num_shards_);
    involved.push_back(item.shard);
    Task task{item.kind, item.mutates,
              [fn = std::move(item.fn), remaining, done](
                  const ShardToken& token) {
                fn(token);
                if (remaining->fetch_sub(1, std::memory_order_acq_rel) == 1) {
                  done->store(1, std::memory_order_release);
                  done->notify_all();
                }
              }};
    PushWithBackpressure(item.shard, std::move(task));
  }
  std::sort(involved.begin(), involved.end());
  involved.erase(std::unique(involved.begin(), involved.end()),
                 involved.end());

  if (parallel_) {
    // One wake per distinct owner, after full fan-out: the whole round is
    // S tasks and at most W futex signals, not S lock acquisitions.
    std::vector<size_t> owners;
    owners.reserve(involved.size());
    for (size_t shard : involved) owners.push_back(OwnerOf(shard));
    std::sort(owners.begin(), owners.end());
    owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
    for (size_t w : owners) {
      workers_[w]->signal.fetch_add(1, std::memory_order_release);
      workers_[w]->signal.notify_one();
    }
  }

  // Join, helping: drain whatever involved shard is free. When no shard
  // is drainable the remaining tasks are in (or headed into) some
  // holder's drain loop, so parking on the completion flag is safe.
  while (done->load(std::memory_order_acquire) == 0) {
    bool progressed = false;
    for (size_t shard : involved) {
      Shard& sh = shards_[shard];
      if (sh.channel->EmptyApprox() || !sh.gate.TryLock()) continue;
      progressed |= DrainLocked(shard, &inline_tasks_) > 0;
      DrainAndUnlock(shard, &inline_tasks_);
    }
    if (!progressed && done->load(std::memory_order_acquire) == 0) {
      done->wait(0, std::memory_order_acquire);
    }
  }
}

void ShardScheduler::ExecuteBatchIndexed(
    const std::vector<size_t>& shards, TaskKind kind, bool mutates,
    const std::function<void(const ShardToken&, size_t)>& fn) {
  if (shards.empty()) return;

  std::vector<BatchItem> queued;
  if (!parallel_ && !options_.manual) {
    // Same inline discipline as ExecuteBatch's single-hardware-thread
    // path, minus any per-item closure: the Task built here wraps
    // (&fn, i), which std::function stores in place.
    for (size_t i = 0; i < shards.size(); ++i) {
      const size_t shard = shards[i];
      assert(shard < num_shards_);
      Shard& sh = shards_[shard];
      if (!sh.gate.TryLock()) {
        queued.push_back(BatchItem{
            shard, kind, mutates,
            [&fn, i](const ShardToken& token) { fn(token, i); }});
        continue;
      }
      DrainLocked(shard, &inline_tasks_);
      Task task{kind, mutates,
                [&fn, i](const ShardToken& token) { fn(token, i); }};
      RunTask(shard, task);
      // relaxed: monotonic stats counter, read only by Stats() reporting.
      inline_tasks_.fetch_add(1, std::memory_order_relaxed);
      DrainAndUnlock(shard, &inline_tasks_);
    }
    if (queued.empty()) return;
  } else {
    queued.reserve(shards.size());
    for (size_t i = 0; i < shards.size(); ++i) {
      assert(shards[i] < num_shards_);
      queued.push_back(BatchItem{
          shards[i], kind, mutates,
          [&fn, i](const ShardToken& token) { fn(token, i); }});
    }
  }
  // The wrappers borrow `fn`; ExecuteBatch joins before returning, so the
  // reference outlives every execution.
  ExecuteBatch(std::move(queued));
}

void ShardScheduler::ExecuteExclusive(
    bool mutates, const std::function<void(const ExclusiveToken&)>& fn) {
  // relaxed: monotonic stats counter, read only by Stats() reporting.
  exclusive_barriers_.fetch_add(1, std::memory_order_relaxed);
  const ExclusiveToken token;

  if (options_.manual) {
    PumpAll();  // queued work is ordered before the barrier
    if (mutates) {
      // relaxed: epoch probe is conservative-not-lossy; WriteBegin below
      // is the publishing fence.
      mutation_epoch_.fetch_add(1, std::memory_order_relaxed);
      for (size_t i = 0; i < num_shards_; ++i) shards_[i].version.WriteBegin();
    }
    fn(token);
    if (mutates) {
      for (size_t i = 0; i < num_shards_; ++i) shards_[i].version.WriteEnd();
    }
    return;
  }

  // Ascending blocking acquisition is the one place gates are held in
  // bulk; every other holder owns exactly one gate and never blocks on a
  // second, so this order cannot deadlock.
  for (size_t i = 0; i < num_shards_; ++i) {
    shards_[i].gate.Lock();
    DrainLocked(i, &inline_tasks_);
  }
  if (mutates) {
    // relaxed: epoch probe is conservative-not-lossy; WriteBegin below is
    // the publishing fence.
    mutation_epoch_.fetch_add(1, std::memory_order_relaxed);
    for (size_t i = 0; i < num_shards_; ++i) shards_[i].version.WriteBegin();
  }
  fn(token);
  if (mutates) {
    for (size_t i = 0; i < num_shards_; ++i) shards_[i].version.WriteEnd();
  }
  for (size_t i = num_shards_; i-- > 0;) {
    DrainAndUnlock(i, &inline_tasks_);
  }
}

size_t ShardScheduler::PumpShard(size_t shard) {
  assert(shard < num_shards_);
  Shard& sh = shards_[shard];
  size_t ran = 0;
  while (!sh.channel->EmptyApprox()) {
    if (!sh.gate.TryLock()) break;  // concurrent holder is draining
    ran += DrainLocked(shard, &inline_tasks_);
    DrainAndUnlock(shard, &inline_tasks_);
  }
  return ran;
}

size_t ShardScheduler::PumpAll() {
  size_t total = 0;
  for (;;) {
    size_t sweep = 0;
    for (size_t i = 0; i < num_shards_; ++i) sweep += PumpShard(i);
    total += sweep;
    if (sweep == 0) return total;  // a full quiet sweep: nothing queued
  }
}

void ShardScheduler::WakeOwner(size_t shard) {
  WorkerState& owner = *workers_[OwnerOf(shard)];
  owner.signal.fetch_add(1, std::memory_order_release);
  owner.signal.notify_one();
}

void ShardScheduler::WorkerLoop(size_t worker_index) {
  WorkerState& me = *workers_[worker_index];
  for (;;) {
    // Sample the wake epoch before scanning: a producer bumping it during
    // the scan makes the park below return immediately, so no wake is
    // ever lost between "saw empty" and "parked".
    const uint64_t epoch = me.signal.load(std::memory_order_acquire);
    size_t ran = 0;
    for (size_t shard = worker_index; shard < num_shards_;
         shard += workers_.size()) {
      Shard& sh = shards_[shard];
      if (sh.channel->EmptyApprox() || !sh.gate.TryLock()) continue;
      ran += DrainLocked(shard, &me.tasks_executed);
      DrainAndUnlock(shard, &me.tasks_executed);
    }
    if (stop_.load(std::memory_order_acquire)) return;
    if (ran == 0) me.signal.wait(epoch, std::memory_order_acquire);
  }
}

// relaxed (whole function): every atomic below is a monotonic stats
// counter with no payload ordered behind it; a torn-across-counters
// snapshot is acceptable in a stats report, and exchange keeps each
// individual counter exact across reset.
SchedulerStats ShardScheduler::Stats(bool reset) const {
  SchedulerStats out;
  out.workers.resize(workers_.size());
  for (size_t w = 0; w < workers_.size(); ++w) {
    // relaxed: stats counter (see function comment).
    out.workers[w].tasks_executed =
        reset ? workers_[w]->tasks_executed.exchange(
                    0, std::memory_order_relaxed)
              : workers_[w]->tasks_executed.load(std::memory_order_relaxed);
  }
  for (size_t i = 0; i < num_shards_; ++i) {
    // relaxed: stats counter (see function comment).
    const uint64_t peak =
        reset ? shards_[i].depth_peak.exchange(0, std::memory_order_relaxed)
              : shards_[i].depth_peak.load(std::memory_order_relaxed);
    out.queue_depth_peak = std::max(out.queue_depth_peak, peak);
    if (!workers_.empty()) {
      SchedulerStats::Worker& w = out.workers[OwnerOf(i)];
      w.queue_depth_peak = std::max(w.queue_depth_peak, peak);
    }
  }
  // relaxed: stats counter (see function comment).
  out.inline_tasks =
      reset ? inline_tasks_.exchange(0, std::memory_order_relaxed)
            : inline_tasks_.load(std::memory_order_relaxed);
  // relaxed: stats counter (see function comment).
  out.fast_path_runs =
      reset ? fast_path_runs_.exchange(0, std::memory_order_relaxed)
            : fast_path_runs_.load(std::memory_order_relaxed);
  // relaxed: stats counter (see function comment).
  out.exclusive_barriers =
      reset ? exclusive_barriers_.exchange(0, std::memory_order_relaxed)
            : exclusive_barriers_.load(std::memory_order_relaxed);
  for (size_t k = 0; k < kNumTaskKinds; ++k) {
    // relaxed: stats counter (see function comment).
    out.tasks_by_kind[k] =
        reset ? tasks_by_kind_[k].exchange(0, std::memory_order_relaxed)
              : tasks_by_kind_[k].load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace epidemic::runtime
