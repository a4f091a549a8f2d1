#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <memory>
#include <thread>

namespace cb {

bool IsWorkload(const std::string& name) {
  return name == "fanout" || name == "mixed" || name == "durable-large";
}

WorkloadSpec SpecFor(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  if (name == "fanout") {
    // Small keyspace: origin logs stay short, so the accept scan is cheap
    // and the serial serve path (the only one with the serve cache) runs.
    s.keys = 2000;
    // A set-up takes ~70 ms and a kill/restart cycle ~6 ms: enough of
    // them to span a few seconds of the host's changing speed.
    s.setups = 25;
    s.recoveries = 100;
  } else if (name == "mixed") {
    s.keys = 20000;
    s.ae_workers = 1;  // parallel scheduler in every daemon
  } else if (name == "durable-large") {
    s.keys = 200000;
    s.durable = true;
    s.setups = 3;  // each preloads 200k journaled items
    s.recoveries = 3;
  } else {
    throw BenchError("unknown workload '" + name + "'");
  }
  return s;
}

void PinToLastCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpu = -1;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpu = c;
    }
  }
  if (cpu < 0) throw BenchError("no usable CPU");
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (::sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw BenchError("cannot pin to CPU " + std::to_string(cpu));
  }
}

namespace {

/// Origin `node`'s next write of `key`: value from (node, sequence), the
/// model updated only once the write is acknowledged.
epidemic::Status Write(Ops& ops, const WorkloadSpec& spec, Model* model,
                       int node, uint32_t key) {
  const uint64_t seq = model->writes_by_origin[node] + 1;
  std::string value = MakeValue(node, seq, spec.value_bytes);
  epidemic::Status s = ops.Update(node, KeyName(key), value);
  if (s.ok()) {
    model->writes_by_origin[node] = seq;
    model->value[key] = std::move(value);
  }
  return s;
}

struct PullRec {
  double start_us, end_us;
};
struct AckRec {
  int origin;
  double ack_us;
};

/// End of the first pull in `log` that started at or after `t`; -1 if none.
/// Such a pull was served after `t`, so it carried everything its source
/// held at `t`.
double Deliver(const std::vector<PullRec>& log, double t) {
  const auto it = std::lower_bound(
      log.begin(), log.end(), t,
      [](const PullRec& p, double v) { return p.start_us < v; });
  return it == log.end() ? -1 : it->end_us;
}

/// Write-to-visible latency per acknowledged write, proven from the load
/// generator's own clock: on fanout every node pulls straight from node 0;
/// on a ring node j pulls from j-1, so a write crosses kNodes-1 hops.
std::vector<Timed> VisibleLatencies(
    const std::vector<AckRec>& acks,
    const std::vector<std::vector<PullRec>>& pulls, bool star) {
  std::vector<Timed> out;
  out.reserve(acks.size());
  for (const AckRec& a : acks) {
    double last = a.ack_us;
    if (star) {
      for (int j = 1; j < kNodes && last >= 0; ++j) {
        const double d = Deliver(pulls[j], a.ack_us);
        last = d < 0 ? -1 : std::max(last, d);
      }
    } else {
      int node = a.origin;
      for (int hop = 1; hop < kNodes && last >= 0; ++hop) {
        node = (node + 1) % kNodes;
        last = Deliver(pulls[node], last);
      }
    }
    if (last >= 0) out.push_back({a.ack_us, last - a.ack_us});
  }
  return out;
}

/// One thread's share of a measured phase.
struct Lane {
  std::vector<Timed> write_us, read_us, pull_us;
  std::vector<AckRec> acks;
  std::vector<std::vector<PullRec>> pulls =
      std::vector<std::vector<PullRec>>(kNodes);
  uint64_t ops = 0, failed = 0;
  std::string violation;  // first oracle violation seen by this lane

  void Fail(const char* what, const epidemic::Status& s) {
    if (failed++ < 5) {
      std::fprintf(stderr, "clusterbench: %s failed: %s\n", what,
                   s.ToString().c_str());
    }
  }
};

class LaneClock {
 public:
  explicit LaneClock(Clock::time_point t0) : t0_(t0) {}
  double Now() const { return MicrosBetween(t0_, Clock::now()); }

 private:
  Clock::time_point t0_;
};

void TimedWrite(Ops& ops, const WorkloadSpec& spec, Model* model, Lane* lane,
                const LaneClock& clk, int node, uint32_t key) {
  const double t = clk.Now();
  epidemic::Status s = Write(ops, spec, model, node, key);
  const double e = clk.Now();
  ++lane->ops;
  if (!s.ok()) return lane->Fail("write", s);
  lane->write_us.push_back({e, e - t});
  lane->acks.push_back({node, e});
}

void TimedPull(Ops& ops, Lane* lane, const LaneClock& clk, int node,
               int from, bool probe) {
  const double t = clk.Now();
  epidemic::Status s = ops.Pull(node, from, probe);
  const double e = clk.Now();
  ++lane->ops;
  if (!s.ok()) return lane->Fail("pull", s);
  lane->pull_us.push_back({e, e - t});
  lane->pulls[node].push_back({t, e});
}

/// Timed read. With `expect` the value must equal it exactly; otherwise it
/// must be an intact value written by the key's owner (reads may lag).
void TimedRead(Ops& ops, const WorkloadSpec& spec, Lane* lane,
               const LaneClock& clk, int node, uint32_t key,
               const std::string* expect) {
  const double t = clk.Now();
  epidemic::Result<std::string> v = ops.Read(node, KeyName(key));
  const double e = clk.Now();
  ++lane->ops;
  if (!v.ok()) return lane->Fail("read", v.status());
  lane->read_us.push_back({e, e - t});
  if (!lane->violation.empty()) return;
  int writer = -1;
  if (expect != nullptr && *v != *expect) {
    lane->violation = "node " + std::to_string(node) + " read stale " +
                      KeyName(key) + " after the pulls that deliver it";
  } else if (!ValueIsIntact(*v, spec.value_bytes, &writer) ||
             (spec.name != "fanout" &&
              writer != static_cast<int>(key % kNodes))) {
    lane->violation = "node " + std::to_string(node) + " returned a value "
                      "for " + KeyName(key) + " that no writer of it wrote";
  }
}

void FanoutLane(Ops& ops, const WorkloadSpec& spec, Model* model,
                uint64_t seed, Clock::time_point deadline,
                const LaneClock& clk, Lane* lane) {
  Rng rng(seed);
  const Zipf zipf(spec.keys, spec.zipf_theta);
  std::vector<uint32_t> burst(spec.burst);
  while (Clock::now() < deadline) {
    for (uint32_t& key : burst) {
      key = zipf.Sample(rng);
      TimedWrite(ops, spec, model, lane, clk, 0, key);
    }
    for (int j = 1; j < kNodes; ++j) TimedPull(ops, lane, clk, j, 0, false);
    for (int j = 0; j < kNodes; ++j) {
      for (int r = 0; r < spec.reads_per_node; ++r) {
        const uint32_t key = burst[(r * 5 + j) % burst.size()];
        TimedRead(ops, spec, lane, clk, j, key, &model->value[key]);
      }
    }
    for (int s = 0; s < spec.probe_sweeps; ++s) {
      for (int j = 1; j < kNodes; ++j) TimedPull(ops, lane, clk, j, 0, true);
    }
  }
}

/// Closed loop of node `node`'s client: reads over the whole keyspace,
/// writes to its own partition, a pull from its ring predecessor every
/// `pull_every` operations.
void MixedLane(Ops& ops, const WorkloadSpec& spec, Model* model,
               uint64_t seed, int node, Clock::time_point deadline,
               const LaneClock& clk, Lane* lane) {
  Rng rng(seed * 0x100000001B3ull + static_cast<uint64_t>(node) + 1);
  const Zipf reads(spec.keys, spec.zipf_theta);
  const Zipf writes(spec.keys / kNodes, spec.zipf_theta);
  while (Clock::now() < deadline) {
    for (int op = 0; op + 1 < spec.pull_every; ++op) {
      if (static_cast<int>(rng.Below(1000)) < spec.read_permille) {
        TimedRead(ops, spec, lane, clk, node, reads.Sample(rng), nullptr);
      } else {
        const uint32_t key = writes.Sample(rng) * kNodes +
                             static_cast<uint32_t>(node);
        TimedWrite(ops, spec, model, lane, clk, node, key);
      }
    }
    TimedPull(ops, lane, clk, node, (node + kNodes - 1) % kNodes, false);
  }
}

void DurableLane(Ops& ops, const WorkloadSpec& spec, Model* model,
                 uint64_t seed, Clock::time_point deadline,
                 const LaneClock& clk, Lane* lane) {
  Rng rng(seed);
  const uint32_t part = spec.keys / kNodes;
  while (Clock::now() < deadline) {
    for (int i = 0; i < kNodes; ++i) {
      for (int w = 0; w < spec.writes_per_node; ++w) {
        TimedWrite(ops, spec, model, lane, clk, i,
                   rng.Below(part) * kNodes + static_cast<uint32_t>(i));
      }
    }
    for (int hop = 1; hop <= kNodes; ++hop) {
      const int j = hop % kNodes;
      TimedPull(ops, lane, clk, j, (j + kNodes - 1) % kNodes, false);
    }
    for (int i = 0; i < kNodes; ++i) {
      TimedRead(ops, spec, lane, clk, i, rng.Below(spec.keys), nullptr);
    }
  }
}

std::string Join(const std::vector<double>& xs) {
  std::string s;
  for (double x : xs) s += (s.empty() ? "" : " ") + std::to_string(x);
  return s;
}

template <typename T>
void Append(std::vector<T>* to, const std::vector<T>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

/// Runs `fn(i)` for i in [0, n) on n threads and joins them all.
template <typename Fn>
void Parallel(int n, Fn fn) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(n);
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace

void Preload(Ops& ops, const WorkloadSpec& spec, Model* model) {
  const bool star = spec.name == "fanout";
  Parallel(star ? 1 : kNodes, [&](int node) {
    for (uint32_t k = static_cast<uint32_t>(node); k < spec.keys;
         k += star ? 1 : kNodes) {
      Check(Write(ops, spec, model, node, k), "preload write");
    }
  });
  Quiesce(ops, spec);
}

void Quiesce(Ops& ops, const WorkloadSpec& spec) {
  if (spec.name == "fanout") {
    for (int j = 1; j < kNodes; ++j) Check(ops.Pull(j, 0, false), "pull");
    return;
  }
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (int hop = 1; hop <= kNodes; ++hop) {
      const int j = hop % kNodes;
      Check(ops.Pull(j, (j + kNodes - 1) % kNodes, false), "pull");
    }
  }
}

Window RunRounds(Ops& ops, const WorkloadSpec& spec, Model* model,
                 uint64_t seed, double seconds, RunResult* result) {
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  const LaneClock clk(t0);
  const bool mixed = spec.name == "mixed";
  std::vector<Lane> lanes(mixed ? kNodes : 1);
  Parallel(static_cast<int>(lanes.size()), [&](int i) {
    if (mixed) {
      MixedLane(ops, spec, model, seed, i, deadline, clk, &lanes[i]);
    } else if (spec.name == "fanout") {
      FanoutLane(ops, spec, model, seed, deadline, clk, &lanes[i]);
    } else {
      DurableLane(ops, spec, model, seed, deadline, clk, &lanes[i]);
    }
  });

  Window w;
  w.seconds = SecondsSince(t0);
  std::vector<AckRec> acks;
  std::vector<std::vector<PullRec>> pulls(kNodes);
  for (const Lane& lane : lanes) {
    w.ops += lane.ops;
    w.failed += lane.failed;
    Append(&w.write_us, lane.write_us);
    Append(&w.read_us, lane.read_us);
    Append(&w.pull_us, lane.pull_us);
    Append(&acks, lane.acks);
    for (int j = 0; j < kNodes; ++j) Append(&pulls[j], lane.pulls[j]);
    if (!lane.violation.empty()) Violation(result, lane.violation);
  }
  w.visible_us = VisibleLatencies(acks, pulls, spec.name == "fanout");
  return w;
}

void CheckOracle(Ops& ops, const WorkloadSpec& spec, const Model& model,
                 uint64_t conflicts, RunResult* result) {
  // 1. Every replica's value for every item equals the model.
  for (int node = 0; node < kNodes; ++node) {
    const auto listing = ops.Scan(node);
    size_t at = 0;
    bool equal = true;
    for (uint32_t k = 0; k < spec.keys && equal; ++k) {
      if (model.value[k].empty()) continue;
      equal = at < listing.size() && listing[at].first == KeyName(k) &&
              listing[at].second == model.value[k];
      ++at;
    }
    if (!equal || at != listing.size()) {
      Violation(result, "node " + std::to_string(node) +
                            " holds values that differ from the model");
    }
  }
  // 2. Every replica's DBVV equals the per-origin write counts (§4.1).
  for (int node = 0; node < kNodes; ++node) {
    const DaemonCounters c = ops.Counters(node, /*reset=*/true);
    conflicts += c.conflicts;
    if (c.dbvv != model.writes_by_origin) {
      Violation(result, "node " + std::to_string(node) +
                            " DBVV differs from the per-origin write counts");
    }
  }
  // 3. One more sweep, every node pulling from every other, ships nothing
  // (Theorem 5).
  for (int j = 0; j < kNodes; ++j) {
    for (int from = 0; from < kNodes; ++from) {
      if (from != j) Check(ops.Pull(j, from, true), "quiescent pull");
    }
  }
  uint64_t shipped = 0;
  for (int node = 0; node < kNodes; ++node) {
    const DaemonCounters c = ops.Counters(node, /*reset=*/true);
    shipped += c.items_shipped;
    conflicts += c.conflicts;
  }
  if (shipped != 0) {
    Violation(result, "a quiescent sweep shipped " + std::to_string(shipped) +
                          " items");
  }
  // 4. No conflicts: every node writes only items nobody else writes.
  if (conflicts != 0) {
    Violation(result, std::to_string(conflicts) + " conflicts detected");
  }
}

namespace {

class RemoteOps : public Ops {
 public:
  explicit RemoteOps(DaemonCluster* cluster) : c_(cluster) {}
  epidemic::Status Update(int node, const std::string& key,
                          const std::string& value) override {
    return c_->client(node).Update(key, value);
  }
  epidemic::Result<std::string> Read(int node,
                                     const std::string& key) override {
    return c_->client(node).Read(key);
  }
  epidemic::Status Pull(int node, int from, bool) override {
    return c_->client(node).TriggerSync(static_cast<epidemic::NodeId>(from));
  }
  epidemic::Status Checkpoint(int node) override {
    return c_->client(node).TriggerCheckpoint();
  }
  std::vector<std::pair<std::string, std::string>> Scan(int node) override {
    auto r = c_->client(node).Scan("");
    Check(r.status(), "scan");
    return std::move(*r);
  }
  DaemonCounters Counters(int node, bool reset) override {
    return c_->Counters(node, reset);
  }

 private:
  DaemonCluster* c_;
};

constexpr double kWarmupSeconds = 1.0;

}  // namespace

void RunUntraced(const std::string& epidemicd, const WorkloadSpec& spec,
                 uint64_t seed, double seconds, const std::string& workdir,
                 RunResult* result) {
  // Set-up, several times: spawn, preload, converge (and checkpoint when
  // durable). The last cluster is kept for the measured phase.
  std::vector<double> setup_s;
  std::unique_ptr<DaemonCluster> cluster;
  std::unique_ptr<Model> model;
  for (int s = 0; s < spec.setups; ++s) {
    cluster.reset();
    model = std::make_unique<Model>(spec.keys);
    const Clock::time_point t0 = Clock::now();
    cluster = std::make_unique<DaemonCluster>(epidemicd, spec, workdir);
    RemoteOps ops(cluster.get());
    Preload(ops, spec, model.get());
    if (spec.durable) {
      for (int i = 0; i < kNodes; ++i) Check(ops.Checkpoint(i), "checkpoint");
    }
    setup_s.push_back(SecondsSince(t0));
  }
  RemoteOps ops(cluster.get());

  // Warm-up on a seed of its own: connections open, caches fill.
  RunResult warm;
  const Window warmup =
      RunRounds(ops, spec, model.get(), ~seed, kWarmupSeconds, &warm);
  if (warmup.failed != 0 || !warm.correct) {
    Violation(result, "warm-up operations failed");
  }

  uint64_t conflicts = 0;
  for (int i = 0; i < kNodes; ++i) {
    conflicts += cluster->Counters(i, /*reset=*/true).conflicts;
  }
  const double cpu0 = cluster->CpuSeconds();
  Window w = RunRounds(ops, spec, model.get(), seed, seconds, result);
  const double cpu_s = cluster->CpuSeconds() - cpu0;
  uint64_t adopted = 0, wire_bytes = 0;
  for (int i = 0; i < kNodes; ++i) {
    const DaemonCounters c = cluster->Counters(i, /*reset=*/true);
    adopted += c.items_adopted;
    wire_bytes += c.bytes_sent + c.bytes_received;
    conflicts += c.conflicts;
  }
  const double rss_mb = static_cast<double>(cluster->PeakRssKb()) / 1024.0;
  result->attempted = w.ops;
  result->failed = w.failed;
  Quiesce(ops, spec);

  // Kill/restart cycles. A durable node must come back from its data dir
  // with every acknowledged write, the last ones written just before the
  // SIGKILL; an in-memory node comes back empty and re-pulls its state.
  // The victim rotates over nodes 1..3, and an in-memory victim re-pulls
  // from a fixed neighbour (node 0 on fanout, victim ^ 1 on mixed), so
  // every cycle measures the same thing. Restarting one durable node twice
  // in a row leaves its peers stale (CHANGES.md FOUND), so no cycle does.
  std::vector<double> recovery_s;
  Rng rng(seed ^ 0x2ec0e2ull);
  for (int c = 0; c < spec.recoveries; ++c) {
    const int victim = 1 + c % (kNodes - 1);
    const int source = spec.name == "fanout" ? 0 : victim ^ 1;
    if (spec.durable) {
      for (int k = 0; k < 4; ++k) {
        const uint32_t key = rng.Below(spec.keys / kNodes) * kNodes +
                             static_cast<uint32_t>(victim);
        Check(Write(ops, spec, model.get(), victim, key), "pre-kill write");
      }
    }
    cluster->Kill(victim);
    const Clock::time_point t0 = Clock::now();
    cluster->Restart(victim);
    if (!spec.durable) Check(ops.Pull(victim, source, false), "re-pull");
    const DaemonCounters after = cluster->Counters(victim, false);
    recovery_s.push_back(SecondsSince(t0));
    if (after.dbvv != model->writes_by_origin) {
      Violation(result, "node " + std::to_string(victim) +
                            " restarted without its pre-kill DBVV");
    }
    Quiesce(ops, spec);
  }
  CheckOracle(ops, spec, *model, conflicts, result);

  // Per-second figures, so a stall of the host decides at most one
  // second's. A p50 or a rate reports what the run sustained in three
  // seconds of four (common.h SustainedTime); a p99, itself a tail, the
  // median over the seconds, which a minority of stalled seconds cannot
  // move. Ratios of counts cover the whole window.
  Metrics& m = result->metrics;
  m.Set("setup_s", SustainedTime(setup_s), "s");
  std::vector<Timed> all_ops = w.read_us;
  Append(&all_ops, w.write_us);
  Append(&all_ops, w.pull_us);
  const auto p50 = [&w](const std::vector<Timed>& xs) {
    return SustainedTime(SliceQuantiles(xs, w.seconds, 0.5));
  };
  const auto p99 = [&w](const std::vector<Timed>& xs) {
    return Median(SliceQuantiles(xs, w.seconds, 0.99));
  };
  m.Set("visible_p50_us", p50(w.visible_us), "us");
  m.Set("visible_p99_us", p99(w.visible_us), "us");
  m.Set("items_propagated_per_s", static_cast<double>(adopted) / w.seconds,
        "1/s");
  m.Set("wire_bytes_per_item",
        static_cast<double>(wire_bytes) / static_cast<double>(adopted), "B");
  m.Set("daemon_cpu_us_per_op", cpu_s * 1e6 / static_cast<double>(w.ops),
        "us");
  m.Set("client_read_p50_us", p50(w.read_us), "us");
  m.Set("client_read_p99_us", p99(w.read_us), "us");
  m.Set("client_write_p50_us", p50(w.write_us), "us");
  m.Set("client_write_p99_us", p99(w.write_us), "us");
  m.Set("client_ops_per_s", SustainedRate(SliceRates(all_ops, w.seconds)),
        "1/s");
  m.Set("rss_mb", rss_mb, "MB");
  m.Set("recovery_s", SustainedTime(recovery_s), "s");
  std::fprintf(stderr,
               "clusterbench: %s window %.2fs ops=%llu writes=%zu reads=%zu "
               "pulls=%zu visible=%zu adopted=%llu setups=%s recoveries=%s\n",
               spec.name.c_str(), w.seconds,
               static_cast<unsigned long long>(w.ops), w.write_us.size(),
               w.read_us.size(), w.pull_us.size(), w.visible_us.size(),
               static_cast<unsigned long long>(adopted),
               Join(setup_s).c_str(), Join(recovery_s).c_str());
}

}  // namespace cb
