// The three workloads, written once against Ops so the untraced run (real
// epidemicd processes) and the traced run (the same server classes hosted
// in-process) replay the same seeded schedule.
#ifndef CLUSTERBENCH_WORKLOADS_H_
#define CLUSTERBENCH_WORKLOADS_H_

#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "daemons.h"

namespace cb {

/// What a workload does to a cluster of kNodes replicas. Calls on
/// different nodes may run concurrently.
class Ops {
 public:
  virtual ~Ops() = default;
  virtual epidemic::Status Update(int node, const std::string& key,
                                  const std::string& value) = 0;
  virtual epidemic::Result<std::string> Read(int node,
                                             const std::string& key) = 0;
  /// Makes `node` pull from `from` now. `probe` marks pulls the schedule
  /// expects to find nothing new (traced runs name their spans apart).
  virtual epidemic::Status Pull(int node, int from, bool probe) = 0;
  virtual epidemic::Status Checkpoint(int node) = 0;
  virtual std::vector<std::pair<std::string, std::string>> Scan(int node) = 0;
  virtual DaemonCounters Counters(int node, bool reset) = 0;
};

/// Latencies and counts of one measured phase. Each sample carries the
/// time it completed (the ack, for visibility), in µs since the start.
struct Window {
  double seconds = 0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::vector<Timed> write_us, read_us, pull_us, visible_us;
};

/// Writes every key once (each node its own partition; all at node 0 on
/// fanout), then pulls until every replica holds the preload.
void Preload(Ops& ops, const WorkloadSpec& spec, Model* model);

/// Pull pattern after which every replica holds every acknowledged write:
/// every other node pulls from node 0 on fanout, two ring sweeps elsewhere.
void Quiesce(Ops& ops, const WorkloadSpec& spec);

/// Runs whole rounds of the workload until `seconds` have passed.
Window RunRounds(Ops& ops, const WorkloadSpec& spec, Model* model,
                 uint64_t seed, double seconds, RunResult* result);

/// The independent oracle on a quiesced cluster: values, DBVVs, conflicts
/// (accumulated by the caller into `conflicts`) and Theorem 5 quiescence.
void CheckOracle(Ops& ops, const WorkloadSpec& spec, const Model& model,
                 uint64_t conflicts, RunResult* result);

/// Full untraced run against real daemons: set-up (several times), warm-up,
/// the measured window, oracle, kill/restart recovery. Fills `result`.
void RunUntraced(const std::string& epidemicd, const WorkloadSpec& spec,
                 uint64_t seed, double seconds, const std::string& workdir,
                 RunResult* result);

/// The traced run (traced.cc): the same schedule with the four nodes
/// hosted in this process, plus an in-process core replay.
void RunTraced(const WorkloadSpec& spec, uint64_t seed, double seconds,
               const std::string& workdir, RunResult* result);

}  // namespace cb

#endif  // CLUSTERBENCH_WORKLOADS_H_
