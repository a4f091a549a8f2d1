// A cluster of real `epidemicd` processes on loopback, driven from the load
// generator over one pooled TcpTransport (one connection per node).
#ifndef CLUSTERBENCH_DAEMONS_H_
#define CLUSTERBENCH_DAEMONS_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "net/tcp_transport.h"
#include "server/replica_server.h"

namespace cb {

/// Counters of one daemon, parsed from its `stats` summary text — the same
/// text an operator reads with `epidemic_cli stats`.
struct DaemonCounters {
  std::vector<uint64_t> dbvv;
  uint64_t items_shipped = 0;
  uint64_t items_adopted = 0;
  uint64_t conflicts = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
};
DaemonCounters ParseSummary(const std::string& summary);

/// Kills and reaps every daemon any DaemonCluster has spawned and not yet
/// reaped. Async-signal-safe; main() calls it on SIGINT/SIGTERM/SIGHUP.
void KillAllDaemons();

class DaemonCluster {
 public:
  /// Spawns kNodes daemons for `spec` (data dirs under `workdir` when
  /// durable) and returns once every one is serving.
  DaemonCluster(const std::string& epidemicd, const WorkloadSpec& spec,
                const std::string& workdir);
  /// SIGKILLs and reaps every daemon, then removes the data dirs.
  ~DaemonCluster();

  DaemonCluster(const DaemonCluster&) = delete;
  DaemonCluster& operator=(const DaemonCluster&) = delete;

  epidemic::server::ReplicaClient& client(int i) { return clients_[i]; }

  /// Summary text of node `i`, optionally resetting its counters.
  DaemonCounters Counters(int i, bool reset);

  /// SIGKILL node `i` and reap it.
  void Kill(int i);
  /// Starts node `i` again with its original flags (same port, same data
  /// dir) and returns once it serves.
  void Restart(int i);

  /// utime+stime of every live daemon, in seconds, from /proc/<pid>/stat.
  double CpuSeconds() const;
  /// Σ VmHWM (peak resident set) over live daemons, in kB.
  uint64_t PeakRssKb() const;

 private:
  void Spawn(int i);
  void Teardown();

  std::string epidemicd_;
  WorkloadSpec spec_;
  std::string root_;  // this cluster's data dirs live under it
  std::vector<uint16_t> ports_;
  std::vector<pid_t> pids_;
  std::vector<int> out_fds_;  // read ends of the daemons' stdout pipes
  std::unique_ptr<epidemic::net::TcpTransport> transport_;
  std::vector<epidemic::server::ReplicaClient> clients_;
};

/// Fails with BenchError unless `s` is OK.
void Check(const epidemic::Status& s, const std::string& what);

}  // namespace cb

#endif  // CLUSTERBENCH_DAEMONS_H_
