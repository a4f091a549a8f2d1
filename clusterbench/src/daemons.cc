#include "daemons.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace cb {
namespace {

// Every spawned, unreaped daemon, for KillAllDaemons(). Plain atomics so a
// signal handler may read them.
constexpr int kMaxChildren = 64;
std::atomic<pid_t> g_children[kMaxChildren];

void Register(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}
void Unregister(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t p = pid;
    if (slot.compare_exchange_strong(p, 0)) return;
  }
}

uint64_t Counter(const std::string& line, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    throw BenchError("stats summary has no '" + key + "' in: " + line);
  }
  return std::strtoull(line.c_str() + pos + needle.size(), nullptr, 10);
}

std::string Line(const std::string& text, const std::string& prefix) {
  size_t pos = text.rfind(prefix, 0) == 0 ? 0 : text.find("\n" + prefix);
  if (pos == std::string::npos) {
    throw BenchError("stats summary has no '" + prefix + "' line");
  }
  if (text[pos] == '\n') ++pos;
  const size_t end = text.find('\n', pos);
  // A leading space lets Counter() match the first key of the line too.
  return " " + text.substr(pos, end == std::string::npos ? std::string::npos
                                                         : end - pos);
}

std::vector<uint16_t> PickFreePorts(size_t n) {
  // Hold every port bound until all are picked, so none is handed out twice.
  std::vector<int> fds;
  std::vector<uint16_t> ports;
  for (size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) break;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ::close(fd);
      break;
    }
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (int fd : fds) ::close(fd);
  if (ports.size() != n) throw BenchError("cannot reserve loopback ports");
  return ports;
}

}  // namespace

void KillAllDaemons() {
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
  for (auto& slot : g_children) {
    const pid_t pid = slot.exchange(0);
    if (pid > 0) ::waitpid(pid, nullptr, 0);
  }
}

void Check(const epidemic::Status& s, const std::string& what) {
  if (!s.ok()) throw BenchError(what + ": " + s.ToString());
}

DaemonCounters ParseSummary(const std::string& summary) {
  DaemonCounters c;
  const std::string replica = Line(summary, "replica ");
  const size_t d = replica.find(" dbvv=[");
  if (d == std::string::npos) throw BenchError("summary has no dbvv");
  const char* p = replica.c_str() + d + 7;
  while (*p != ']' && *p != '\0') {
    char* end = nullptr;
    c.dbvv.push_back(std::strtoull(p, &end, 10));
    p = (*end == ',') ? end + 1 : end;
  }
  const std::string stats = Line(summary, "stats:");
  c.items_shipped = Counter(stats, "items_shipped");
  c.items_adopted = Counter(stats, "items_adopted");
  c.conflicts = Counter(stats, "conflicts");
  const std::string net = Line(summary, "net:");
  c.bytes_sent = Counter(net, "bytes_sent");
  c.bytes_received = Counter(net, "bytes_received");
  return c;
}

DaemonCluster::DaemonCluster(const std::string& epidemicd,
                             const WorkloadSpec& spec,
                             const std::string& workdir)
    : epidemicd_(epidemicd),
      spec_(spec),
      pids_(kNodes, 0),
      out_fds_(kNodes, -1) {
  static std::atomic<int> serial{0};
  root_ = workdir + "/cluster-" + std::to_string(serial++);
  std::filesystem::remove_all(root_);
  for (int i = 0; i < kNodes; ++i) {
    std::filesystem::create_directories(root_ + "/node" + std::to_string(i));
  }
  ports_ = PickFreePorts(kNodes);
  // The load generator's own transport: one pooled connection per node and
  // a short backoff, so a restarted node is reachable at once.
  epidemic::net::TcpTransport::Options topts;
  topts.backoff_initial_micros = 1000;
  topts.backoff_max_micros = 5000;
  transport_ = std::make_unique<epidemic::net::TcpTransport>(kNodes, topts);
  for (int i = 0; i < kNodes; ++i) {
    transport_->SetPeerPort(static_cast<epidemic::NodeId>(i), ports_[i]);
    clients_.emplace_back(transport_.get(), static_cast<epidemic::NodeId>(i));
  }
  try {
    for (int i = 0; i < kNodes; ++i) Spawn(i);
  } catch (...) {
    Teardown();  // the destructor does not run for a throwing constructor
    throw;
  }
}

DaemonCluster::~DaemonCluster() { Teardown(); }

void DaemonCluster::Teardown() {
  for (int i = 0; i < kNodes; ++i) Kill(i);
  std::error_code ec;
  std::filesystem::remove_all(root_, ec);
}

void DaemonCluster::Spawn(int i) {
  std::vector<std::string> args = {
      epidemicd_,
      "--id=" + std::to_string(i),
      "--nodes=" + std::to_string(kNodes),
      "--port=" + std::to_string(ports_[i]),
      "--shards=" + std::to_string(spec_.shards),
      "--ae-workers=" + std::to_string(spec_.ae_workers),
      "--ae-interval-ms=0",  // every pull is paced by the load generator
  };
  for (int j = 0; j < kNodes; ++j) {
    if (j != i) {
      args.push_back("--peer=" + std::to_string(j) + ":" +
                     std::to_string(ports_[j]));
    }
  }
  if (spec_.durable) {
    args.push_back("--data-dir=" + root_ + "/node" + std::to_string(i));
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw BenchError("pipe failed");
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw BenchError("fork failed");
  }
  if (pid == 0) {
    // The daemon dies with the load generator, whatever ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close_range(3, ~0u, 0);  // no inherited sockets or pipes
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  pids_[i] = pid;
  out_fds_[i] = fds[0];
  Register(pid);

  // Ready once the banner "serving on" arrives (durable nodes print it
  // after recovery).
  std::string banner;
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (banner.find("serving on") == std::string::npos) {
    const int left = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now())
            .count());
    pollfd pfd{fds[0], POLLIN, 0};
    char buf[512];
    if (left <= 0 || ::poll(&pfd, 1, left) <= 0) {
      throw BenchError("node " + std::to_string(i) + " never became ready");
    }
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n <= 0) {
      throw BenchError("node " + std::to_string(i) + " exited at start-up");
    }
    banner.append(buf, static_cast<size_t>(n));
  }
}

void DaemonCluster::Kill(int i) {
  if (pids_[i] <= 0) return;
  ::kill(pids_[i], SIGKILL);
  ::waitpid(pids_[i], nullptr, 0);
  Unregister(pids_[i]);
  pids_[i] = 0;
  ::close(out_fds_[i]);
  out_fds_[i] = -1;
}

void DaemonCluster::Restart(int i) {
  if (pids_[i] > 0) throw BenchError("restart of a live node");
  Spawn(i);
}

DaemonCounters DaemonCluster::Counters(int i, bool reset) {
  auto text = reset ? clients_[i].ResetStats() : clients_[i].Stats();
  Check(text.status(), "stats of node " + std::to_string(i));
  return ParseSummary(*text);
}

double DaemonCluster::CpuSeconds() const {
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  double total = 0;
  for (pid_t pid : pids_) {
    if (pid <= 0) continue;
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const size_t close = text.rfind(')');
    if (close == std::string::npos) throw BenchError("bad /proc stat");
    std::istringstream fields(text.substr(close + 2));
    std::string f;
    uint64_t utime = 0, stime = 0;
    // After "(comm) " field 3 (state) comes first; utime/stime are 14/15.
    for (int k = 3; k <= 15 && (fields >> f); ++k) {
      if (k == 14) utime = std::strtoull(f.c_str(), nullptr, 10);
      if (k == 15) stime = std::strtoull(f.c_str(), nullptr, 10);
    }
    total += static_cast<double>(utime + stime) / tick;
  }
  return total;
}

uint64_t DaemonCluster::PeakRssKb() const {
  uint64_t total = 0;
  for (pid_t pid : pids_) {
    if (pid <= 0) continue;
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        total += std::strtoull(line.c_str() + 6, nullptr, 10);
      }
    }
  }
  return total;
}

}  // namespace cb
