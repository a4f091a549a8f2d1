// Shared pieces of the cluster benchmark: the seeded input generator, the
// workload shapes, the independent oracle's model, percentiles and the
// metric sink. Nothing here reads src/sim, so a change to the simulator can
// never change the benchmark's inputs.
#ifndef CLUSTERBENCH_COMMON_H_
#define CLUSTERBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace cb {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Any failure that ends a workload early. main() catches it, so every
/// destructor (daemon reaping, temp-dir removal) runs on the way out.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// splitmix64: small, fast and fully determined by its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint32_t Below(uint32_t n) {
    return static_cast<uint32_t>(Uniform() * static_cast<double>(n));
  }

 private:
  uint64_t state_;
};

/// Zipf(theta) over ranks [0, n) by inverse CDF; rank 0 is the hottest.
class Zipf {
 public:
  Zipf(uint32_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (uint32_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  uint32_t Sample(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.Uniform());
    return static_cast<uint32_t>(
        std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                         cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

inline constexpr int kNodes = 4;

/// The make-up of one workload's inputs (README "Inputs" lists them).
struct WorkloadSpec {
  std::string name;
  int shards = 16;
  int ae_workers = 0;     // 0 = serial scheduler in every daemon
  bool durable = false;
  uint32_t keys = 0;      // keyspace; key k belongs to node k % kNodes
  double zipf_theta = 0.99;
  size_t value_bytes = 64;
  int setups = 5;         // set-ups per run (setup_s)
  int recoveries = 25;    // kill/restart cycles per run (recovery_s)
  // fanout: burst at node 0, then every other node pulls from node 0.
  int burst = 16;
  int reads_per_node = 4;
  int probe_sweeps = 3;
  // mixed: closed loop per node; every `pull_every`-th op is a ring pull.
  int read_permille = 900;
  int pull_every = 32;
  // durable-large: one write per node per round, then a ring sweep.
  int writes_per_node = 1;
};

WorkloadSpec SpecFor(const std::string& name);  // throws on unknown names
bool IsWorkload(const std::string& name);

inline std::string KeyName(uint32_t k) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%07u", k);
  return buf;
}

/// Values are a pure function of (origin node, per-origin sequence, size):
/// a header naming both, then filler derived from them. Any replica's copy
/// can therefore be checked for integrity without a stored answer.
inline std::string MakeValue(int node, uint64_t seq, size_t size) {
  char head[40];
  const int n = std::snprintf(head, sizeof(head), "n%d:s%llu:", node,
                              static_cast<unsigned long long>(seq));
  std::string v(head, static_cast<size_t>(n));
  Rng fill((static_cast<uint64_t>(node) << 56) ^ seq ^ 0x5eedf111ull);
  while (v.size() < size) v.push_back(static_cast<char>('a' + fill.Below(26)));
  return v;
}

/// True iff `v` is exactly what MakeValue produced for its own header.
inline bool ValueIsIntact(std::string_view v, size_t size, int* node_out) {
  int node = -1;
  unsigned long long seq = 0;
  if (std::sscanf(std::string(v.substr(0, 40)).c_str(), "n%d:s%llu:", &node,
                  &seq) != 2) {
    return false;
  }
  if (node_out != nullptr) *node_out = node;
  return v == MakeValue(node, seq, size);
}

/// The load generator's own model of the database (the oracle): last value
/// written per item and the number of writes per origin node (§4.1: the
/// DBVV entry k of every converged replica equals node k's update count).
struct Model {
  std::vector<std::string> value;  // indexed by key number; "" = never
  std::vector<uint64_t> writes_by_origin = std::vector<uint64_t>(kNodes, 0);
  explicit Model(uint32_t keys) : value(keys) {}
};

/// Nearest-rank percentile; sorts in place.
inline double Percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

inline double Median(std::vector<double> v) { return Percentile(v, 0.5); }

/// A sample and the time it was taken, in µs since the window opened.
struct Timed {
  double at_us, value;
};

inline std::vector<double> Values(const std::vector<Timed>& xs) {
  std::vector<double> v;
  v.reserve(xs.size());
  for (const Timed& x : xs) v.push_back(x.value);
  return v;
}

/// Splits [0, seconds) into whole one-second slices and returns one vector
/// of values per slice (a trailing partial slice is dropped).
inline std::vector<std::vector<double>> BySecond(const std::vector<Timed>& xs,
                                                 double seconds) {
  std::vector<std::vector<double>> slices(
      std::max<size_t>(1, static_cast<size_t>(seconds)));
  for (const Timed& x : xs) {
    const size_t k = static_cast<size_t>(x.at_us / 1e6);
    if (k < slices.size()) slices[k].push_back(x.value);
  }
  return slices;
}

/// The q-quantile of each second of the window.
inline std::vector<double> SliceQuantiles(const std::vector<Timed>& xs,
                                          double seconds, double q) {
  std::vector<double> per;
  for (std::vector<double>& s : BySecond(xs, seconds)) {
    if (!s.empty()) per.push_back(Percentile(s, q));
  }
  return per;
}

/// Samples in each second of the window.
inline std::vector<double> SliceRates(const std::vector<Timed>& xs,
                                      double seconds) {
  std::vector<double> per;
  for (const std::vector<double>& s : BySecond(xs, seconds)) {
    per.push_back(static_cast<double>(s.size()));
  }
  return per;
}

// What a run sustains in three samples out of four: the upper quartile of
// a time, the lower quartile of a rate. The host of this benchmark runs
// the same code ~25 % faster for stretches of seconds at a time, in a
// share of each run that varies from run to run; a median over the
// seconds jumps with that share, a quartile on the slow side follows the
// usual speed (README "End-to-end metrics").
inline double SustainedTime(std::vector<double> v) {
  return Percentile(v, 0.75);
}
inline double SustainedRate(std::vector<double> v) {
  return Percentile(v, 0.25);
}

/// Ordered name → (value, unit) sink printed as the result line.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    m_[name] = {value, unit};
  }
  std::string Json() const {
    std::string out = "{";
    bool first = true;
    for (const auto& [name, vu] : m_) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", vu.first);
      if (!first) out += ", ";
      first = false;
      out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             vu.second + "\"}";
    }
    return out + "}";
  }

 private:
  std::map<std::string, std::pair<double, std::string>> m_;
};

/// Outcome of one run, printed as the last stdout line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
};

/// Pins the calling thread, and every thread and process it later
/// creates, to the last CPU it may run on (README "CPU placement").
void PinToLastCpu();

/// Records an oracle violation (stderr) and clears `correct`.
inline void Violation(RunResult* r, const std::string& what) {
  std::fprintf(stderr, "clusterbench: ORACLE: %s\n", what.c_str());
  r->correct = false;
}

}  // namespace cb

#endif  // CLUSTERBENCH_COMMON_H_
