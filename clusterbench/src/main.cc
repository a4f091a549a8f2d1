// clusterbench — load generator of the cluster benchmark.
//
//   clusterbench --workload <fanout|mixed|durable-large> --seed <n>
//                --seconds <s> --trace <0|1> --epidemicd <path>
//                --workdir <dir>
//
// --trace 0 spawns four real epidemicd processes and prints the end-to-end
// metrics; --trace 1 replays the same schedule in-process with spans around
// every layer call and prints the per-layer metrics. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/prctl.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "common.h"
#include "daemons.h"
#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: clusterbench --workload <fanout|mixed|durable-large> "
               "--seed <n>\n"
               "                    --seconds <1..600> --trace <0|1> "
               "--epidemicd <path> --workdir <dir>\n");
}

void OnSignal(int sig) {
  cb::KillAllDaemons();
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

bool ParseUnsigned(const std::string& s, unsigned long long max,
                   unsigned long long* out) {
  if (s.empty() || s.size() > 20) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  errno = 0;
  *out = std::strtoull(s.c_str(), nullptr, 10);
  return errno == 0 && *out <= max;
}

}  // namespace

int main(int argc, char** argv) {
  // Every flag is required, once, as "--flag value"; anything else,
  // --help included, prints usage and measures nothing.
  static const char* kFlags[] = {"--workload", "--seed",      "--seconds",
                                 "--trace",    "--epidemicd", "--workdir"};
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    bool known = false;
    for (const char* f : kFlags) known = known || std::strcmp(argv[i], f) == 0;
    if (!known || i + 1 >= argc || args.count(argv[i]) != 0) {
      std::fprintf(stderr, "clusterbench: bad argument '%s'\n", argv[i]);
      Usage();
      return 2;
    }
    args[argv[i]] = argv[i + 1];
  }
  unsigned long long seed = 0, seconds = 0, trace = 0;
  if (args.size() != std::size(kFlags) || !cb::IsWorkload(args["--workload"]) ||
      !ParseUnsigned(args["--seed"], ~0ull, &seed) ||
      !ParseUnsigned(args["--seconds"], 600, &seconds) || seconds == 0 ||
      !ParseUnsigned(args["--trace"], 1, &trace)) {
    Usage();
    return 2;
  }

  // If whoever started us dies, stop too (and take the daemons along).
  ::prctl(PR_SET_PDEATHSIG, SIGTERM);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGHUP, OnSignal);
  std::signal(SIGPIPE, SIG_IGN);

  cb::RunResult result;
  try {
    const cb::WorkloadSpec spec = cb::SpecFor(args["--workload"]);
    // Before any thread or daemon exists, so all of them inherit it.
    cb::PinToLastCpu();
    if (trace != 0) {
      cb::RunTraced(spec, seed, static_cast<double>(seconds),
                    args["--workdir"], &result);
    } else {
      cb::RunUntraced(args["--epidemicd"], spec, seed,
                      static_cast<double>(seconds), args["--workdir"],
                      &result);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "clusterbench: %s\n", e.what());
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.metrics.Json().c_str());
  return result.correct ? 0 : 1;
}
