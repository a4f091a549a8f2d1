#!/usr/bin/env python3
"""Cluster benchmark entry point.

    python3 clusterbench/run.py --workload <fanout|mixed|durable-large>
                                --seed <n> --seconds <s> --trace <0|1>

Run from the root of the source tree. Builds epidemicd and the load
generator in Release under .bench_build/, runs one workload, and prints the
load generator's result as the last line of stdout: one JSON object with
"correct", "attempted", "failed" and "metrics". Build output and progress go
to stderr. Unknown flags and --help print usage and exit 2 without
measuring.
"""
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "clusterbench")
FLAGS = ("--workload", "--seed", "--seconds", "--trace")
WORKLOADS = ("fanout", "mixed", "durable-large")


def usage():
    sys.stderr.write(
        "usage: run.py --workload <%s> --seed <n> --seconds <1..600> "
        "--trace <0|1>\n" % "|".join(WORKLOADS))
    return 2


def parse(argv):
    args = {}
    if len(argv) % 2 != 0:
        return None
    for flag, value in zip(argv[::2], argv[1::2]):
        if flag not in FLAGS or flag in args:
            return None
        args[flag] = value
    if set(args) != set(FLAGS) or args["--workload"] not in WORKLOADS:
        return None
    for flag in ("--seed", "--seconds", "--trace"):
        if not args[flag].isdigit():
            return None
    if not 1 <= int(args["--seconds"]) <= 600 or args["--trace"] not in "01":
        return None
    return args


def build():
    """Configures once, then builds the two programs (a no-op when fresh)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: no source tree at %s\n" % ROOT)
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "clusterbench",
                  "epidemicd", "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def remove_stale_workdirs():
    """Removes the data dirs of earlier runs whose run.py was killed."""
    base = os.path.join(ROOT, ".bench_build")
    for name in os.listdir(base):
        if not name.startswith("run-") or not name[4:].isdigit():
            continue
        try:
            os.kill(int(name[4:]), 0)
        except ProcessLookupError:
            shutil.rmtree(os.path.join(base, name), ignore_errors=True)
        except PermissionError:
            pass  # a live process of someone else


def keep_spans(workdir, args):
    """A traced run leaves its spans in the workdir; keep them."""
    spans = os.path.join(workdir, "spans.tsv")
    if os.path.isfile(spans):
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        shutil.move(spans, os.path.join(traces, "%s-seed%s.tsv" % (
            args["--workload"], args["--seed"])))


def main(argv):
    args = parse(argv)
    if args is None:
        return usage()
    if not build():
        return 1
    remove_stale_workdirs()
    workdir = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(BUILD, "clusterbench"),
           "--epidemicd", os.path.join(BUILD, "epi_tools", "epidemicd"),
           "--workdir", workdir]
    for flag in FLAGS:
        cmd += [flag, args[flag]]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE)

    def forward(sig, _frame):
        child.send_signal(sig)
    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, forward)
    try:
        # Set-up and the oracle add to the measured window; bound the wait.
        out, _ = child.communicate(timeout=120 + 2 * int(args["--seconds"]))
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: load generator timed out\n")
        return 1
    finally:
        if child.poll() is None:
            child.kill()  # its daemons die with it (PR_SET_PDEATHSIG)
        child.wait()
        keep_spans(workdir, args)
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return child.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
