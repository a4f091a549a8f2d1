// The traced run. It replays a workload's seed and schedule twice, with
// spans recorded around calls into each layer's public functions from this
// file only:
//
//  Phase A (server, net, runtime): the four nodes hosted in this process —
//  the ReplicaServer, TcpServer and TcpTransport that epidemicd wires
//  together — behind a wrapping Transport (net.call spans) and a wrapping
//  RequestHandler (server.serve spans). The load generator calls
//  ReplicaServer::Update/Read/PullFrom directly (server.* spans). Each pull
//  gets a trace id; the call and serve spans it causes carry it.
//
//  Phase B (core, storage, log): four in-process ShardedReplica objects and
//  their JournaledShardedReplica twins replay the same write stream and
//  pull schedule through the protocol's phases one by one: handshake,
//  serve, encode, decode, accept, journal. The twins run on every workload,
//  so the journal, recovery, checkpoint and disk figures are measured on
//  each workload's own write stream.
//
// End-to-end metrics never come from here; the traced run's overhead is the
// client_ops_per_s of an untraced window of Phase A against a traced one.
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/bytes.h"
#include "core/journal.h"
#include "core/sharded_replica.h"
#include "core/wire.h"
#include "net/tcp_transport.h"
#include "server/replica_server.h"
#include "workloads.h"

namespace cb {
namespace {

using epidemic::Status;

// ---------------------------------------------------------------------------
// Spans.

enum SpanName : uint8_t {
  kPull, kProbe, kUpdate, kRead, kCall, kServe,
  kHandshake, kCoreServe, kEncode, kDecode, kAccept, kCoreUpdate,
  kJournalUpdate, kJournalAccept, kNumSpanNames
};
const char* const kSpanNames[kNumSpanNames] = {
    "server.pull", "server.probe",  "server.update", "server.read",
    "net.call",    "server.serve",  "core.handshake", "core.serve",
    "core.encode", "core.decode",   "core.accept",    "core.update",
    "core.journal_update", "core.journal_accept"};

/// name, start, end, cause (parent span) and the trace (pull) it belongs
/// to; `items` is the work count the span did (items served or accepted).
struct Span {
  SpanName name;
  uint32_t items;
  uint64_t id, parent, trace;
  int64_t start_ns, end_ns;
  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// Spans stay in per-thread buffers while recording (no shared lock on the
/// hot path) and are merged after the phase.
class Tracer {
 public:
  // Spans past the cap are counted as dropped, not kept: the busiest
  // traced window (mixed) would otherwise hold several million.
  static constexpr size_t kMaxSpans = 1'000'000;

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  void Record(const Span& s) {
    if (!enabled()) return;
    if (count_.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Buffer().push_back(s);
  }

  /// Moves every span recorded so far out of the per-thread buffers.
  std::vector<Span> Drain() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> all;
    for (auto& b : buffers_) {
      all.insert(all.end(), b->begin(), b->end());
      b->clear();
    }
    count_ = 0;
    return all;
  }
  uint64_t dropped() const { return dropped_.load(); }

 private:
  std::vector<Span>& Buffer() {
    thread_local std::vector<Span>* mine = nullptr;
    thread_local const Tracer* owner = nullptr;
    if (owner != this) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<std::vector<Span>>());
      mine = buffers_.back().get();
      owner = this;
    }
    return *mine;
  }

  std::atomic<uint64_t> next_id_{1};
  std::atomic<bool> enabled_{false};
  std::atomic<size_t> count_{0};
  std::atomic<uint64_t> dropped_{0};
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

thread_local uint64_t t_trace = 0;   // trace (pull) id of this thread's op
thread_local uint64_t t_parent = 0;  // innermost open span on this thread

/// Records one span from construction to destruction; a no-op while the
/// tracer is off, so an untraced window pays for no clock reads.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name, uint64_t parent, uint64_t trace)
      : tracer_(tracer->enabled() ? tracer : nullptr) {
    if (tracer_ == nullptr) return;
    saved_parent_ = t_parent;
    span_ = {name, 0, tracer->NewId(), parent, trace, NowNs(), 0};
    t_parent = span_.id;
  }
  ScopedSpan(Tracer* tracer, SpanName name)
      : ScopedSpan(tracer, name, t_parent, t_trace) {}
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.end_ns = NowNs();
    t_parent = saved_parent_;
    tracer_->Record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }  // 0 while the tracer is off
  void set_items(size_t n) { span_.items = static_cast<uint32_t>(n); }

 private:
  Tracer* tracer_;
  uint64_t saved_parent_ = 0;
  Span span_{};
};

/// Opens a new trace (one load-generator operation) on this thread.
class ScopedTrace {
 public:
  explicit ScopedTrace(Tracer* tracer) : saved_(t_trace) {
    t_trace = tracer->NewId();
  }
  ~ScopedTrace() { t_trace = saved_; }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  uint64_t saved_;
};

// ---------------------------------------------------------------------------
// Phase A: the server stack in-process.

/// The span of the call currently in flight to each node, so the serve
/// span on that node's connection thread can name its cause. Every
/// workload's schedule has at most one caller per node at a time; a second
/// concurrent caller is recorded without a cause.
class InFlight {
 public:
  bool Enter(int dest, uint64_t span, uint64_t trace) {
    uint64_t none = 0;
    if (!span_[dest].compare_exchange_strong(none, span)) return false;
    trace_[dest].store(trace);
    return true;
  }
  void Leave(int dest) { span_[dest].store(0); }
  void Current(int node, uint64_t* span, uint64_t* trace) const {
    *trace = trace_[node].load();
    *span = span_[node].load();
    if (*span == 0) *trace = 0;
  }

 private:
  std::atomic<uint64_t> span_[kNodes] = {};
  std::atomic<uint64_t> trace_[kNodes] = {};
};

class TracingTransport : public epidemic::net::Transport {
 public:
  TracingTransport(Tracer* tracer, InFlight* inflight)
      : tracer_(tracer), inflight_(inflight), inner_(kNodes) {}

  void SetPeerPort(int node, uint16_t port) {
    inner_.SetPeerPort(static_cast<epidemic::NodeId>(node), port);
  }

  epidemic::Result<std::string> Call(epidemic::NodeId dest,
                                     std::string_view request) override {
    ScopedSpan span(tracer_, kCall);
    const bool entered = inflight_->Enter(dest, span.id(), t_trace);
    auto r = inner_.Call(dest, request);
    if (entered) inflight_->Leave(dest);
    return r;
  }
  Status CallInto(epidemic::NodeId dest, std::string_view request,
                  std::string* response) override {
    ScopedSpan span(tracer_, kCall);
    const bool entered = inflight_->Enter(dest, span.id(), t_trace);
    Status s = inner_.CallInto(dest, request, response);
    if (entered) inflight_->Leave(dest);
    return s;
  }
  epidemic::net::TransportStats Stats(bool reset) override {
    return inner_.Stats(reset);
  }

 private:
  Tracer* tracer_;
  InFlight* inflight_;
  epidemic::net::TcpTransport inner_;
};

class TracingHandler : public epidemic::net::RequestHandler {
 public:
  TracingHandler(Tracer* tracer, const InFlight* inflight, int node,
                 epidemic::server::ReplicaServer* server)
      : tracer_(tracer), inflight_(inflight), node_(node), server_(server) {}

  std::string HandleRequest(std::string_view request) override {
    uint64_t parent = 0, trace = 0;
    inflight_->Current(node_, &parent, &trace);
    ScopedSpan span(tracer_, kServe, parent, trace);
    return server_->HandleRequest(request);
  }
  void HandleRequestV(std::string_view request,
                      epidemic::net::VectoredReply* reply) override {
    uint64_t parent = 0, trace = 0;
    inflight_->Current(node_, &parent, &trace);
    ScopedSpan span(tracer_, kServe, parent, trace);
    server_->HandleRequestV(request, reply);
  }

 private:
  Tracer* tracer_;
  const InFlight* inflight_;
  int node_;
  epidemic::server::ReplicaServer* server_;
};

/// Four nodes wired as epidemicd wires one, all in this process.
class LocalCluster : public Ops {
 public:
  LocalCluster(Tracer* tracer, const WorkloadSpec& spec,
               const std::string& dir)
      : tracer_(tracer) {
    epidemic::server::ReplicaServer::Options opts;
    opts.num_shards = static_cast<size_t>(spec.shards);
    opts.ae_workers = static_cast<size_t>(spec.ae_workers);
    for (int i = 0; i < kNodes; ++i) {
      transports_.push_back(
          std::make_unique<TracingTransport>(tracer, &inflight_));
      opts.peers.clear();
      for (int j = 0; j < kNodes; ++j) {
        if (j != i) opts.peers.push_back(static_cast<epidemic::NodeId>(j));
      }
      if (spec.durable) {
        const std::string node_dir = dir + "/node" + std::to_string(i);
        std::filesystem::create_directories(node_dir);
        auto durable = epidemic::JournaledShardedReplica::Open(
            node_dir, static_cast<epidemic::NodeId>(i), kNodes,
            static_cast<size_t>(spec.shards));
        Check(durable.status(), "open " + node_dir);
        servers_.push_back(std::make_unique<epidemic::server::ReplicaServer>(
            std::move(*durable), transports_[i].get(), opts));
      } else {
        servers_.push_back(std::make_unique<epidemic::server::ReplicaServer>(
            static_cast<epidemic::NodeId>(i), kNodes, transports_[i].get(),
            opts));
      }
      handlers_.push_back(std::make_unique<TracingHandler>(
          tracer, &inflight_, i, servers_[i].get()));
      listeners_.push_back(
          std::make_unique<epidemic::net::TcpServer>(handlers_[i].get()));
      Check(listeners_[i]->Start(0), "listen");
      servers_[i]->Start();
    }
    for (int i = 0; i < kNodes; ++i) {
      for (int j = 0; j < kNodes; ++j) {
        transports_[i]->SetPeerPort(j, listeners_[j]->port());
      }
    }
  }
  ~LocalCluster() override {
    for (auto& l : listeners_) l->Stop();
    for (auto& s : servers_) s->Stop();
  }

  epidemic::server::ReplicaServer& server(int i) { return *servers_[i]; }
  epidemic::net::Transport& transport(int i) { return *transports_[i]; }

  Status Update(int node, const std::string& key,
                const std::string& value) override {
    ScopedTrace trace(tracer_);
    ScopedSpan span(tracer_, kUpdate);
    return servers_[node]->Update(key, value);
  }
  epidemic::Result<std::string> Read(int node,
                                     const std::string& key) override {
    ScopedTrace trace(tracer_);
    ScopedSpan span(tracer_, kRead);
    return servers_[node]->Read(key);
  }
  Status Pull(int node, int from, bool probe) override {
    ScopedTrace trace(tracer_);
    ScopedSpan span(tracer_, probe ? kProbe : kPull);
    return servers_[node]->PullFrom(static_cast<epidemic::NodeId>(from));
  }
  Status Checkpoint(int node) override { return servers_[node]->Checkpoint(); }
  std::vector<std::pair<std::string, std::string>> Scan(int node) override {
    return servers_[node]->Scan("");
  }
  DaemonCounters Counters(int node, bool reset) override {
    DaemonCounters c;
    // The DBVV first: its cross-shard barrier then falls before a reset.
    servers_[node]->WithReplica([&c](const epidemic::ShardedReplica& r) {
      c.dbvv = r.AggregateDbvv().counts();
    });
    const epidemic::ReplicaStats t = servers_[node]->TotalStats(reset);
    c.items_shipped = t.items_shipped;
    c.items_adopted = t.items_adopted;
    c.conflicts = t.conflicts_detected;
    return c;
  }

 private:
  Tracer* tracer_;
  InFlight inflight_;
  // Declaration order is teardown order in reverse: listeners stop first,
  // then servers, then the transports the servers call through.
  std::vector<std::unique_ptr<TracingTransport>> transports_;
  std::vector<std::unique_ptr<epidemic::server::ReplicaServer>> servers_;
  std::vector<std::unique_ptr<TracingHandler>> handlers_;
  std::vector<std::unique_ptr<epidemic::net::TcpServer>> listeners_;
};

// ---------------------------------------------------------------------------
// Phase B: the core protocol replayed phase by phase.

class CoreCluster : public Ops {
 public:
  CoreCluster(Tracer* tracer, const WorkloadSpec& spec,
              const std::string& dir)
      : tracer_(tracer), dir_(dir) {
    for (int i = 0; i < kNodes; ++i) {
      mem_.push_back(std::make_unique<epidemic::ShardedReplica>(
          static_cast<epidemic::NodeId>(i), kNodes,
          static_cast<size_t>(spec.shards)));
      const std::string node_dir = NodeDir(i);
      std::filesystem::create_directories(node_dir);
      auto durable = epidemic::JournaledShardedReplica::Open(
          node_dir, static_cast<epidemic::NodeId>(i), kNodes,
          static_cast<size_t>(spec.shards));
      Check(durable.status(), "open " + node_dir);
      dur_.push_back(std::move(*durable));
    }
  }

  std::string NodeDir(int i) const { return dir_ + "/node" + std::to_string(i); }
  epidemic::ShardedReplica& mem(int i) { return *mem_[i]; }

  // One lock serialises the replay: a pull touches two nodes, and the
  // mixed workload's lanes run concurrently.
  Status Update(int node, const std::string& key,
                const std::string& value) override {
    std::lock_guard<std::mutex> lock(mu_);
    ScopedTrace trace(tracer_);
    Status s;
    {
      ScopedSpan span(tracer_, kCoreUpdate);
      s = mem_[node]->Update(key, value);
    }
    if (s.ok()) {
      ScopedSpan span(tracer_, kJournalUpdate);
      s = dur_[node]->Update(key, value);
    }
    return s;
  }
  epidemic::Result<std::string> Read(int node,
                                     const std::string& key) override {
    std::lock_guard<std::mutex> lock(mu_);
    return mem_[node]->Read(key);
  }
  Status Pull(int node, int from, bool) override {
    std::lock_guard<std::mutex> lock(mu_);
    ScopedTrace trace(tracer_);
    epidemic::ShardedReplica& dst = *mem_[node];
    epidemic::ShardedReplica& src = *mem_[from];
    epidemic::ShardedPropagationRequest req;
    {
      ScopedSpan span(tracer_, kHandshake);
      req = dst.BuildPropagationRequestV3();
    }
    epidemic::ShardedPropagationResponse resp;
    {
      ScopedSpan span(tracer_, kCoreServe);
      const uint64_t before = src.TotalStats().items_shipped;
      resp = src.HandlePropagationRequestV3(req, &pool_);
      span.set_items(src.TotalStats().items_shipped - before);
    }
    epidemic::ByteWriter w;
    {
      ScopedSpan span(tracer_, kEncode);
      epidemic::wire::EncodeShardedPropagationResponseBodyV3(w, resp);
    }
    for (auto& seg : resp.segments) pool_.Put(std::move(seg.body));
    epidemic::ByteReader r(w.data());
    epidemic::Result<epidemic::ShardedPropagationResponse> decoded =
        Status::Internal("not decoded");
    {
      ScopedSpan span(tracer_, kDecode);
      decoded = epidemic::wire::DecodeShardedPropagationResponseBodyV3(r);
    }
    if (!decoded.ok()) return decoded.status();
    {
      ScopedSpan span(tracer_, kAccept);
      const uint64_t before = dst.TotalStats().item_ivv_comparisons;
      Status s = dst.AcceptPropagation(*decoded);
      span.set_items(dst.TotalStats().item_ivv_comparisons - before);
      if (!s.ok()) return s;
    }
    ScopedSpan span(tracer_, kJournalAccept);
    for (const auto& seg : decoded->segments) {
      Status s = dur_[node]->AcceptShardPropagationSegmentV3(seg.shard,
                                                             seg.body);
      if (!s.ok()) return s;
    }
    return Status::OK();
  }
  Status Checkpoint(int node) override {
    std::lock_guard<std::mutex> lock(mu_);
    return dur_[node]->Checkpoint();
  }
  std::vector<std::pair<std::string, std::string>> Scan(int node) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto listing = mem_[node]->Scan("");
    if (dur_[node]->view().Scan("") != listing) {
      throw BenchError("journaled replica diverged from its in-memory twin");
    }
    return listing;
  }
  DaemonCounters Counters(int node, bool reset) override {
    std::lock_guard<std::mutex> lock(mu_);
    DaemonCounters c;
    const epidemic::ReplicaStats t = mem_[node]->TotalStats();
    c.items_shipped = t.items_shipped;
    c.items_adopted = t.items_adopted;
    c.conflicts = t.conflicts_detected;
    c.dbvv = mem_[node]->AggregateDbvv().counts();
    if (dur_[node]->view().AggregateDbvv().counts() != c.dbvv) {
      throw BenchError("journaled DBVV diverged from its in-memory twin");
    }
    if (reset) mem_[node]->ResetStats();
    return c;
  }

 private:
  Tracer* tracer_;
  std::string dir_;
  std::mutex mu_;
  epidemic::BufferPool pool_;
  std::vector<std::unique_ptr<epidemic::ShardedReplica>> mem_;
  std::vector<std::unique_ptr<epidemic::JournaledShardedReplica>> dur_;
};

// ---------------------------------------------------------------------------
// Aggregation.

struct SpanIndex {
  std::vector<Span> spans;
  std::unordered_map<uint64_t, SpanName> trace_kind;  // trace → root op

  explicit SpanIndex(std::vector<Span> s) : spans(std::move(s)) {
    for (const Span& sp : spans) {
      if (sp.name == kPull || sp.name == kProbe) trace_kind[sp.trace] = sp.name;
    }
  }
  bool InPull(const Span& s) const {
    const auto it = trace_kind.find(s.trace);
    return it != trace_kind.end() && it->second == kPull;
  }
  std::vector<double> Durations(SpanName name, bool pull_only) const {
    std::vector<double> out;
    for (const Span& s : spans) {
      if (s.name == name && (!pull_only || InPull(s))) out.push_back(s.us());
    }
    return out;
  }
  double SumUs(SpanName name) const {
    double t = 0;
    for (const Span& s : spans) t += s.name == name ? s.us() : 0;
    return t;
  }
  uint64_t SumItems(SpanName name) const {
    uint64_t n = 0;
    for (const Span& s : spans) n += s.name == name ? s.items : 0;
    return n;
  }
  /// Self time of each `name` span inside a data pull: its duration minus
  /// the part of it its children cover.
  std::vector<double> SelfTimes(SpanName name) const {
    std::unordered_map<uint64_t, int64_t> covered;
    std::unordered_map<uint64_t, const Span*> by_id;
    for (const Span& s : spans) {
      if (s.name == name) by_id[s.id] = &s;
    }
    for (const Span& c : spans) {
      const auto it = by_id.find(c.parent);
      if (it == by_id.end()) continue;
      const Span& p = *it->second;
      covered[p.id] += std::max<int64_t>(
          0, std::min(c.end_ns, p.end_ns) - std::max(c.start_ns, p.start_ns));
    }
    std::vector<double> out;
    for (const auto& [id, p] : by_id) {
      if (InPull(*p)) {
        out.push_back(static_cast<double>(p->end_ns - p->start_ns -
                                          covered[id]) / 1e3);
      }
    }
    return out;
  }
};

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  constexpr size_t kMaxWritten = 200'000;
  std::ofstream out(path, std::ios::app);
  for (size_t i = 0; i < spans.size() && i < kMaxWritten; ++i) {
    const Span& s = spans[i];
    out << kSpanNames[s.name] << '\t' << s.id << '\t' << s.parent << '\t'
        << s.trace << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
        << s.items << '\n';
  }
}

uint64_t SelfRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void PhaseA(Tracer* tracer, const WorkloadSpec& spec, uint64_t seed,
            double seconds, const std::string& dir, RunResult* result) {
  Metrics& m = result->metrics;
  LocalCluster cluster(tracer, spec, dir);
  Model model(spec.keys);
  Preload(cluster, spec, &model);
  RunResult warm;
  RunRounds(cluster, spec, &model, ~seed, 0.5, &warm);

  // Untraced then traced window: the ratio of their throughputs is the
  // tracing overhead.
  const Window plain =
      RunRounds(cluster, spec, &model, seed ^ 0x7ace, seconds / 2, &warm);
  uint64_t conflicts = 0;
  for (int i = 0; i < kNodes; ++i) {
    conflicts += cluster.Counters(i, /*reset=*/true).conflicts;
  }
  tracer->set_enabled(true);
  const Window w = RunRounds(cluster, spec, &model, seed, seconds / 2, result);
  tracer->set_enabled(false);
  result->attempted += w.ops;
  result->failed += w.failed;
  if (warm.failed != 0 || plain.failed != 0 || !warm.correct) {
    Violation(result, "untraced in-process operations failed");
  }

  uint64_t tasks = 0, barriers = 0, opt_hits = 0, reads = 0;
  uint64_t hits = 0, misses = 0, calls = 0, opened = 0, adopted = 0;
  for (int i = 0; i < kNodes; ++i) {
    epidemic::server::ReplicaServer& s = cluster.server(i);
    const epidemic::runtime::SchedulerStats sched = s.SchedulerHealth();
    barriers += sched.exclusive_barriers;
    opt_hits += s.optimistic_read_hits();
    const epidemic::ReplicaStats t = s.TotalStats(/*reset=*/true);
    tasks += t.sched_tasks_executed;
    reads += t.reads;
    hits += t.serve_cache_hits;
    misses += t.serve_cache_misses;
    calls += t.net_calls;
    opened += t.net_connections_opened;
    adopted += t.items_adopted;
    conflicts += t.conflicts_detected;
  }

  SpanIndex idx(tracer->Drain());
  WriteSpans(idx.spans, dir + "/../spans.tsv");
  m.Set("server.pull_us", Median(idx.Durations(kPull, false)), "us");
  m.Set("server.serve_us", Median(idx.Durations(kServe, true)), "us");
  m.Set("server.update_us", Median(idx.Durations(kUpdate, false)), "us");
  m.Set("server.read_us", Median(idx.Durations(kRead, false)), "us");
  m.Set("server.serve_cache_hit_ratio",
        Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
        "ratio");
  m.Set("net.call_us", Median(idx.Durations(kCall, true)), "us");
  m.Set("net.call_self_us", Median(idx.SelfTimes(kCall)), "us");
  m.Set("net.calls_per_item",
        Ratio(static_cast<double>(calls), static_cast<double>(adopted)),
        "count");
  m.Set("net.connections_opened", static_cast<double>(opened), "count");
  m.Set("runtime.tasks_per_op",
        Ratio(static_cast<double>(tasks), static_cast<double>(w.ops)),
        "count");
  m.Set("runtime.barriers", static_cast<double>(barriers), "count");
  m.Set("runtime.opt_read_hit_ratio",
        Ratio(static_cast<double>(opt_hits), static_cast<double>(reads)),
        "ratio");
  m.Set("trace.overhead_ratio",
        Ratio(static_cast<double>(plain.ops) / plain.seconds,
              static_cast<double>(w.ops) / w.seconds),
        "ratio");

  // Bytes of one quiescent exchange (the paper's O(1) "nothing new"
  // round): an all-pairs sweep after a first one has cached every peer's
  // mutation epoch.
  Quiesce(cluster, spec);
  const auto all_pairs_bytes = [&cluster] {
    uint64_t bytes = 0;
    for (int j = 0; j < kNodes; ++j) {
      cluster.transport(j).Stats(/*reset=*/true);
      for (int from = 0; from < kNodes; ++from) {
        if (from != j) Check(cluster.Pull(j, from, true), "quiescent pull");
      }
      const auto t = cluster.transport(j).Stats(/*reset=*/true);
      bytes += t.bytes_sent + t.bytes_received;
    }
    return bytes;
  };
  all_pairs_bytes();
  m.Set("net.probe_bytes",
        static_cast<double>(all_pairs_bytes()) / (kNodes * (kNodes - 1)), "B");
  CheckOracle(cluster, spec, model, conflicts, result);
  std::fprintf(stderr,
               "clusterbench: traced %s phase A: untraced %.0f ops/s, traced "
               "%.0f ops/s, visible p50 %.1f us, spans %zu (dropped %llu)\n",
               spec.name.c_str(), static_cast<double>(plain.ops) / plain.seconds,
               static_cast<double>(w.ops) / w.seconds,
               Median(Values(w.visible_us)), idx.spans.size(),
               static_cast<unsigned long long>(tracer->dropped()));
}

void PhaseB(Tracer* tracer, const WorkloadSpec& spec, uint64_t seed,
            double seconds, const std::string& dir, RunResult* result) {
  Metrics& m = result->metrics;
  CoreCluster cluster(tracer, spec, dir);
  Model model(spec.keys);
  // The model's value buffers are allocated before rss0: each preload write
  // swaps in a buffer of the same size, so the growth is the replicas'.
  for (std::string& v : model.value) v.assign(spec.value_bytes, ' ');
  const uint64_t rss0 = SelfRssKb();
  Preload(cluster, spec, &model);
  // Each node is two replica objects: the in-memory one and its twin.
  m.Set("storage.bytes_per_item",
        static_cast<double>(SelfRssKb() - rss0) * 1024.0 /
            (static_cast<double>(spec.keys) * 2 * kNodes),
        "B");
  std::vector<double> checkpoint_s;
  for (int i = 0; i < kNodes; ++i) {
    const Clock::time_point t0 = Clock::now();
    Check(cluster.Checkpoint(i), "checkpoint");
    checkpoint_s.push_back(SecondsSince(t0));
  }
  m.Set("core.checkpoint_s", Median(checkpoint_s), "s");

  uint64_t conflicts = 0;
  for (int i = 0; i < kNodes; ++i) {
    conflicts += cluster.Counters(i, /*reset=*/true).conflicts;
  }
  tracer->set_enabled(true);
  const Window w = RunRounds(cluster, spec, &model, seed, seconds, result);
  tracer->set_enabled(false);
  result->attempted += w.ops;
  result->failed += w.failed;

  epidemic::ReplicaStats total;
  size_t log_records = 0;
  for (int i = 0; i < kNodes; ++i) {
    epidemic::ShardedReplica& r = cluster.mem(i);
    total.Accumulate(r.TotalStats());
    for (size_t k = 0; k < r.num_shards(); ++k) {
      log_records += r.shard(k).log_vector().TotalRecords();
    }
  }
  SpanIndex idx(tracer->Drain());
  WriteSpans(idx.spans, dir + "/../spans.tsv");
  m.Set("core.handshake_us", Median(idx.Durations(kHandshake, false)), "us");
  m.Set("core.serve_us_per_item",
        Ratio(idx.SumUs(kCoreServe), static_cast<double>(idx.SumItems(kCoreServe))),
        "us");
  m.Set("core.wire_encode_us", Median(idx.Durations(kEncode, false)), "us");
  m.Set("core.wire_decode_us", Median(idx.Durations(kDecode, false)), "us");
  m.Set("core.accept_us_per_item",
        Ratio(idx.SumUs(kAccept), static_cast<double>(idx.SumItems(kAccept))),
        "us");
  m.Set("core.log_records_per_item",
        Ratio(static_cast<double>(total.log_records_selected),
              static_cast<double>(total.items_shipped)),
        "count");
  m.Set("core.redundant_ratio",
        Ratio(static_cast<double>(total.redundant_items_received),
              static_cast<double>(total.items_shipped)),
        "ratio");
  const double journal_ops = static_cast<double>(
      idx.Durations(kJournalUpdate, false).size() +
      idx.Durations(kJournalAccept, false).size());
  m.Set("core.journal_append_us",
        Ratio(idx.SumUs(kJournalUpdate) + idx.SumUs(kJournalAccept) -
                  idx.SumUs(kCoreUpdate) - idx.SumUs(kAccept),
              journal_ops),
        "us");
  const double per_node = static_cast<double>(log_records) / kNodes;
  m.Set("log.records_per_node", per_node, "count");
  if (per_node > static_cast<double>(kNodes) * spec.keys) {
    Violation(result, "log holds more than n*N records (§4.2)");
  }

  // The oracle's Theorem 5 sweep is traced too. Its serves ship nothing,
  // so every workload has quiescent serves, durable-large (whose every
  // pull in the window has new data) only these.
  Quiesce(cluster, spec);
  tracer->set_enabled(true);
  CheckOracle(cluster, spec, model, conflicts, result);
  tracer->set_enabled(false);
  std::vector<Span> oracle_spans = tracer->Drain();
  WriteSpans(oracle_spans, dir + "/../spans.tsv");
  std::vector<double> quiescent;
  for (const std::vector<Span>* spans : {&idx.spans, &oracle_spans}) {
    for (const Span& s : *spans) {
      if (s.name == kCoreServe && s.items == 0) quiescent.push_back(s.us());
    }
  }
  m.Set("core.quiescent_serve_us", Median(quiescent), "us");
  m.Set("storage.disk_bytes_per_item",
        static_cast<double>(DirBytes(dir)) /
            (static_cast<double>(spec.keys) * kNodes),
        "B");

  // Recover a copy of node 1's directory, as a restart after SIGKILL
  // would: every journal record was flushed when its write returned.
  const std::string copy = dir + "/recovered";
  std::filesystem::copy(cluster.NodeDir(1), copy,
                        std::filesystem::copy_options::recursive);
  const Clock::time_point t0 = Clock::now();
  auto reopened = epidemic::JournaledShardedReplica::Open(
      copy, 1, kNodes, static_cast<size_t>(spec.shards));
  m.Set("core.recovery_s", SecondsSince(t0), "s");
  Check(reopened.status(), "recover " + copy);
  if ((*reopened)->view().AggregateDbvv().counts() != model.writes_by_origin) {
    Violation(result, "recovered replica lost acknowledged writes");
  }
}

}  // namespace

void RunTraced(const WorkloadSpec& spec, uint64_t seed, double seconds,
               const std::string& workdir, RunResult* result) {
  Tracer tracer;
  const std::string a = workdir + "/traced-a";
  const std::string b = workdir + "/traced-b";
  std::filesystem::create_directories(a);
  std::filesystem::create_directories(b);
  // Phase B first: storage.bytes_per_item reads RSS growth, which only
  // means something on a heap that has not been grown and freed before.
  PhaseB(&tracer, spec, seed, seconds / 2, b, result);
  std::filesystem::remove_all(b);
  PhaseA(&tracer, spec, seed, seconds / 2, a, result);
  std::filesystem::remove_all(a);
}

}  // namespace cb
