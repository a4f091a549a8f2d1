// Experiment E2 (DESIGN.md): update-propagation cost is O(m) in the number
// of data items actually copied, independent of the database size N (§6).
//
// Part A fixes N = 65536 items and sweeps m (dirty items per exchange).
// Part B fixes m = 64 and sweeps N with a populated recipient — it already
// holds all N items, so its origin log has N records (`recipient_items`).
// The paper's protocol must stay flat; any per-item pass, on either side,
// grows with N.
//
// Part C (wire v3, DESIGN.md §10) measures the same exchange through the
// zero-copy view pipeline (PropagateOnceFast) against the owned baseline,
// and the sharded exchange through the real v2 vs v3 wire codecs. The
// `serve_allocs`/`accept_allocs` counters are ReplicaStats'
// *_staging_allocs: owned-string materializations per exchange, which the
// view path must drive to zero.

#include <benchmark/benchmark.h>

#include <string>
#include <utility>

#include "core/replica.h"
#include "core/sharded_replica.h"
#include "net/codec.h"

#ifndef EPI_BUILD_TYPE
#define EPI_BUILD_TYPE "unknown"
#endif

namespace {

using epidemic::BufferPool;
using epidemic::PropagateOnce;
using epidemic::PropagateOnceFast;
using epidemic::Replica;
using epidemic::ShardedPropagationRequest;
using epidemic::ShardedPropagationResponse;
using epidemic::ShardedReplica;

// Values sized like small real documents (matches bench_message_size's
// convention); big enough to defeat SSO so every owned-path copy is a
// real allocation.
constexpr size_t kValueLen = 256;

// Builds two converged replicas holding `n` items.
void Preload(Replica& src, Replica& dst, int64_t n) {
  const std::string value(kValueLen, 'a');
  for (int64_t i = 0; i < n; ++i) {
    (void)src.Update("k" + std::to_string(i), value);
  }
  (void)PropagateOnce(src, dst);
}

// Measures one exchange that ships exactly `m` dirty items, through the
// owned baseline or the zero-copy view pipeline.
void MeasureExchange(benchmark::State& state, int64_t n, int64_t m,
                     bool fast) {
  Replica src(0, 2), dst(1, 2);
  Preload(src, dst, n);
  src.ResetStats();
  dst.ResetStats();
  int tick = 0;

  for (auto _ : state) {
    state.PauseTiming();
    ++tick;
    const std::string value(kValueLen, static_cast<char>('a' + tick % 26));
    for (int64_t i = 0; i < m; ++i) {
      (void)src.Update("k" + std::to_string(i), value);
    }
    state.ResumeTiming();
    if (fast) {
      benchmark::DoNotOptimize(PropagateOnceFast(src, dst));
    } else {
      benchmark::DoNotOptimize(PropagateOnce(src, dst));
    }
  }

  state.counters["N_items"] = static_cast<double>(n);
  state.counters["m_dirty"] = static_cast<double>(m);
  state.counters["recipient_items"] = static_cast<double>(dst.items().size());
  state.counters["records_selected"] = benchmark::Counter(
      static_cast<double>(src.stats().log_records_selected),
      benchmark::Counter::kAvgIterations);
  state.counters["items_shipped"] = benchmark::Counter(
      static_cast<double>(src.stats().items_shipped),
      benchmark::Counter::kAvgIterations);
  state.counters["serve_allocs"] = benchmark::Counter(
      static_cast<double>(src.stats().serve_staging_allocs),
      benchmark::Counter::kAvgIterations);
  state.counters["accept_allocs"] = benchmark::Counter(
      static_cast<double>(dst.stats().accept_staging_allocs),
      benchmark::Counter::kAvgIterations);

  // Untimed: the wire frame one such exchange would produce, so these rows
  // report frame_bytes like the sharded-wire rows do (the JSON artifact
  // used to carry null here). Dirty the same m items again — the replicas
  // are converged after the loop, so a fresh burst reproduces the shape.
  {
    const std::string value(kValueLen, 'z');
    for (int64_t i = 0; i < m; ++i) {
      (void)src.Update("k" + std::to_string(i), value);
    }
    const epidemic::PropagationResponse resp =
        src.HandlePropagationRequest(dst.BuildPropagationRequest());
    const std::string frame =
        epidemic::net::Encode(epidemic::net::Message(resp));
    state.counters["frame_bytes"] = static_cast<double>(frame.size());
  }
}

void BM_SweepDirtyItems(benchmark::State& state) {
  MeasureExchange(state, /*n=*/65536, /*m=*/state.range(0), /*fast=*/false);
}

void BM_SweepDirtyItemsFast(benchmark::State& state) {
  MeasureExchange(state, /*n=*/65536, /*m=*/state.range(0), /*fast=*/true);
}

void BM_SweepDatabaseSize(benchmark::State& state) {
  MeasureExchange(state, /*n=*/state.range(0), /*m=*/64, /*fast=*/false);
}

// One sharded anti-entropy exchange through the REAL wire codec: build the
// handshake, encode+decode the request frame, serve, encode+decode the
// response frame, accept. `wire_version` selects tags 14/15 (v2, owned)
// or 17/18 (v3, delta segments + zero-copy accept).
void MeasureShardedWire(benchmark::State& state, int wire_version) {
  constexpr int64_t kDbItems = 65536;  // database size N
  constexpr int64_t kDirty = 4096;     // m dirty items per exchange
  constexpr size_t kShards = 8;
  constexpr size_t kNodes = 16;  // wide IVVs: where delta encoding pays
  ShardedReplica src(0, kNodes, kShards), dst(1, kNodes, kShards);
  const std::string preload_value(kValueLen, 'a');
  for (int64_t i = 0; i < kDbItems; ++i) {
    (void)src.Update("k" + std::to_string(i), preload_value);
  }
  (void)PropagateOnceSharded(src, dst);
  BufferPool pool;
  int tick = 0;
  uint64_t bytes = 0;
  uint64_t exchanges = 0;

  for (auto _ : state) {
    state.PauseTiming();
    ++tick;
    const std::string value(kValueLen, static_cast<char>('a' + tick % 26));
    for (int64_t i = 0; i < kDirty; ++i) {
      (void)src.Update("k" + std::to_string(i), value);
    }
    state.ResumeTiming();

    ShardedPropagationRequest req =
        wire_version >= 3 ? dst.BuildPropagationRequestV3()
                          : dst.BuildPropagationRequest();
    auto req2 = epidemic::net::Decode(
        epidemic::net::Encode(epidemic::net::Message(req)));
    ShardedPropagationResponse resp =
        wire_version >= 3
            ? src.HandlePropagationRequestV3(
                  std::get<ShardedPropagationRequest>(*req2), &pool)
            : src.HandlePropagationRequest(
                  std::get<ShardedPropagationRequest>(*req2));
    std::string frame = epidemic::net::Encode(epidemic::net::Message(resp));
    bytes += frame.size();
    ++exchanges;
    if (wire_version >= 3) {
      for (auto& seg : resp.segments) pool.Put(std::move(seg.body));
    }
    auto resp2 = epidemic::net::Decode(frame);
    benchmark::DoNotOptimize(
        dst.AcceptPropagation(std::get<ShardedPropagationResponse>(*resp2)));
  }

  state.counters["N_items"] = static_cast<double>(kDbItems);
  state.counters["m_dirty"] = static_cast<double>(kDirty);
  state.counters["wire_version"] = static_cast<double>(wire_version);
  state.counters["frame_bytes"] = exchanges > 0
      ? static_cast<double>(bytes) / static_cast<double>(exchanges)
      : 0.0;
}

void BM_ShardedWireExchangeV2(benchmark::State& state) {
  MeasureShardedWire(state, /*wire_version=*/2);
}

void BM_ShardedWireExchangeV3(benchmark::State& state) {
  MeasureShardedWire(state, /*wire_version=*/3);
}

}  // namespace

BENCHMARK(BM_SweepDirtyItems)
    ->RangeMultiplier(4)
    ->Range(1, 1 << 12)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SweepDirtyItemsFast)
    ->RangeMultiplier(4)
    ->Range(1, 1 << 12)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SweepDatabaseSize)
    ->RangeMultiplier(8)
    ->Range(1 << 10, 1 << 18)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ShardedWireExchangeV2)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ShardedWireExchangeV3)->Unit(benchmark::kMicrosecond);

// Custom main so the JSON context says what build produced OUR code. The
// google-benchmark *library* build type is reported separately by the
// library itself (library_build_type) — see the note in
// scripts/run_benchmarks.sh about the distro-prebuilt library.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("epi_build_type", EPI_BUILD_TYPE);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
