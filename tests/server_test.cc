#include "server/replica_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>
#include <variant>
#include <vector>

#include "net/codec.h"
#include "net/inproc_transport.h"
#include "net/tcp_transport.h"

namespace epidemic::server {
namespace {

/// Three replica servers wired through an in-process hub.
class InProcClusterTest : public ::testing::Test {
 protected:
  static constexpr size_t kNodes = 3;

  InProcClusterTest() : hub_(kNodes), transport_(&hub_) {
    for (NodeId i = 0; i < kNodes; ++i) {
      ReplicaServer::Options options;
      for (NodeId p = 0; p < kNodes; ++p) {
        if (p != i) options.peers.push_back(p);
      }
      servers_.push_back(std::make_unique<ReplicaServer>(
          i, kNodes, &transport_, options));
      hub_.Register(i, servers_.back().get());
    }
  }

  net::InProcHub hub_;
  net::InProcTransport transport_;
  std::vector<std::unique_ptr<ReplicaServer>> servers_;
};

TEST_F(InProcClusterTest, LocalUpdateAndRead) {
  ASSERT_TRUE(servers_[0]->Update("x", "v").ok());
  auto v = servers_[0]->Read("x");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "v");
  EXPECT_TRUE(servers_[1]->Read("x").status().IsNotFound());
}

TEST_F(InProcClusterTest, ManualPullPropagates) {
  ASSERT_TRUE(servers_[0]->Update("x", "v").ok());
  ASSERT_TRUE(servers_[1]->PullFrom(0).ok());
  EXPECT_EQ(*servers_[1]->Read("x"), "v");
  // Transitive: node 2 learns from node 1.
  ASSERT_TRUE(servers_[2]->PullFrom(1).ok());
  EXPECT_EQ(*servers_[2]->Read("x"), "v");
}

TEST_F(InProcClusterTest, PullFromDownPeerIsUnavailable) {
  hub_.SetNodeUp(0, false);
  EXPECT_TRUE(servers_[1]->PullFrom(0).IsUnavailable());
}

TEST_F(InProcClusterTest, OobFetchThroughTransport) {
  ASSERT_TRUE(servers_[0]->Update("hot", "fresh").ok());
  ASSERT_TRUE(servers_[1]->OobFetch(0, "hot").ok());
  EXPECT_EQ(*servers_[1]->Read("hot"), "fresh");
  // Regular state untouched on node 1 (it was an OOB copy).
  servers_[1]->WithReplica([](const ShardedReplica& r) {
    EXPECT_EQ(r.AggregateDbvv().Total(), 0u);
    EXPECT_TRUE(r.FindItem("hot")->HasAux());
  });
}

TEST_F(InProcClusterTest, ClientRpcPath) {
  ReplicaClient client(&transport_, /*server=*/0);
  ASSERT_TRUE(client.Update("x", "v").ok());
  auto v = client.Read("x");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "v");
  EXPECT_TRUE(client.Read("ghost").status().IsNotFound());
}

TEST_F(InProcClusterTest, ClientDeleteRpcAndTombstoneReplication) {
  ReplicaClient client0(&transport_, 0);
  ReplicaClient client1(&transport_, 1);
  ASSERT_TRUE(client0.Update("doomed", "v").ok());
  ASSERT_TRUE(servers_[1]->PullFrom(0).ok());
  ASSERT_TRUE(client1.Read("doomed").ok());

  ASSERT_TRUE(client0.Delete("doomed").ok());
  EXPECT_TRUE(client0.Read("doomed").status().IsNotFound());
  // The tombstone replicates like any update.
  ASSERT_TRUE(servers_[1]->PullFrom(0).ok());
  EXPECT_TRUE(client1.Read("doomed").status().IsNotFound());
  // Deleting an unknown item just writes a tombstone (no error).
  EXPECT_TRUE(client0.Delete("never-existed").ok());
}

TEST_F(InProcClusterTest, ClientOobReadFetchesFromPeer) {
  ReplicaClient client0(&transport_, 0);
  ReplicaClient client1(&transport_, 1);
  ASSERT_TRUE(client0.Update("doc", "v7").ok());
  // Node 1 does not have the item; OobRead makes it fetch from node 0.
  auto v = client1.OobRead(/*from_peer=*/0, "doc");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "v7");
}

TEST_F(InProcClusterTest, BackgroundAntiEntropyConverges) {
  // Rebuild server 1 and 2 with a fast anti-entropy loop.
  for (NodeId i = 0; i < kNodes; ++i) hub_.Register(i, nullptr);
  std::vector<std::unique_ptr<ReplicaServer>> servers;
  for (NodeId i = 0; i < kNodes; ++i) {
    ReplicaServer::Options options;
    for (NodeId p = 0; p < kNodes; ++p) {
      if (p != i) options.peers.push_back(p);
    }
    options.anti_entropy_interval_micros = 2000;  // 2 ms
    servers.push_back(std::make_unique<ReplicaServer>(
        i, kNodes, &transport_, options));
    hub_.Register(i, servers.back().get());
  }
  for (auto& s : servers) s->Start();

  ASSERT_TRUE(servers[0]->Update("x", "v").ok());
  // Wait (bounded) for the update to spread to all nodes.
  bool spread = false;
  for (int attempt = 0; attempt < 500 && !spread; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    spread = servers[1]->Read("x").ok() && servers[2]->Read("x").ok();
  }
  EXPECT_TRUE(spread);
  for (auto& s : servers) s->Stop();
  for (NodeId i = 0; i < kNodes; ++i) hub_.Register(i, nullptr);
  if (spread) {
    EXPECT_EQ(*servers[1]->Read("x"), "v");
    EXPECT_EQ(*servers[2]->Read("x"), "v");
  }
}

TEST_F(InProcClusterTest, ScanAndStatsRpc) {
  ReplicaClient client(&transport_, 0);
  ASSERT_TRUE(client.Update("a/1", "x").ok());
  ASSERT_TRUE(client.Update("a/2", "y").ok());
  ASSERT_TRUE(client.Update("b/1", "z").ok());

  auto listed = client.Scan("a/");
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  ASSERT_EQ(listed->size(), 2u);
  EXPECT_EQ((*listed)[0].first, "a/1");
  EXPECT_EQ((*listed)[1].second, "y");

  auto limited = client.Scan("", 1);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->size(), 1u);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("replica 0/3"), std::string::npos);
  EXPECT_NE(stats->find("items=3"), std::string::npos);
}

TEST_F(InProcClusterTest, AdminSyncRpcPullsOnDemand) {
  ReplicaClient client0(&transport_, 0);
  ReplicaClient client1(&transport_, 1);
  ASSERT_TRUE(client0.Update("x", "v").ok());
  EXPECT_TRUE(client1.Read("x").status().IsNotFound());
  // Admin-triggered pull: node 1 syncs from node 0 immediately.
  ASSERT_TRUE(client1.TriggerSync(0).ok());
  EXPECT_EQ(*client1.Read("x"), "v");
  // Self-sync rejected; checkpoint rejected on an in-memory server.
  EXPECT_TRUE(client1.TriggerSync(1).IsInvalidArgument());
  EXPECT_TRUE(client1.TriggerCheckpoint().IsFailedPrecondition());
}

TEST_F(InProcClusterTest, MalformedRequestYieldsErrorReply) {
  auto wire = transport_.Call(0, "garbage-bytes");
  ASSERT_TRUE(wire.ok());  // transport succeeded; reply is an error message
  auto decoded = net::Decode(*wire);
  ASSERT_TRUE(decoded.ok());
  auto* reply = std::get_if<net::ClientReply>(&*decoded);
  ASSERT_NE(reply, nullptr);
  EXPECT_NE(reply->code, 0);
}

TEST(DurableServerTest, SurvivesRestartWithReplicatedState) {
  const std::string dir = ::testing::TempDir() + "/durable_server_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  net::InProcHub hub(2);
  net::InProcTransport transport(&hub);
  ReplicaServer peer(1, 2, &transport, {});
  hub.Register(1, &peer);
  ASSERT_TRUE(peer.Update("remote", "from-peer").ok());

  {
    auto durable = JournaledShardedReplica::Open(
        dir, 0, 2, ShardedReplica::kDefaultShards);
    ASSERT_TRUE(durable.ok());
    ReplicaServer server(std::move(*durable), &transport, {});
    EXPECT_TRUE(server.is_durable());
    EXPECT_EQ(server.num_shards(), ShardedReplica::kDefaultShards);
    hub.Register(0, &server);
    ASSERT_TRUE(server.Update("local", "mine").ok());
    ASSERT_TRUE(server.PullFrom(1).ok());
    EXPECT_EQ(*server.Read("remote"), "from-peer");
    hub.Register(0, nullptr);
  }  // crash without checkpoint

  {
    auto recovered = JournaledShardedReplica::Open(
        dir, 0, 2, ShardedReplica::kDefaultShards);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ReplicaServer server(std::move(*recovered), &transport, {});
    hub.Register(0, &server);
    EXPECT_EQ(*server.Read("local"), "mine");
    EXPECT_EQ(*server.Read("remote"), "from-peer");
    // Checkpoint then keep operating.
    ASSERT_TRUE(server.Checkpoint().ok());
    ASSERT_TRUE(server.Update("post", "cp").ok());
    hub.Register(0, nullptr);
  }

  {
    auto again = JournaledShardedReplica::Open(
        dir, 0, 2, ShardedReplica::kDefaultShards);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*(*again)->view().Read("post"), "cp");
    EXPECT_EQ(*(*again)->view().Read("local"), "mine");
    // The shard count is pinned: reopening with a different one is refused.
    EXPECT_TRUE(JournaledShardedReplica::Open(dir, 0, 2, 3)
                    .status()
                    .IsInvalidArgument());
  }
  std::filesystem::remove_all(dir);
}

TEST(DurableServerTest, InMemoryServerRejectsCheckpoint) {
  net::InProcHub hub(2);
  net::InProcTransport transport(&hub);
  ReplicaServer server(0, 2, &transport, {});
  EXPECT_FALSE(server.is_durable());
  EXPECT_TRUE(server.Checkpoint().IsFailedPrecondition());
}

TEST(ShardedServerTest, MismatchedShardCountsRefuseToSync) {
  net::InProcHub hub(2);
  net::InProcTransport transport(&hub);
  ReplicaServer::Options o4, o8;
  o4.num_shards = 4;
  o8.num_shards = 8;
  ReplicaServer s0(0, 2, &transport, o4);
  ReplicaServer s1(1, 2, &transport, o8);
  hub.Register(0, &s0);
  hub.Register(1, &s1);

  ASSERT_TRUE(s0.Update("x", "v").ok());
  // The handshake echoes the peer's shard count; the mismatch is rejected
  // before any state is touched.
  EXPECT_TRUE(s1.PullFrom(0).IsInvalidArgument());
  EXPECT_TRUE(s1.Read("x").status().IsNotFound());
  hub.Register(0, nullptr);
  hub.Register(1, nullptr);
}

TEST(ShardedServerTest, ShardedServerRejectsLegacyHandshake) {
  net::InProcHub hub(2);
  net::InProcTransport transport(&hub);
  ReplicaServer::Options opts;
  opts.num_shards = 4;
  ReplicaServer s0(0, 2, &transport, opts);
  hub.Register(0, &s0);

  // A wire-v1 peer sends a whole-database PropagationRequest; a sharded
  // server cannot answer it meaningfully.
  PropagationRequest legacy;
  legacy.requester = 1;
  legacy.dbvv = VersionVector(2);
  auto wire = transport.Call(0, net::Encode(net::Message(legacy)));
  ASSERT_TRUE(wire.ok());
  auto decoded = net::Decode(*wire);
  ASSERT_TRUE(decoded.ok());
  auto* reply = std::get_if<net::ClientReply>(&*decoded);
  ASSERT_NE(reply, nullptr);
  EXPECT_NE(reply->code, 0);

  // A single-shard server still serves it (wire-v1 compatibility).
  ReplicaServer::Options one;
  one.num_shards = 1;
  ReplicaServer s1(1, 2, &transport, one);
  hub.Register(1, &s1);
  ASSERT_TRUE(s1.Update("y", "w").ok());
  auto wire1 = transport.Call(1, net::Encode(net::Message(legacy)));
  ASSERT_TRUE(wire1.ok());
  auto decoded1 = net::Decode(*wire1);
  ASSERT_TRUE(decoded1.ok());
  EXPECT_NE(std::get_if<PropagationResponse>(&*decoded1), nullptr);
  hub.Register(0, nullptr);
  hub.Register(1, nullptr);
}

TEST(ShardedServerTest, StatsResetRpcIsAtomic) {
  net::InProcHub hub(1);
  net::InProcTransport transport(&hub);
  ReplicaServer server(0, 1, &transport, {});
  hub.Register(0, &server);
  ReplicaClient client(&transport, 0);

  ASSERT_TRUE(client.Update("a", "1").ok());
  ASSERT_TRUE(client.Update("b", "2").ok());
  auto snapshot = client.ResetStats();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_NE(snapshot->find("updates=2+0aux"), std::string::npos) << *snapshot;
  // Counters were zeroed in the same critical section.
  auto after = client.Stats();
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->find("updates=0+0aux"), std::string::npos) << *after;
  EXPECT_EQ(server.TotalStats().updates_regular, 0u);
  hub.Register(0, nullptr);
}

TEST(ShardedServerTest, ParallelShardWorkersConverge) {
  constexpr size_t kNodes = 2;
  net::InProcHub hub(kNodes);
  net::InProcTransport transport(&hub);
  ReplicaServer::Options opts;
  opts.num_shards = 8;
  opts.ae_workers = 3;  // per-shard serve/accept run on a pool
  ReplicaServer s0(0, kNodes, &transport, opts);
  ReplicaServer s1(1, kNodes, &transport, opts);
  hub.Register(0, &s0);
  hub.Register(1, &s1);

  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        s0.Update("item-" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(s1.PullFrom(0).ok());
  for (int i = 0; i < 100; ++i) {
    auto v = s1.Read("item-" + std::to_string(i));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "v" + std::to_string(i));
  }
  s0.WithReplica([](const ShardedReplica& r) {
    EXPECT_TRUE(r.CheckInvariants().ok());
  });
  s1.WithReplica([&s0](const ShardedReplica& r1) {
    EXPECT_TRUE(r1.CheckInvariants().ok());
    s0.WithReplica([&r1](const ShardedReplica& r0) {
      EXPECT_EQ(r0.AggregateDbvv(), r1.AggregateDbvv());
    });
  });
  // A second pull is a no-op round: every shard replies "you are current".
  ASSERT_TRUE(s1.PullFrom(0).ok());
  hub.Register(0, nullptr);
  hub.Register(1, nullptr);
}

TEST(ShardedServerTest, EpochProbeSkipsQuiescentRounds) {
  using runtime::TaskKind;
  net::InProcHub hub(2);
  net::InProcTransport transport(&hub);
  ReplicaServer::Options opts;
  opts.num_shards = 8;
  ReplicaServer s0(0, 2, &transport, opts);
  ReplicaServer s1(1, 2, &transport, opts);
  hub.Register(0, &s0);
  hub.Register(1, &s1);

  ASSERT_TRUE(s0.Update("a", "1").ok());
  // First pull runs the full handshake and caches the source's epoch.
  ASSERT_TRUE(s1.PullFrom(0).ok());
  EXPECT_EQ(*s1.Read("a"), "1");

  const auto serve_kind = static_cast<size_t>(TaskKind::kServe);
  const auto snap_kind = static_cast<size_t>(TaskKind::kSnapshot);
  const uint64_t serves = s0.SchedulerHealth().tasks_by_kind[serve_kind];
  const uint64_t snaps = s1.SchedulerHealth().tasks_by_kind[snap_kind];

  // Quiescent round: the epoch probe matches, so neither side touches a
  // single shard — no snapshot tasks at the requester, no serve tasks at
  // the source.
  ASSERT_TRUE(s1.PullFrom(0).ok());
  EXPECT_EQ(s0.SchedulerHealth().tasks_by_kind[serve_kind], serves);
  EXPECT_EQ(s1.SchedulerHealth().tasks_by_kind[snap_kind], snaps);

  // A write bumps the source epoch: the probe misses, the requester
  // resends the full handshake, and the update still arrives.
  ASSERT_TRUE(s0.Update("late", "2").ok());
  ASSERT_TRUE(s1.PullFrom(0).ok());
  EXPECT_EQ(*s1.Read("late"), "2");
  EXPECT_GT(s0.SchedulerHealth().tasks_by_kind[serve_kind], serves);

  hub.Register(0, nullptr);
  hub.Register(1, nullptr);
}

// A restarted node counts mutations again from its first epoch. If that
// were the same in every run, a peer's epoch cached from the previous run
// could match the new one after the same number of writes, the O(1) probe
// would answer "nothing new", and the peer would never pull the new writes.
TEST(DurableServerTest, PeersConvergeAcrossRepeatedRestartsOfOneNode) {
  constexpr size_t kNodes = 3;
  constexpr int kWritesPerRun = 4;
  constexpr int kRuns = 3;  // the first run, then two restarts
  const std::string dir = ::testing::TempDir() + "/repeated_restart_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  net::InProcHub hub(kNodes);
  net::InProcTransport transport(&hub);
  ReplicaServer peer1(1, kNodes, &transport, {});
  ReplicaServer peer2(2, kNodes, &transport, {});
  hub.Register(1, &peer1);
  hub.Register(2, &peer2);

  for (int run = 0; run < kRuns; ++run) {
    auto durable = JournaledShardedReplica::Open(
        dir, 0, kNodes, ShardedReplica::kDefaultShards);
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    ReplicaServer node0(std::move(*durable), &transport, {});
    hub.Register(0, &node0);
    for (int w = 0; w < kWritesPerRun; ++w) {
      ASSERT_TRUE(node0
                      .Update("run" + std::to_string(run) + "-" +
                                  std::to_string(w),
                              "v")
                      .ok());
    }
    ASSERT_TRUE(peer1.PullFrom(0).ok());
    ASSERT_TRUE(peer2.PullFrom(0).ok());
    hub.Register(0, nullptr);
  }  // every run ends in a "kill": no checkpoint, recovery from the journal

  for (ReplicaServer* peer : {&peer1, &peer2}) {
    peer->WithReplica([](const ShardedReplica& r) {
      EXPECT_EQ(r.AggregateDbvv()[0],
                static_cast<UpdateCount>(kWritesPerRun * kRuns));
    });
    Result<std::string> last = peer->Read("run2-3");
    ASSERT_TRUE(last.ok()) << last.status().ToString();
    EXPECT_EQ(*last, "v");
  }
  hub.Register(1, nullptr);
  hub.Register(2, nullptr);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// The same server stack over real TCP sockets.

TEST(TcpClusterTest, EndToEndReplicationOverSockets) {
  constexpr size_t kNodes = 2;
  net::TcpTransport transport(kNodes);

  ReplicaServer::Options opts0, opts1;
  opts0.peers = {1};
  opts1.peers = {0};
  ReplicaServer s0(0, kNodes, &transport, opts0);
  ReplicaServer s1(1, kNodes, &transport, opts1);

  net::TcpServer tcp0(&s0), tcp1(&s1);
  ASSERT_TRUE(tcp0.Start(0).ok());
  ASSERT_TRUE(tcp1.Start(0).ok());
  transport.SetPeerPort(0, tcp0.port());
  transport.SetPeerPort(1, tcp1.port());

  ReplicaClient client0(&transport, 0);
  ASSERT_TRUE(client0.Update("k", "over-tcp").ok());

  ASSERT_TRUE(s1.PullFrom(0).ok());
  ReplicaClient client1(&transport, 1);
  auto v = client1.Read("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "over-tcp");

  // Identical replicas: another pull is a no-op and leaves state equal.
  ASSERT_TRUE(s1.PullFrom(0).ok());
  s0.WithReplica([&s1](const ShardedReplica& r0) {
    s1.WithReplica([&r0](const ShardedReplica& r1) {
      EXPECT_EQ(r0.AggregateDbvv(), r1.AggregateDbvv());
    });
  });

  tcp0.Stop();
  tcp1.Stop();
}

TEST(TcpClusterTest, OobFetchOverSockets) {
  constexpr size_t kNodes = 2;
  net::TcpTransport transport(kNodes);
  ReplicaServer s0(0, kNodes, &transport, {});
  ReplicaServer s1(1, kNodes, &transport, {});
  net::TcpServer tcp0(&s0), tcp1(&s1);
  ASSERT_TRUE(tcp0.Start(0).ok());
  ASSERT_TRUE(tcp1.Start(0).ok());
  transport.SetPeerPort(0, tcp0.port());
  transport.SetPeerPort(1, tcp1.port());

  ASSERT_TRUE(s0.Update("doc", "payload").ok());
  ASSERT_TRUE(s1.OobFetch(0, "doc").ok());
  EXPECT_EQ(*s1.Read("doc"), "payload");

  tcp0.Stop();
  tcp1.Stop();
}

// Pulls at one node may be started from several places at once: its own
// anti-entropy loop and any number of `sync` requests. Each must see the
// previous one's result; overlapping, the later accept would get tails
// below the DBVV the earlier one just advanced, and be rejected.
TEST(TcpClusterTest, ConcurrentSyncsOnDurableNodeAllSucceed) {
  constexpr size_t kNodes = 2;
  constexpr int kSyncThreads = 4;
  constexpr int kSyncsPerThread = 40;
  const std::string dir = ::testing::TempDir() + "/concurrent_sync_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  net::TcpTransport transport(kNodes);
  ReplicaServer source(1, kNodes, &transport, {});
  net::TcpServer tcp1(&source);
  ASSERT_TRUE(tcp1.Start(0).ok());
  transport.SetPeerPort(1, tcp1.port());

  VersionVector dbvv_before_restart;
  {
    auto durable = JournaledShardedReplica::Open(
        dir, 0, kNodes, ShardedReplica::kDefaultShards);
    ASSERT_TRUE(durable.ok());
    ReplicaServer::Options opts;
    opts.peers = {1};
    opts.anti_entropy_interval_micros = 100;
    ReplicaServer node0(std::move(*durable), &transport, opts);
    net::TcpServer tcp0(&node0);
    ASSERT_TRUE(tcp0.Start(0).ok());
    transport.SetPeerPort(0, tcp0.port());
    node0.Start();

    std::atomic<bool> writing{true};
    std::thread writer([&source, &writing] {
      for (int i = 0; writing.load(); ++i) {
        ASSERT_TRUE(source.Update("k" + std::to_string(i % 64),
                                  "v" + std::to_string(i))
                        .ok());
      }
    });
    std::vector<std::thread> syncers;
    for (int t = 0; t < kSyncThreads; ++t) {
      syncers.emplace_back([&transport] {
        ReplicaClient client(&transport, 0);
        for (int i = 0; i < kSyncsPerThread; ++i) {
          Status s = client.TriggerSync(1);
          EXPECT_TRUE(s.ok()) << s.ToString();
        }
      });
    }
    for (auto& t : syncers) t.join();
    writing.store(false);
    writer.join();
    node0.Stop();

    ASSERT_TRUE(node0.PullFrom(1).ok());
    node0.WithReplica([&](const ShardedReplica& r) {
      dbvv_before_restart = r.AggregateDbvv();
    });
    source.WithReplica([&](const ShardedReplica& r) {
      EXPECT_EQ(r.AggregateDbvv(), dbvv_before_restart);
    });
    tcp0.Stop();
  }  // "kill": no checkpoint

  auto reopened = JournaledShardedReplica::Open(
      dir, 0, kNodes, ShardedReplica::kDefaultShards);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->view().AggregateDbvv(), dbvv_before_restart);
  tcp1.Stop();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace epidemic::server
