#include "core/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "common/random.h"
#include "core/replica.h"
#include "core/wire.h"

namespace epidemic {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/journal_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

// Runs one full anti-entropy pull from `source` into the journaled `jr`.
Status Pull(Replica& source, JournaledReplica& jr) {
  PropagationRequest req = jr.BuildPropagationRequest();
  PropagationResponse resp = source.HandlePropagationRequest(req);
  return jr.AcceptPropagation(resp);
}

TEST_F(JournalTest, OpenFreshDirectory) {
  auto jr = JournaledReplica::Open(dir_, 0, 3);
  ASSERT_TRUE(jr.ok()) << jr.status().ToString();
  EXPECT_EQ((*jr)->replica().id(), 0u);
  EXPECT_EQ((*jr)->records_since_checkpoint(), 0u);
}

TEST_F(JournalTest, OpenNonDirectoryFails) {
  auto jr = JournaledReplica::Open(dir_ + "/nope", 0, 3);
  EXPECT_TRUE(jr.status().IsInvalidArgument());
}

TEST_F(JournalTest, UpdatesSurviveRestart) {
  {
    auto jr = JournaledReplica::Open(dir_, 0, 2);
    ASSERT_TRUE(jr.ok());
    ASSERT_TRUE((*jr)->Update("x", "v1").ok());
    ASSERT_TRUE((*jr)->Update("y", "v2").ok());
    ASSERT_TRUE((*jr)->Delete("y").ok());
    EXPECT_EQ((*jr)->records_since_checkpoint(), 3u);
  }  // "crash": destructor, no checkpoint

  auto recovered = JournaledReplica::Open(dir_, 0, 2);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*(*recovered)->Read("x"), "v1");
  EXPECT_TRUE((*recovered)->Read("y").status().IsNotFound());
  EXPECT_TRUE((*recovered)->replica().CheckInvariants().ok());
  // Replay reproduces the exact protocol state, not just user-visible data.
  EXPECT_EQ((*recovered)->replica().dbvv().Total(), 3u);
}

TEST_F(JournalTest, PropagationInputsSurviveRestart) {
  Replica peer(1, 2);
  ASSERT_TRUE(peer.Update("remote", "from-peer").ok());

  std::string dbvv_before;
  {
    auto jr = JournaledReplica::Open(dir_, 0, 2);
    ASSERT_TRUE(jr.ok());
    ASSERT_TRUE((*jr)->Update("local", "mine").ok());
    ASSERT_TRUE(Pull(peer, **jr).ok());
    dbvv_before = (*jr)->replica().dbvv().ToString();
  }

  auto recovered = JournaledReplica::Open(dir_, 0, 2);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*(*recovered)->Read("remote"), "from-peer");
  EXPECT_EQ(*(*recovered)->Read("local"), "mine");
  EXPECT_EQ((*recovered)->replica().dbvv().ToString(), dbvv_before);
  // Recovered replica resumes anti-entropy exactly where it stopped: an
  // exchange with the unchanged peer is a no-op.
  peer.ResetStats();
  ASSERT_TRUE(Pull(peer, **recovered).ok());
  EXPECT_EQ(peer.stats().you_are_current_replies, 1u);
}

TEST_F(JournalTest, OobInputsSurviveRestart) {
  Replica peer(1, 2);
  ASSERT_TRUE(peer.Update("hot", "h1").ok());
  {
    auto jr = JournaledReplica::Open(dir_, 0, 2);
    ASSERT_TRUE(jr.ok());
    OobRequest req = (*jr)->BuildOobRequest("hot");
    OobResponse resp = peer.HandleOobRequest(req);
    ASSERT_TRUE((*jr)->AcceptOobResponse(resp).ok());
    ASSERT_TRUE((*jr)->Update("hot", "h2").ok());  // aux update, journaled
  }
  auto recovered = JournaledReplica::Open(dir_, 0, 2);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*(*recovered)->Read("hot"), "h2");
  EXPECT_TRUE((*recovered)->replica().FindItem("hot")->HasAux());
  EXPECT_EQ((*recovered)->replica().aux_log().size(), 1u);
}

TEST_F(JournalTest, V3SegmentInputsSurviveRestart) {
  Replica peer(1, 2);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(peer.Update("k" + std::to_string(i), "v" + std::to_string(i))
                    .ok());
  }

  std::string canonical_before;
  {
    auto jr = JournaledReplica::Open(dir_, 0, 2);
    ASSERT_TRUE(jr.ok());
    ASSERT_TRUE((*jr)->Update("local", "mine").ok());
    // A real v3 segment: serve the view at the peer, encode it against the
    // peer's DBVV, and journal-accept the raw body.
    PropagationRequest req = (*jr)->BuildPropagationRequest();
    const PropagationResponseView& view = peer.HandlePropagationView(req);
    std::string body;
    wire::EncodeShardSegmentBodyV3(view, peer.dbvv(), wire::V3SegmentOptions{},
                                   nullptr, &body);
    ASSERT_TRUE((*jr)->AcceptPropagationSegmentV3(body).ok());
    EXPECT_EQ((*jr)->records_since_checkpoint(), 2u);
    canonical_before = (*jr)->replica().CanonicalState();
  }  // "crash": destructor, no checkpoint

  // Replay decodes the stored segment body through the same zero-copy
  // path and must land on the identical protocol state.
  auto recovered = JournaledReplica::Open(dir_, 0, 2);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->replica().CanonicalState(), canonical_before);
  EXPECT_EQ(*(*recovered)->Read("k3"), "v3");
  EXPECT_EQ(*(*recovered)->Read("local"), "mine");
  EXPECT_TRUE((*recovered)->replica().CheckInvariants().ok());
}

TEST_F(JournalTest, CorruptV3SegmentIsRejectedBeforeJournaling) {
  Replica peer(1, 2);
  ASSERT_TRUE(peer.Update("x", "v").ok());
  auto jr = JournaledReplica::Open(dir_, 0, 2);
  ASSERT_TRUE(jr.ok());

  PropagationRequest req = (*jr)->BuildPropagationRequest();
  const PropagationResponseView& view = peer.HandlePropagationView(req);
  std::string body;
  wire::EncodeShardSegmentBodyV3(view, peer.dbvv(), wire::V3SegmentOptions{},
                                 nullptr, &body);
  body[0] = static_cast<char>(body[0] | 0x80);  // unknown flag bit
  EXPECT_FALSE((*jr)->AcceptPropagationSegmentV3(body).ok());
  // Validation happens before the append: the journal holds no record of
  // the rejected body, so recovery can never trip over it.
  EXPECT_EQ((*jr)->records_since_checkpoint(), 0u);
  EXPECT_TRUE((*jr)->Read("x").status().IsNotFound());
}

// Two responses built for the same request: once the first is accepted,
// the second's tails lie at or below the DBVV and the replica rejects it.
// The reject must happen before the append, or the journal keeps a record
// that fails again on every replay and the directory no longer opens.
TEST_F(JournalTest, RejectedResponseIsNotJournaled) {
  Replica peer(1, 2);
  ASSERT_TRUE(peer.Update("a", "1").ok());
  ASSERT_TRUE(peer.Update("b", "2").ok());

  std::string canonical_before;
  {
    auto jr = JournaledReplica::Open(dir_, 0, 2);
    ASSERT_TRUE(jr.ok());
    const PropagationRequest req = (*jr)->BuildPropagationRequest();
    const PropagationResponse owned = peer.HandlePropagationRequest(req);
    std::string body;
    wire::EncodeShardSegmentBodyV3(peer.HandlePropagationView(req),
                                   peer.dbvv(), wire::V3SegmentOptions{},
                                   nullptr, &body);

    ASSERT_TRUE((*jr)->AcceptPropagation(owned).ok());
    EXPECT_EQ((*jr)->records_since_checkpoint(), 1u);
    canonical_before = (*jr)->replica().CanonicalState();

    EXPECT_TRUE((*jr)->AcceptPropagation(owned).IsInvalidArgument());
    EXPECT_TRUE((*jr)->AcceptPropagationSegmentV3(body).IsInvalidArgument());
    EXPECT_EQ((*jr)->records_since_checkpoint(), 1u);
    EXPECT_EQ((*jr)->replica().CanonicalState(), canonical_before);
  }

  auto recovered = JournaledReplica::Open(dir_, 0, 2);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->replica().CanonicalState(), canonical_before);
  EXPECT_EQ(*(*recovered)->Read("b"), "2");
}

TEST_F(JournalTest, CheckpointTruncatesJournal) {
  {
    auto jr = JournaledReplica::Open(dir_, 0, 2);
    ASSERT_TRUE(jr.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*jr)->Update("k" + std::to_string(i), "v").ok());
    }
    ASSERT_TRUE((*jr)->Checkpoint().ok());
    EXPECT_EQ((*jr)->records_since_checkpoint(), 0u);
    ASSERT_TRUE((*jr)->Update("post", "checkpoint").ok());
    EXPECT_EQ((*jr)->records_since_checkpoint(), 1u);
  }
  auto recovered = JournaledReplica::Open(dir_, 0, 2);
  ASSERT_TRUE(recovered.ok());
  // Snapshot carried the first 20; the journal suffix carried the rest.
  EXPECT_EQ((*recovered)->records_since_checkpoint(), 1u);
  EXPECT_EQ(*(*recovered)->Read("k7"), "v");
  EXPECT_EQ(*(*recovered)->Read("post"), "checkpoint");
  EXPECT_EQ((*recovered)->replica().dbvv().Total(), 21u);
}

TEST_F(JournalTest, WrongIdentityRejectedAfterCheckpoint) {
  {
    auto jr = JournaledReplica::Open(dir_, 0, 2);
    ASSERT_TRUE(jr.ok());
    ASSERT_TRUE((*jr)->Update("x", "v").ok());
    ASSERT_TRUE((*jr)->Checkpoint().ok());
  }
  EXPECT_TRUE(JournaledReplica::Open(dir_, 1, 2).status().IsInvalidArgument());
  EXPECT_TRUE(JournaledReplica::Open(dir_, 0, 5).status().IsInvalidArgument());
}

TEST_F(JournalTest, TornFinalRecordIgnored) {
  {
    auto jr = JournaledReplica::Open(dir_, 0, 2);
    ASSERT_TRUE(jr.ok());
    ASSERT_TRUE((*jr)->Update("x", "v1").ok());
    ASSERT_TRUE((*jr)->Update("y", "v2").ok());
  }
  // Simulate a crash mid-append: chop bytes off the journal tail.
  std::string path = dir_ + "/journal.log";
  auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 3);

  auto recovered = JournaledReplica::Open(dir_, 0, 2);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*(*recovered)->Read("x"), "v1");
  // The torn second record is gone, but the replica is consistent.
  EXPECT_TRUE((*recovered)->Read("y").status().IsNotFound());
  EXPECT_TRUE((*recovered)->replica().CheckInvariants().ok());
}

TEST_F(JournalTest, CorruptedMiddleRecordStopsReplayAtGoodPrefix) {
  {
    auto jr = JournaledReplica::Open(dir_, 0, 2);
    ASSERT_TRUE(jr.ok());
    ASSERT_TRUE((*jr)->Update("a", "1").ok());
    ASSERT_TRUE((*jr)->Update("b", "2").ok());
    ASSERT_TRUE((*jr)->Update("c", "3").ok());
  }
  // Flip one byte inside the second record's payload.
  std::string path = dir_ + "/journal.log";
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, size / 2, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, size / 2, SEEK_SET);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);

  auto recovered = JournaledReplica::Open(dir_, 0, 2);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  // The prefix before the corrupted record replayed; the rest did not.
  // (The CRC catches the flip no matter which frame byte it hit.)
  EXPECT_EQ(*(*recovered)->Read("a"), "1");
  EXPECT_TRUE((*recovered)->replica().CheckInvariants().ok());
  EXPECT_LT((*recovered)->replica().dbvv().Total(), 3u);
}

TEST_F(JournalTest, RandomizedCrashRecoveryEquivalence) {
  // Mirror every journaled operation on an in-memory twin; at a random
  // point "crash" (drop the JournaledReplica), recover, and compare.
  Rng rng(2024);
  Replica peer(1, 2);
  Replica twin(0, 2);
  {
    auto jr_or = JournaledReplica::Open(dir_, 0, 2);
    ASSERT_TRUE(jr_or.ok());
    JournaledReplica& jr = **jr_or;
    for (int step = 0; step < 120; ++step) {
      double dice = rng.NextDouble();
      if (dice < 0.45) {
        std::string item = "k" + std::to_string(rng.Uniform(6));
        std::string value = "v" + std::to_string(step);
        ASSERT_TRUE(jr.Update(item, value).ok());
        ASSERT_TRUE(twin.Update(item, value).ok());
      } else if (dice < 0.6) {
        std::string item = "k" + std::to_string(rng.Uniform(6));
        ASSERT_TRUE(jr.Delete(item).ok());
        ASSERT_TRUE(twin.Delete(item).ok());
      } else if (dice < 0.8) {
        ASSERT_TRUE(peer.Update("p" + std::to_string(rng.Uniform(4)),
                                "pv" + std::to_string(step))
                        .ok());
      } else {
        PropagationRequest req = jr.BuildPropagationRequest();
        PropagationResponse resp = peer.HandlePropagationRequest(req);
        ASSERT_TRUE(jr.AcceptPropagation(resp).ok());
        ASSERT_TRUE(twin.AcceptPropagation(resp).ok());
      }
      if (step == 60) {
        ASSERT_TRUE(jr.Checkpoint().ok());
      }
    }
  }  // crash

  auto recovered = JournaledReplica::Open(dir_, 0, 2);
  ASSERT_TRUE(recovered.ok());
  const Replica& r = (*recovered)->replica();
  EXPECT_EQ(r.dbvv(), twin.dbvv());
  EXPECT_EQ(r.items().size(), twin.items().size());
  for (const auto& item : twin.items()) {
    const Item* mine = r.FindItem(item->name);
    ASSERT_NE(mine, nullptr) << item->name;
    EXPECT_EQ(mine->value, item->value) << item->name;
    EXPECT_EQ(mine->deleted, item->deleted) << item->name;
    EXPECT_EQ(mine->ivv, item->ivv) << item->name;
  }
  EXPECT_TRUE(r.CheckInvariants().ok());
}

}  // namespace
}  // namespace epidemic
