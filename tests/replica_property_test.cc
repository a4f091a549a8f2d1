// Property-based tests driving the protocol through long randomized
// schedules and checking the §2.1 correctness criteria plus the structural
// invariants of §4 after every step.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "core/replica.h"
#include "core/snapshot.h"

namespace epidemic {
namespace {

Status OobFetch(Replica& source, Replica& dest, std::string_view item) {
  OobRequest req = dest.BuildOobRequest(item);
  OobResponse resp = source.HandleOobRequest(req);
  return dest.AcceptOobResponse(resp);
}

// A conflict-free world: each node writes only its own key range, so every
// pair of copies is always ordered and the system must converge with zero
// conflicts (criteria 2 and 3 of §2.1 in their strongest form).
class ConflictFreeScheduleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConflictFreeScheduleTest, RandomScheduleConvergesWithoutConflicts) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const size_t n = 2 + rng.Uniform(4);       // 2..5 nodes
  const size_t items_per_node = 1 + rng.Uniform(5);
  const int steps = 300;

  RecordingConflictListener conflicts;
  std::vector<std::unique_ptr<Replica>> nodes;
  for (NodeId i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<Replica>(i, n, &conflicts));
  }
  // Ground truth: last value written per item.
  std::map<std::string, std::string> truth;

  uint64_t op_counter = 0;
  for (int step = 0; step < steps; ++step) {
    NodeId actor = static_cast<NodeId>(rng.Uniform(n));
    double dice = rng.NextDouble();
    if (dice < 0.42) {
      // Update an item owned by the actor.
      std::string item = "n" + std::to_string(actor) + "-k" +
                         std::to_string(rng.Uniform(items_per_node));
      std::string value = "v" + std::to_string(++op_counter);
      ASSERT_TRUE(nodes[actor]->Update(item, value).ok());
      truth[item] = value;
    } else if (dice < 0.5) {
      // Delete an item owned by the actor (tombstone update).
      std::string item = "n" + std::to_string(actor) + "-k" +
                         std::to_string(rng.Uniform(items_per_node));
      ASSERT_TRUE(nodes[actor]->Delete(item).ok());
      truth.erase(item);
    } else if (dice < 0.9) {
      // Anti-entropy pull from a random peer.
      NodeId peer = static_cast<NodeId>(rng.Uniform(n));
      if (peer == actor) continue;
      ASSERT_TRUE(PropagateOnce(*nodes[peer], *nodes[actor]).ok());
    } else if (dice < 0.96) {
      // Out-of-bound fetch of a random existing item from a random peer.
      NodeId peer = static_cast<NodeId>(rng.Uniform(n));
      if (peer == actor || truth.empty()) continue;
      auto it = truth.begin();
      std::advance(it, static_cast<long>(rng.Uniform(truth.size())));
      Status s = OobFetch(*nodes[peer], *nodes[actor], it->first);
      ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
    } else {
      // "Restart" a node through a snapshot round-trip: the recovered
      // replica must carry the schedule forward indistinguishably.
      auto restored =
          DecodeSnapshot(EncodeSnapshot(*nodes[actor]), &conflicts);
      ASSERT_TRUE(restored.ok())
          << "seed=" << seed << " step=" << step << ": "
          << restored.status().ToString();
      nodes[actor] = std::move(*restored);
    }
    // Structural invariants hold after every step.
    for (const auto& node : nodes) {
      ASSERT_TRUE(node->CheckInvariants().ok())
          << "seed=" << seed << " step=" << step << ": "
          << node->CheckInvariants().ToString();
    }
  }

  // Quiesce: update activity stops; schedule transitive propagation (ring
  // passes) until fixpoint. Criterion 3: everything converges.
  for (size_t round = 0; round < 4 * n; ++round) {
    for (NodeId i = 0; i < n; ++i) {
      NodeId src = static_cast<NodeId>((i + 1) % n);
      ASSERT_TRUE(PropagateOnce(*nodes[src], *nodes[i]).ok());
    }
  }

  EXPECT_EQ(conflicts.count(), 0u) << "seed=" << seed;
  for (NodeId i = 0; i < n; ++i) {
    ASSERT_TRUE(nodes[i]->CheckInvariants().ok());
    EXPECT_EQ(nodes[i]->dbvv(), nodes[0]->dbvv()) << "seed=" << seed;
    // No auxiliary leftovers once everything caught up.
    EXPECT_EQ(nodes[i]->aux_log().size(), 0u) << "seed=" << seed;
    for (const auto& [item, value] : truth) {
      auto read = nodes[i]->Read(item);
      ASSERT_TRUE(read.ok()) << "seed=" << seed << " item=" << item;
      EXPECT_EQ(*read, value)
          << "seed=" << seed << " node=" << i << " item=" << item;
    }
    // Every deleted item reads NotFound everywhere (tombstones won).
    for (const auto& item : nodes[0]->items()) {
      if (item->deleted) {
        EXPECT_TRUE(nodes[i]->Read(item->name).status().IsNotFound())
            << "seed=" << seed << " node=" << i << " item=" << item->name;
      }
    }
  }

  // And once converged, every pairwise exchange is a constant-time no-op.
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      if (i == j) continue;
      nodes[j]->ResetStats();
      auto copied = PropagateOnce(*nodes[j], *nodes[i]);
      ASSERT_TRUE(copied.ok());
      EXPECT_EQ(*copied, 0u);
      EXPECT_EQ(nodes[j]->stats().you_are_current_replies, 1u);
      EXPECT_EQ(nodes[j]->stats().log_records_selected, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConflictFreeScheduleTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// An adversarial world: all nodes write the same small key space, so
// conflicts are common. The protocol must keep its structural invariants,
// detect (not mask) conflicts, and never adopt a non-dominating copy.
class ConflictingScheduleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConflictingScheduleTest, InvariantsHoldAndConflictsAreDetectedNotMasked) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 7919);
  const size_t n = 2 + rng.Uniform(3);
  const int steps = 250;

  RecordingConflictListener conflicts;
  std::vector<std::unique_ptr<Replica>> nodes;
  for (NodeId i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<Replica>(i, n, &conflicts));
  }
  // All values ever written, for the no-corruption check.
  std::map<std::string, std::vector<std::string>> written;

  uint64_t op_counter = 0;
  for (int step = 0; step < steps; ++step) {
    NodeId actor = static_cast<NodeId>(rng.Uniform(n));
    if (rng.NextDouble() < 0.45) {
      std::string item = "k" + std::to_string(rng.Uniform(3));  // tiny space
      std::string value = "v" + std::to_string(++op_counter) + "@" +
                          std::to_string(actor);
      ASSERT_TRUE(nodes[actor]->Update(item, value).ok());
      written[item].push_back(value);
    } else {
      NodeId peer = static_cast<NodeId>(rng.Uniform(n));
      if (peer == actor) continue;
      ASSERT_TRUE(PropagateOnce(*nodes[peer], *nodes[actor]).ok());
    }
    for (const auto& node : nodes) {
      ASSERT_TRUE(node->CheckInvariants().ok())
          << "seed=" << seed << " step=" << step;
    }
  }

  // Every visible value must be something some client actually wrote —
  // update propagation can reorder visibility but never invent data.
  for (const auto& node : nodes) {
    for (const auto& [item, values] : written) {
      auto read = node->Read(item);
      if (!read.ok()) continue;  // node may not have heard of the item
      if (read->empty()) continue;  // never-updated regular copy
      bool known = false;
      for (const auto& v : values) known |= (v == *read);
      EXPECT_TRUE(known) << "seed=" << seed << " item=" << item
                         << " phantom value '" << *read << "'";
    }
  }

  // With this much same-key concurrency, conflicts must have been detected
  // (never silently merged) in at least one schedule step.
  if (n >= 2) {
    EXPECT_GT(conflicts.count() + 0u, 0u) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConflictingScheduleTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

// ---------------------------------------------------------------------------
// The forged-tail check starts its merge-scan at the end of each origin log
// (O(records beyond the horizon)) instead of its head (O(|L[k]|)). It must
// reach exactly the verdict of the head-first scan on every response —
// legitimate, forged with reused seqs, or malformed — including logs that
// hold records beyond DBVV[k], which only conflicts produce.

// The validation as it ran with the merge-scan starting at head(): the
// reference the end-first walk is checked against.
Status HeadFirstValidate(const Replica& r, const PropagationResponseView& resp) {
  const size_t n = r.num_nodes();
  if (resp.tails.size() != n) {
    return Status::InvalidArgument(
        "tail vector has " + std::to_string(resp.tails.size()) +
        " components, expected " + std::to_string(n));
  }
  std::unordered_set<std::string_view> item_names;
  for (const WireItemView& wi : resp.items) {
    if (wi.name.empty()) {
      return Status::InvalidArgument("empty item name in response");
    }
    if (wi.ivv == nullptr || wi.ivv->size() != n) {
      return Status::InvalidArgument("received IVV of wrong width for item '" +
                                     std::string(wi.name) + "'");
    }
    if (!item_names.insert(wi.name).second) {
      return Status::InvalidArgument("duplicate item '" + std::string(wi.name) +
                                     "' in response");
    }
  }
  for (NodeId k = 0; k < n; ++k) {
    UpdateCount prev = r.dbvv()[k];
    for (const WireLogRecordView& rec : resp.tails[k]) {
      if (rec.seq <= prev) {
        return Status::InvalidArgument(
            "tail for origin " + std::to_string(k) +
            " is not an ordered suffix beyond our horizon");
      }
      prev = rec.seq;
      if (!item_names.contains(rec.item_name)) {
        return Status::InvalidArgument("tail record references item '" +
                                       std::string(rec.item_name) +
                                       "' not shipped in S");
      }
    }
    const LogRecord* existing = r.log_vector().ForOrigin(k).head();
    for (const WireLogRecordView& rec : resp.tails[k]) {
      while (existing != nullptr && existing->seq < rec.seq) {
        existing = existing->next;
      }
      if (existing != nullptr && existing->seq == rec.seq &&
          r.items().Get(existing->item).name != rec.item_name) {
        return Status::InvalidArgument(
            "tail record for origin " + std::to_string(k) + " reuses seq " +
            std::to_string(rec.seq) + " held by item '" +
            r.items().Get(existing->item).name + "'");
      }
    }
  }
  return Status::OK();
}

// Builds random responses against one recipient. Seqs are drawn mostly
// from what the recipient's logs hold beyond its DBVV, so the merge-scan
// is the check that decides; names are the holder's or another item of S.
class ForgedTailGenerator {
 public:
  ForgedTailGenerator(const Replica& r, Rng& rng) : r_(r), rng_(rng) {}

  PropagationResponseView Next() {
    const size_t n = r_.num_nodes();
    PropagationResponseView resp;
    resp.tails.resize(n);
    std::vector<std::string_view> s_names;
    const auto add_to_s = [&](std::string_view name) {
      if (std::find(s_names.begin(), s_names.end(), name) == s_names.end()) {
        s_names.push_back(name);
      }
    };
    const size_t extra = rng_.Uniform(3);
    for (size_t i = 0; i < extra; ++i) add_to_s(RandomName());
    for (NodeId k = 0; k < n; ++k) {
      if (rng_.Bernoulli(0.4)) continue;
      const std::vector<const LogRecord*> log = LogOf(k);
      const UpdateCount horizon = r_.dbvv()[k];
      std::vector<UpdateCount> seqs;
      const size_t count = 1 + rng_.Uniform(4);
      for (size_t i = 0; i < count; ++i) {
        const double dice = rng_.NextDouble();
        if (dice < 0.6 && !log.empty()) {
          seqs.push_back(log[rng_.Uniform(log.size())]->seq);
        } else if (dice < 0.95) {
          seqs.push_back(horizon + 1 + rng_.Uniform(3));
        } else {
          seqs.push_back(rng_.Uniform(horizon + 1));  // at or below horizon
        }
      }
      if (!rng_.Bernoulli(0.05)) {  // now and then leave it out of order
        std::sort(seqs.begin(), seqs.end());
        seqs.erase(std::unique(seqs.begin(), seqs.end()), seqs.end());
      }
      for (UpdateCount seq : seqs) {
        std::string_view name = RandomName();
        if (rng_.Bernoulli(0.5)) {
          for (const LogRecord* rec : log) {
            if (rec->seq == seq) name = r_.items().Get(rec->item).name;
          }
        }
        add_to_s(name);
        resp.tails[k].push_back(WireLogRecordView{name, seq, 0});
      }
    }
    ivvs_.emplace_back(n);
    for (std::string_view name : s_names) {
      resp.items.push_back(WireItemView{name, "v", false, &ivvs_.back()});
    }
    return resp;
  }

 private:
  std::vector<const LogRecord*> LogOf(NodeId k) const {
    std::vector<const LogRecord*> out;
    for (const LogRecord* r = r_.log_vector().ForOrigin(k).head(); r != nullptr;
         r = r->next) {
      out.push_back(r);
    }
    return out;
  }

  std::string_view RandomName() {
    if (r_.items().size() > 0 && rng_.Bernoulli(0.8)) {
      return r_.items().Get(static_cast<ItemId>(rng_.Uniform(
                                r_.items().size())))
          .name;
    }
    names_.push_back("fresh" + std::to_string(rng_.Uniform(4)));
    return names_.back();
  }

  const Replica& r_;
  Rng& rng_;
  std::deque<std::string> names_;     // backing for invented names
  std::deque<VersionVector> ivvs_;    // backing for the S entries' IVVs
};

class TailWalkEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TailWalkEquivalenceTest, EndFirstWalkMatchesHeadFirstScan) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 104729);
  const size_t n = 2 + rng.Uniform(3);
  RecordingConflictListener conflicts;
  std::vector<std::unique_ptr<Replica>> nodes;
  for (NodeId i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<Replica>(i, n, &conflicts));
  }

  size_t cases = 0, accepted = 0, reused_seq = 0, beyond_horizon_logs = 0;
  uint64_t op_counter = 0;
  for (int step = 0; step < 200; ++step) {
    // A conflicting schedule: a small shared key space, so records dropped
    // by conflicts leave logs holding seqs beyond DBVV[k].
    const NodeId actor = static_cast<NodeId>(rng.Uniform(n));
    if (rng.NextDouble() < 0.45) {
      const std::string item = "k" + std::to_string(rng.Uniform(6));
      ASSERT_TRUE(
          nodes[actor]->Update(item, "v" + std::to_string(++op_counter)).ok());
    } else {
      const NodeId peer = static_cast<NodeId>(rng.Uniform(n));
      if (peer != actor) {
        ASSERT_TRUE(PropagateOnce(*nodes[peer], *nodes[actor]).ok());
      }
    }

    const Replica& r = *nodes[actor];
    for (NodeId k = 0; k < n; ++k) {
      const LogRecord* last = r.log_vector().ForOrigin(k).tail();
      if (last != nullptr && last->seq > r.dbvv()[k]) ++beyond_horizon_logs;
    }
    // The legitimate response from every peer...
    for (NodeId peer = 0; peer < n; ++peer) {
      if (peer == actor) continue;
      const PropagationResponseView& legit =
          nodes[peer]->HandlePropagationView(r.BuildPropagationRequest());
      if (legit.you_are_current) continue;
      const Status got = r.ValidatePropagationResponse(legit);
      ASSERT_EQ(got.ToString(), HeadFirstValidate(r, legit).ToString())
          << "seed=" << seed << " step=" << step << " legit from " << peer;
      ++cases;
    }
    // ...and a batch of forged ones.
    ForgedTailGenerator gen(r, rng);
    for (int i = 0; i < 20; ++i) {
      const PropagationResponseView forged = gen.Next();
      const Status got = r.ValidatePropagationResponse(forged);
      const Status want = HeadFirstValidate(r, forged);
      ASSERT_EQ(got.ToString(), want.ToString())
          << "seed=" << seed << " step=" << step << " forged case " << i;
      ++cases;
      if (got.ok()) ++accepted;
      if (got.message().find("reuses seq") != std::string::npos) ++reused_seq;
    }
  }
  // The generator must have exercised the verdicts that matter: accepts,
  // and rejects that only the merge-scan catches, on post-conflict logs.
  EXPECT_GT(cases, 0u);
  EXPECT_GT(accepted, 0u) << "seed=" << seed;
  EXPECT_GT(reused_seq, 0u) << "seed=" << seed;
  EXPECT_GT(beyond_horizon_logs, 0u) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TailWalkEquivalenceTest,
                         ::testing::Range(uint64_t{1}, uint64_t{17}));

}  // namespace
}  // namespace epidemic
