#include "core/journal.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdlib>
#include <utility>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/logging.h"
#include "core/snapshot.h"
#include "core/wire.h"
#include "vv/vv_codec.h"

namespace epidemic {

namespace {

enum class RecordTag : uint8_t {
  kUpdate = 1,
  kDelete = 2,
  kPropagation = 3,
  kOob = 4,
  kResolve = 5,
  // A raw wire-v3 segment body, journaled verbatim (so the journal pays
  // the same delta/compression savings as the wire) and replayed through
  // the zero-copy decode + view accept. Old journals (tags 1-5) replay
  // unchanged.
  kPropagationSegV3 = 6,
};

std::string JournalPath(const std::string& dir) {
  return dir + "/journal.log";
}
std::string SnapshotPath(const std::string& dir) {
  return dir + "/snapshot.bin";
}

/// Applies one journal record through the replica's normal code paths.
Status ReplayRecord(Replica& replica, std::string_view payload) {
  // Single-owner escape: recovery replays into a freshly constructed
  // replica that Open() has not yet published — no other thread can reach
  // it, so the recovery thread IS the shard's single writer.
  AssertShardContextHeld();
  ByteReader r(payload);
  auto tag = r.GetU8();
  if (!tag.ok()) return tag.status();
  switch (static_cast<RecordTag>(*tag)) {
    case RecordTag::kUpdate: {
      auto name = r.GetString();
      if (!name.ok()) return name.status();
      auto value = r.GetString();
      if (!value.ok()) return value.status();
      return replica.Update(*name, *value);
    }
    case RecordTag::kDelete: {
      auto name = r.GetString();
      if (!name.ok()) return name.status();
      return replica.Delete(*name);
    }
    case RecordTag::kPropagation: {
      auto resp = wire::DecodePropagationResponseBody(r);
      if (!resp.ok()) return resp.status();
      return replica.AcceptPropagation(*resp);
    }
    case RecordTag::kPropagationSegV3: {
      wire::SegmentViewStorage storage;
      PropagationResponseView view;
      Status s = wire::DecodeShardSegmentBodyV3(payload.substr(r.position()),
                                                &storage, &view);
      if (!s.ok()) return s;
      return replica.AcceptPropagation(view);
    }
    case RecordTag::kOob: {
      auto resp = wire::DecodeOobResponseBody(r);
      if (!resp.ok()) return resp.status();
      return replica.AcceptOobResponse(*resp);
    }
    case RecordTag::kResolve: {
      auto name = r.GetString();
      if (!name.ok()) return name.status();
      auto vv = DecodeVersionVector(&r);
      if (!vv.ok()) return vv.status();
      auto value = r.GetString();
      if (!value.ok()) return value.status();
      Status s = replica.ResolveConflict(*name, *vv, *value);
      // A resolve that failed live (stale vector, item out-of-bound) fails
      // identically on replay — a faithful no-op, not corruption.
      if (s.IsInvalidArgument() || s.IsFailedPrecondition()) {
        return Status::OK();
      }
      return s;
    }
  }
  return Status::Corruption("unknown journal record tag");
}

}  // namespace

Result<uint64_t> ReplayJournalBytes(Replica& replica, std::string_view data) {
  uint64_t replayed = 0;
  ByteReader frames(data);
  while (!frames.AtEnd()) {
    auto len = frames.GetVarint64();
    if (!len.ok() || frames.remaining() < *len + 4) break;  // torn tail
    auto payload = frames.GetBytesView(static_cast<size_t>(*len));
    if (!payload.ok()) break;  // unreachable given the remaining() check
    auto stored_crc = frames.GetFixed32();
    if (!stored_crc.ok() || Crc32c(*payload) != *stored_crc) {
      // A failed checksum means the record (and anything after it) is
      // not trustworthy: stop the replay at the last good prefix.
      break;
    }
    Status s = ReplayRecord(replica, *payload);
    if (!s.ok() && !s.IsConflict() && !s.IsNotFound()) {
      // Conflict/NotFound are legitimate outcomes of replayed inputs;
      // anything else means a corrupt journal.
      return Status::Corruption("journal replay failed: " + s.ToString());
    }
    ++replayed;
  }
  return replayed;
}

JournaledReplica::JournaledReplica(std::string dir,
                                   std::unique_ptr<Replica> replica)
    : dir_(std::move(dir)), replica_(std::move(replica)) {}

JournaledReplica::~JournaledReplica() {
  if (journal_ != nullptr) std::fclose(journal_);
}

Result<std::unique_ptr<JournaledReplica>> JournaledReplica::Open(
    const std::string& dir, NodeId id, size_t num_nodes,
    ConflictListener* listener) {
  struct stat st;
  if (stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::InvalidArgument("'" + dir + "' is not a directory");
  }

  // 1. Base state: the latest snapshot, or a fresh replica.
  std::unique_ptr<Replica> replica;
  auto loaded = LoadSnapshot(SnapshotPath(dir), listener);
  if (loaded.ok()) {
    replica = std::move(*loaded);
    if (replica->id() != id || replica->num_nodes() != num_nodes) {
      return Status::InvalidArgument(
          "snapshot in '" + dir + "' belongs to node " +
          std::to_string(replica->id()) + "/" +
          std::to_string(replica->num_nodes()));
    }
  } else if (loaded.status().IsNotFound()) {
    replica = std::make_unique<Replica>(id, num_nodes, listener);
  } else {
    return loaded.status();
  }

  // 2. Replay the journal suffix. A torn final record (crash mid-append)
  // terminates the replay cleanly; everything before it was applied with
  // write-ahead discipline.
  uint64_t replayed = 0;
  std::FILE* f = std::fopen(JournalPath(dir).c_str(), "rb");
  if (f != nullptr) {
    std::string data;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
    std::fclose(f);

    auto count = ReplayJournalBytes(*replica, data);
    if (!count.ok()) return count.status();
    replayed = *count;
  }

  auto jr = std::unique_ptr<JournaledReplica>(
      new JournaledReplica(dir, std::move(replica)));
  jr->records_ = replayed;
  EPI_RETURN_NOT_OK(jr->OpenJournalForAppend());
  return jr;
}

Status JournaledReplica::OpenJournalForAppend() {
  journal_ = std::fopen(JournalPath(dir_).c_str(), "ab");
  if (journal_ == nullptr) {
    return Status::IOError("cannot open journal in '" + dir_ + "'");
  }
  return Status::OK();
}

Status JournaledReplica::AppendRecord(std::string payload) {
  ByteWriter framed;
  framed.PutVarint64(payload.size());
  framed.PutBytes(payload.data(), payload.size());
  framed.PutFixed32(Crc32c(payload));
  const std::string& frame = framed.data();
  if (std::fwrite(frame.data(), 1, frame.size(), journal_) != frame.size() ||
      std::fflush(journal_) != 0) {
    return Status::IOError("journal append failed");
  }
  ++records_;
  return Status::OK();
}

Status JournaledReplica::Update(std::string_view name,
                                std::string_view value) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(RecordTag::kUpdate));
  w.PutString(name);
  w.PutString(value);
  EPI_RETURN_NOT_OK(AppendRecord(w.Release()));
  return replica_->Update(name, value);
}

Status JournaledReplica::Delete(std::string_view name) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(RecordTag::kDelete));
  w.PutString(name);
  EPI_RETURN_NOT_OK(AppendRecord(w.Release()));
  return replica_->Delete(name);
}

Status JournaledReplica::ResolveConflict(std::string_view name,
                                         const VersionVector& remote_vv,
                                         std::string_view value) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(RecordTag::kResolve));
  w.PutString(name);
  EncodeVersionVector(&w, remote_vv);
  w.PutString(value);
  EPI_RETURN_NOT_OK(AppendRecord(w.Release()));
  return replica_->ResolveConflict(name, remote_vv, value);
}

Status JournaledReplica::AcceptPropagation(const PropagationResponse& resp) {
  if (resp.you_are_current) {
    // No state change; nothing worth journaling.
    return replica_->AcceptPropagation(resp);
  }
  // Validate before journaling: a response the replica rejects must not
  // reach the journal, or every later replay would hit the same reject and
  // the directory would no longer open.
  PropagationResponseView view;
  wire::MakeResponseView(resp, &view);
  EPI_RETURN_NOT_OK(replica_->ValidatePropagationResponse(view));
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(RecordTag::kPropagation));
  wire::EncodePropagationResponseBody(w, resp);
  EPI_RETURN_NOT_OK(AppendRecord(w.Release()));
  return replica_->AcceptPropagation(resp);
}

Status JournaledReplica::AcceptPropagationSegmentV3(std::string_view body) {
  // Decode and validate before journaling, so a corrupt body or a response
  // the replica rejects leaves no unreplayable record behind.
  wire::SegmentViewStorage storage;
  PropagationResponseView view;
  EPI_RETURN_NOT_OK(wire::DecodeShardSegmentBodyV3(body, &storage, &view));
  EPI_RETURN_NOT_OK(replica_->ValidatePropagationResponse(view));
  ByteWriter w;
  w.Reserve(body.size() + 1);
  w.PutU8(static_cast<uint8_t>(RecordTag::kPropagationSegV3));
  w.PutBytes(body.data(), body.size());
  EPI_RETURN_NOT_OK(AppendRecord(w.Release()));
  replica_->ApplyPropagation(view);
  return Status::OK();
}

Status JournaledReplica::AcceptOobResponse(const OobResponse& resp) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(RecordTag::kOob));
  wire::EncodeOobResponseBody(w, resp);
  EPI_RETURN_NOT_OK(AppendRecord(w.Release()));
  return replica_->AcceptOobResponse(resp);
}

Status JournaledReplica::Checkpoint() {
  EPI_RETURN_NOT_OK(SaveSnapshot(*replica_, SnapshotPath(dir_)));
  // Truncate the journal: records up to here are covered by the snapshot.
  std::fclose(journal_);
  journal_ = nullptr;
  std::FILE* f = std::fopen(JournalPath(dir_).c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot truncate journal in '" + dir_ + "'");
  }
  std::fclose(f);
  records_ = 0;
  return OpenJournalForAppend();
}

// ---------------------------------------------------------------------------
// JournaledShardedReplica

namespace {

std::string ShardCountPath(const std::string& dir) {
  return dir + "/shards.meta";
}

/// Reads or establishes the pinned shard count. The item→shard mapping is
/// a function of the count, so data written under one count is unreadable
/// under another — hence refuse rather than misroute.
Status PinShardCount(const std::string& dir, size_t num_shards) {
  std::FILE* f = std::fopen(ShardCountPath(dir).c_str(), "rb");
  if (f != nullptr) {
    char buf[32] = {0};
    const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    const unsigned long stored = std::strtoul(buf, nullptr, 10);
    if (n == 0 || stored == 0) {
      return Status::Corruption("unreadable shard count in '" + dir + "'");
    }
    if (stored != num_shards) {
      return Status::InvalidArgument(
          "'" + dir + "' was created with " + std::to_string(stored) +
          " shards, cannot open with " + std::to_string(num_shards));
    }
    return Status::OK();
  }
  f = std::fopen(ShardCountPath(dir).c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot write shard count in '" + dir + "'");
  }
  const std::string text = std::to_string(num_shards) + "\n";
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool flushed = (std::fflush(f) == 0);
  std::fclose(f);
  if (written != text.size() || !flushed) {
    return Status::IOError("short write to shard count in '" + dir + "'");
  }
  return Status::OK();
}

std::string ShardDir(const std::string& dir, size_t k) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%03zu", k);
  return dir + "/" + name;
}

}  // namespace

JournaledShardedReplica::JournaledShardedReplica(
    std::vector<std::unique_ptr<JournaledReplica>> shards)
    : shards_(std::move(shards)) {
  std::vector<Replica*> raw;
  raw.reserve(shards_.size());
  for (auto& shard : shards_) raw.push_back(&shard->replica());
  view_ = std::make_unique<ShardedReplica>(std::move(raw));
}

Result<std::unique_ptr<JournaledShardedReplica>> JournaledShardedReplica::Open(
    const std::string& dir, NodeId id, size_t num_nodes, size_t num_shards,
    ConflictListener* listener) {
  if (num_shards == 0) {
    return Status::InvalidArgument("need at least one shard");
  }
  struct stat st;
  if (stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::InvalidArgument("'" + dir + "' is not a directory");
  }
  EPI_RETURN_NOT_OK(PinShardCount(dir, num_shards));

  std::vector<std::unique_ptr<JournaledReplica>> shards;
  shards.reserve(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    const std::string shard_dir = ShardDir(dir, k);
    if (mkdir(shard_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError("cannot create '" + shard_dir + "'");
    }
    auto shard = JournaledReplica::Open(shard_dir, id, num_nodes, listener);
    if (!shard.ok()) {
      return Status::Internal("shard " + std::to_string(k) + ": " +
                              shard.status().message());
    }
    shards.push_back(std::move(*shard));
  }
  return std::unique_ptr<JournaledShardedReplica>(
      new JournaledShardedReplica(std::move(shards)));
}

Status JournaledShardedReplica::AcceptPropagation(
    const ShardedPropagationResponse& resp) {
  if (resp.num_shards != shards_.size()) {
    return Status::InvalidArgument(
        "source runs " + std::to_string(resp.num_shards) +
        " shards, this replica " + std::to_string(shards_.size()));
  }
  Status first_error = Status::OK();
  for (const ShardedPropagationSegment& seg : resp.segments) {
    if (seg.shard >= shards_.size()) {
      if (first_error.ok()) {
        first_error = Status::InvalidArgument("segment shard out of range");
      }
      continue;
    }
    Status s;
    if (resp.wire_version >= kWireV3) {
      s = shards_[seg.shard]->AcceptPropagationSegmentV3(seg.body);
    } else {
      Result<PropagationResponse> decoded =
          wire::DecodeShardSegmentBody(seg.body);
      s = decoded.ok() ? shards_[seg.shard]->AcceptPropagation(*decoded)
                       : decoded.status();
    }
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

Status JournaledShardedReplica::Checkpoint() {
  Status first_error = Status::OK();
  for (auto& shard : shards_) {
    Status s = shard->Checkpoint();
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

uint64_t JournaledShardedReplica::records_since_checkpoint() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->records_since_checkpoint();
  return total;
}

}  // namespace epidemic
