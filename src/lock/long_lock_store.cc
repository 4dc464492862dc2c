#include "lock/long_lock_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "fault/fault_injector.h"
#include "util/crc32.h"

namespace codlock::lock {

namespace {

// Fault points of the persistence path (see file comment in the header).
// Namespace-scope objects register at static-init time so the crashpoint
// sweep can enumerate them.
fault::FaultPoint g_fault_open_temp{"store/open-temp",
                                    fault::FaultKind::kError};
fault::FaultPoint g_fault_write_frame{"store/write-frame",
                                      fault::FaultKind::kTornWrite};
fault::FaultPoint g_fault_sync{"store/sync", fault::FaultKind::kCrash};
fault::FaultPoint g_fault_rename{"store/rename", fault::FaultKind::kCrash};
fault::FaultPoint g_fault_after_rename{"store/after-rename",
                                       fault::FaultKind::kCrash};

// Block layouts (all integers little-endian).  The magic doubles as the
// format version:
//
//   image v1 ("CGN1"):  u32 magic | u64 generation | u32 record_count
//                 record_count * (u64 txn | u32 node | u64 instance | u8 mode)
//                 u32 crc32 over everything after the magic
//
//   image v2 ("CGN2"):  u32 magic | u64 generation | u32 record_count
//                 | u32 epoch_count
//                 record_count * (u64 txn | u32 node | u64 instance | u8 mode)
//                 epoch_count * (u32 node | u64 instance | u64 epoch)
//                 u32 crc32 over everything after the magic
//
//   delta ("CGD1"):  u32 magic | u64 generation | u32 group_count
//                 | u32 epoch_count
//                 group_count * (u64 txn | u32 n
//                                | n * (u32 node | u64 instance | u8 mode))
//                 epoch_count * (u32 node | u64 instance | u64 epoch)
//                 u32 crc32 over everything after the magic
//
// v1 images (written before the lease subsystem existed) still parse —
// they simply carry no fence epochs.  Images are always written as v2.
// A delta's header has the v2 header's shape (kHeaderSizeV2).
constexpr uint32_t kBlockMagicV1 = 0x314E4743;  // "CGN1"
constexpr uint32_t kBlockMagicV2 = 0x324E4743;  // "CGN2"
constexpr uint32_t kDeltaMagic = 0x31444743;    // "CGD1"
constexpr size_t kHeaderSizeV1 = 4 + 8 + 4;
constexpr size_t kHeaderSizeV2 = 4 + 8 + 4 + 4;
constexpr size_t kRecordSize = 8 + 4 + 8 + 1;
constexpr size_t kGroupHeaderSize = 8 + 4;
constexpr size_t kGroupRecordSize = 4 + 8 + 1;
constexpr size_t kEpochSize = 4 + 8 + 8;
constexpr size_t kCrcSize = 4;

void PutU32(std::string& s, uint32_t v) {
  for (int i = 0; i < 4; ++i) s.push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string& s, uint64_t v) {
  for (int i = 0; i < 8; ++i) s.push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

/// A record's mode byte, validated (a CRC collision or version skew must
/// not install an out-of-range mode).
bool DecodeMode(char byte, LockMode* out) {
  const uint8_t mode = static_cast<uint8_t>(byte);
  if (mode >= kNumModes) return false;
  *out = static_cast<LockMode>(mode);
  return true;
}

/// Sorts an epoch table by root: a deterministic byte image for a given
/// state (hash-set iteration order must not leak into stable storage).
void SortByRoot(std::vector<FenceEpochRecord>& epochs) {
  std::sort(epochs.begin(), epochs.end(),
            [](const FenceEpochRecord& a, const FenceEpochRecord& b) {
              return a.root.node != b.root.node
                         ? a.root.node < b.root.node
                         : a.root.instance < b.root.instance;
            });
}

void PutEpoch(std::string& s, const FenceEpochRecord& e) {
  PutU32(s, e.root.node);
  PutU64(s, e.root.instance);
  PutU64(s, e.epoch);
}

FenceEpochRecord GetEpoch(const char* p) {
  FenceEpochRecord e;
  e.root.node = GetU32(p);
  e.root.instance = GetU64(p + 4);
  e.epoch = GetU64(p + 12);
  return e;
}

struct ParsedImage {
  uint64_t generation = 0;
  std::vector<LongLockRecord> records;
  std::vector<FenceEpochRecord> epochs;
  size_t offset = 0;  ///< where the block starts in the file image
  size_t length = 0;  ///< total block length in bytes
};

/// Tries to parse one image block (either version) at \p off.  Returns
/// true when the block is complete, CRC-clean and semantically valid.
bool ParseImageAt(const std::string& data, size_t off, ParsedImage* out) {
  if (off + kHeaderSizeV1 + kCrcSize > data.size()) return false;
  const uint32_t magic = GetU32(data.data() + off);
  const bool v2 = magic == kBlockMagicV2;
  if (!v2 && magic != kBlockMagicV1) return false;
  const size_t header = v2 ? kHeaderSizeV2 : kHeaderSizeV1;
  if (off + header + kCrcSize > data.size()) return false;
  const uint64_t gen = GetU64(data.data() + off + 4);
  const uint32_t count = GetU32(data.data() + off + 12);
  const uint32_t epoch_count = v2 ? GetU32(data.data() + off + 16) : 0;
  // Reject absurd counts before computing the length (overflow guard).
  if (count > (data.size() - off) / kRecordSize) return false;
  if (epoch_count > (data.size() - off) / kEpochSize) return false;
  const size_t length = header + count * kRecordSize +
                        epoch_count * kEpochSize + kCrcSize;
  if (off + length > data.size()) return false;
  const std::string_view body(
      data.data() + off + 4,
      header - 4 + count * kRecordSize + epoch_count * kEpochSize);
  const uint32_t stored_crc = GetU32(data.data() + off + length - kCrcSize);
  if (Crc32(body) != stored_crc) return false;

  std::vector<LongLockRecord> records;
  records.reserve(count);
  const char* p = data.data() + off + header;
  for (uint32_t i = 0; i < count; ++i, p += kRecordSize) {
    LongLockRecord r;
    r.txn = GetU64(p);
    r.resource.node = GetU32(p + 8);
    r.resource.instance = GetU64(p + 12);
    if (!DecodeMode(p[20], &r.mode)) return false;
    records.push_back(r);
  }
  std::vector<FenceEpochRecord> epochs;
  epochs.reserve(epoch_count);
  for (uint32_t i = 0; i < epoch_count; ++i, p += kEpochSize) {
    epochs.push_back(GetEpoch(p));
  }
  out->generation = gen;
  out->records = std::move(records);
  out->epochs = std::move(epochs);
  out->offset = off;
  out->length = length;
  return true;
}

struct ParsedDelta {
  uint64_t generation = 0;
  /// (txn, its complete long-lock list); an empty list erases the txn.
  std::vector<std::pair<TxnId, std::vector<LongLockRecord>>> groups;
  std::vector<FenceEpochRecord> epochs;
  size_t length = 0;
};

/// Tries to parse one delta block at \p off (same contract as
/// `ParseImageAt`).  Every count is bounds-checked against the bytes left
/// before it is trusted.
bool ParseDeltaAt(const std::string& data, size_t off, ParsedDelta* out) {
  if (off + kHeaderSizeV2 + kCrcSize > data.size()) return false;
  if (GetU32(data.data() + off) != kDeltaMagic) return false;
  const char* const end = data.data() + data.size();
  const char* p = data.data() + off;
  const uint64_t gen = GetU64(p + 4);
  const uint32_t group_count = GetU32(p + 12);
  const uint32_t epoch_count = GetU32(p + 16);
  p += kHeaderSizeV2;
  auto left = [&] { return static_cast<size_t>(end - p); };
  if (group_count > left() / kGroupHeaderSize) return false;
  ParsedDelta delta;
  for (uint32_t g = 0; g < group_count; ++g) {
    if (left() < kGroupHeaderSize) return false;
    const TxnId txn = GetU64(p);
    const uint32_t n = GetU32(p + 8);
    p += kGroupHeaderSize;
    if (n > left() / kGroupRecordSize) return false;
    std::vector<LongLockRecord> records;
    records.reserve(n);
    for (uint32_t i = 0; i < n; ++i, p += kGroupRecordSize) {
      LongLockRecord r;
      r.txn = txn;
      r.resource.node = GetU32(p);
      r.resource.instance = GetU64(p + 4);
      if (!DecodeMode(p[12], &r.mode)) return false;
      records.push_back(r);
    }
    delta.groups.emplace_back(txn, std::move(records));
  }
  if (epoch_count > left() / kEpochSize) return false;
  for (uint32_t i = 0; i < epoch_count; ++i, p += kEpochSize) {
    delta.epochs.push_back(GetEpoch(p));
  }
  if (left() < kCrcSize) return false;
  const char* const body = data.data() + off + 4;
  if (Crc32(std::string_view(body, static_cast<size_t>(p - body))) !=
      GetU32(p)) {
    return false;
  }
  delta.generation = gen;
  delta.length = static_cast<size_t>(p + kCrcSize - (data.data() + off));
  *out = std::move(delta);
  return true;
}

/// Writes all of \p bytes to \p fd, retrying short writes and EINTR.
bool WriteAll(int fd, const char* bytes, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, bytes, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

}  // namespace

Status LongLockStore::Save(const LockManager& manager) {
  // Drain, re-read and write under one critical section: a concurrent
  // save can neither take this save's changes and fail to persist them
  // before this one returns, nor write an older state after a newer one.
  MutexLock lk(mu_);
  std::vector<TxnId> changed;
  if (!manager.DrainLongLockChanges(consumer_token_, &changed)) {
    // The state does not mirror this manager yet: take its change set
    // over *before* the snapshot, so every later change is drained.
    consumer_token_ = manager.ResetLongLockChanges();
    ReplaceAllLocked(manager.SnapshotLongLocks());
    need_image_ = true;
  } else {
    for (TxnId txn : changed) {
      ReplaceGroupLocked(txn, manager.LongLocksOf(txn));
    }
  }
  ++generation_;
  if (backing_path_.empty()) {
    dirty_epochs_.clear();
    return Status::OK();
  }
  Status status;
  std::string delta;
  if (!need_image_) delta = EncodeDeltaLocked(changed);
  if (!delta.empty() && log_.size() + delta.size() <= ImageSizeLocked()) {
    dirty_epochs_.clear();
    status = AppendDeltaLocked(delta);
  } else {
    status = WriteToFileLocked(backing_path_);
  }
  // After a failed write the file may end in a torn block (or miss this
  // generation): only a fresh image may follow.
  if (!status.ok()) need_image_ = true;
  return status;
}

Status LongLockStore::Restore(LockManager* manager) const {
  std::vector<LongLockRecord> snapshot;
  {
    MutexLock lk(mu_);
    snapshot = FlattenLocked();
  }
  return manager->RestoreLongLocks(snapshot);
}

std::vector<LongLockRecord> LongLockStore::records() const {
  MutexLock lk(mu_);
  return FlattenLocked();
}

size_t LongLockStore::size() const {
  MutexLock lk(mu_);
  return num_records_;
}

uint64_t LongLockStore::generation() const {
  MutexLock lk(mu_);
  return generation_;
}

uint64_t LongLockStore::FenceEpochOf(ResourceId root) const {
  MutexLock lk(mu_);
  auto it = epochs_.find(root);
  return it == epochs_.end() ? 0 : it->second;
}

uint64_t LongLockStore::BumpFenceEpoch(ResourceId root) {
  MutexLock lk(mu_);
  dirty_epochs_.insert(root);
  return ++epochs_[root];
}

std::vector<FenceEpochRecord> LongLockStore::FenceEpochs() const {
  MutexLock lk(mu_);
  std::vector<FenceEpochRecord> out;
  out.reserve(epochs_.size());
  for (const auto& [root, epoch] : epochs_) {
    out.push_back({root, epoch});
  }
  return out;
}

void LongLockStore::SetBackingFile(std::string path) {
  MutexLock lk(mu_);
  backing_path_ = std::move(path);
  ResetFileStateLocked();
}

std::string LongLockStore::backing_file() const {
  MutexLock lk(mu_);
  return backing_path_;
}

LongLockStore::LoadReport LongLockStore::last_load() const {
  MutexLock lk(mu_);
  return last_load_;
}

std::string LongLockStore::Serialize() const {
  MutexLock lk(mu_);
  std::ostringstream os;
  for (const auto& [txn, group] : groups_) {
    for (const LongLockRecord& r : group) {
      os << r.txn << ' ' << r.resource.node << ' ' << r.resource.instance
         << ' ' << static_cast<int>(r.mode) << '\n';
    }
  }
  return os.str();
}

Status LongLockStore::Deserialize(const std::string& data) {
  std::vector<LongLockRecord> parsed;
  std::istringstream is(data);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    LongLockRecord r;
    int mode = 0;
    if (!(ls >> r.txn >> r.resource.node >> r.resource.instance >> mode)) {
      return Status::InvalidArgument("malformed long-lock record: " + line);
    }
    if (mode < 0 || mode >= kNumModes) {
      return Status::InvalidArgument("invalid lock mode in record: " + line);
    }
    r.mode = static_cast<LockMode>(mode);
    parsed.push_back(r);
  }
  MutexLock lk(mu_);
  ReplaceAllLocked(parsed);
  ++generation_;
  ResetFileStateLocked();
  return Status::OK();
}

void LongLockStore::ReplaceGroupLocked(TxnId txn,
                                       std::vector<LongLockRecord> records) {
  auto it = groups_.find(txn);
  if (it != groups_.end()) {
    num_records_ -= it->second.size();
    if (records.empty()) {
      groups_.erase(it);
      return;
    }
    it->second = std::move(records);
  } else {
    if (records.empty()) return;
    it = groups_.emplace(txn, std::move(records)).first;
  }
  num_records_ += it->second.size();
}

void LongLockStore::ReplaceAllLocked(
    const std::vector<LongLockRecord>& records) {
  groups_.clear();
  for (const LongLockRecord& r : records) groups_[r.txn].push_back(r);
  num_records_ = records.size();
}

std::vector<LongLockRecord> LongLockStore::FlattenLocked() const {
  std::vector<LongLockRecord> out;
  out.reserve(num_records_);
  for (const auto& [txn, group] : groups_) {
    out.insert(out.end(), group.begin(), group.end());
  }
  return out;
}

void LongLockStore::ResetFileStateLocked() {
  consumer_token_ = 0;
  need_image_ = true;
}

size_t LongLockStore::ImageSizeLocked() const {
  return kHeaderSizeV2 + num_records_ * kRecordSize +
         epochs_.size() * kEpochSize + kCrcSize;
}

std::string LongLockStore::EncodeBlockLocked() const {
  std::vector<FenceEpochRecord> epochs;
  epochs.reserve(epochs_.size());
  for (const auto& [root, epoch] : epochs_) {
    epochs.push_back({root, epoch});
  }
  SortByRoot(epochs);

  std::string block;
  block.reserve(ImageSizeLocked());
  PutU32(block, kBlockMagicV2);
  PutU64(block, generation_);
  PutU32(block, static_cast<uint32_t>(num_records_));
  PutU32(block, static_cast<uint32_t>(epochs.size()));
  for (const auto& [txn, group] : groups_) {
    for (const LongLockRecord& r : group) {
      PutU64(block, r.txn);
      PutU32(block, r.resource.node);
      PutU64(block, r.resource.instance);
      block.push_back(static_cast<char>(r.mode));
    }
  }
  for (const FenceEpochRecord& e : epochs) PutEpoch(block, e);
  PutU32(block, Crc32(std::string_view(block.data() + 4, block.size() - 4)));
  return block;
}

std::string LongLockStore::EncodeDeltaLocked(
    const std::vector<TxnId>& txns) const {
  std::string delta;
  PutU32(delta, kDeltaMagic);
  PutU64(delta, generation_);
  PutU32(delta, static_cast<uint32_t>(txns.size()));
  PutU32(delta, static_cast<uint32_t>(dirty_epochs_.size()));
  for (TxnId txn : txns) {
    auto it = groups_.find(txn);
    const size_t n = it == groups_.end() ? 0 : it->second.size();
    PutU64(delta, txn);
    PutU32(delta, static_cast<uint32_t>(n));
    for (size_t i = 0; i < n; ++i) {
      const LongLockRecord& r = it->second[i];
      PutU32(delta, r.resource.node);
      PutU64(delta, r.resource.instance);
      delta.push_back(static_cast<char>(r.mode));
    }
  }
  std::vector<FenceEpochRecord> epochs;
  epochs.reserve(dirty_epochs_.size());
  for (const ResourceId& root : dirty_epochs_) {
    epochs.push_back({root, epochs_.at(root)});
  }
  SortByRoot(epochs);
  for (const FenceEpochRecord& e : epochs) PutEpoch(delta, e);
  PutU32(delta, Crc32(std::string_view(delta.data() + 4, delta.size() - 4)));
  return delta;
}

Status LongLockStore::AppendDeltaLocked(const std::string& delta) {
  const int fd =
      ::open(backing_path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) {
    return Status::Internal("cannot open '" + backing_path_ +
                            "' for appending");
  }
  Status status;
  if (fault::FireResult f = g_fault_write_frame.Fire()) {
    // Torn append: a prefix of the delta reaches the file, then the
    // "process" dies.  Load stops replaying at the torn block.
    size_t keep = 0;
    if (f.kind == fault::FaultKind::kTornWrite) {
      keep = f.arg != 0 ? std::min<size_t>(f.arg, delta.size())
                        : delta.size() / 2;
    }
    WriteAll(fd, delta.data(), keep);
    status = fault::StatusFor(f, g_fault_write_frame.name());
  } else if (!WriteAll(fd, delta.data(), delta.size())) {
    status = Status::Internal("append to '" + backing_path_ + "' failed");
  } else if (fault::FireResult sync = g_fault_sync.Fire()) {
    // The whole delta already sits in the file (a process crash keeps
    // page-cache data); only its flush is in doubt, so a restart may
    // well recover this generation although the caller sees the error.
    status = fault::StatusFor(sync, g_fault_sync.name());
  } else {
    log_ += delta;
  }
  if (::close(fd) != 0 && status.ok()) {
    status = Status::Internal("close of '" + backing_path_ + "' failed");
  }
  return status;
}

Status LongLockStore::WriteToFile(const std::string& path) {
  MutexLock lk(mu_);
  return WriteToFileLocked(path);
}

Status LongLockStore::WriteToFileLocked(const std::string& path) {
  const std::string block = EncodeBlockLocked();
  // The live file always carries the previous good image and its delta
  // log ahead of the new image, so a corrupted newest image still leaves
  // the generation just before it to salvage.
  const std::string contents = prev_block_ + log_ + block;
  const std::string tmp = path + ".tmp";

  if (fault::FireResult f = g_fault_open_temp.Fire()) {
    return fault::StatusFor(f, g_fault_open_temp.name());
  }
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Internal("cannot open '" + tmp + "' for writing");

  if (fault::FireResult f = g_fault_write_frame.Fire()) {
    // Torn write: a prefix of the image reaches the temp file, then the
    // "process" dies — no rename, the live file is untouched.
    size_t keep = 0;
    if (f.kind == fault::FaultKind::kTornWrite) {
      keep = f.arg != 0 ? std::min<size_t>(f.arg, contents.size())
                        : contents.size() / 2;
    }
    out.write(contents.data(), static_cast<std::streamsize>(keep));
    out.flush();
    return fault::StatusFor(f, g_fault_write_frame.name());
  }
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.flush();  // best portable approximation of fsync for the simulation
  if (fault::FireResult f = g_fault_sync.Fire()) {
    // Flush/fsync failed or the process died before it: the temp image
    // may or may not be complete, the live file still holds the old
    // generations.
    return fault::StatusFor(f, g_fault_sync.name());
  }
  if (!out.good()) return Status::Internal("write to '" + tmp + "' failed");
  out.close();
  if (out.fail()) return Status::Internal("close of '" + tmp + "' failed");

  if (fault::FireResult f = g_fault_rename.Fire()) {
    // Crash before the rename: durable state is still the old file.
    return fault::StatusFor(f, g_fault_rename.name());
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("rename '" + tmp + "' -> '" + path + "' failed");
  }
  // The new image is durable from here on, even if the caller sees the
  // injected crash below (restart recovers the *new* generation).
  prev_block_ = block;
  log_.clear();
  if (path == backing_path_) {
    need_image_ = false;
    dirty_epochs_.clear();
  }
  if (fault::FireResult f = g_fault_after_rename.Fire()) {
    return fault::StatusFor(f, g_fault_after_rename.name());
  }
  return Status::OK();
}

Status LongLockStore::LoadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = buf.str();

  // Pass 1: scan for intact images; corruption skips forward to the next
  // intact block instead of failing the load.  The newest
  // (highest-generation) image wins.  Intact deltas are skipped whole;
  // they count as valid bytes while they extend an image's consecutive
  // log (the previous image keeps its log ahead of the newest image).
  ParsedImage best;
  bool have_best = false;
  size_t valid_bytes = 0;
  uint64_t chain_next = 0;  // generation extending the log at off (0: none)
  size_t off = 0;
  while (off + kHeaderSizeV1 + kCrcSize <= data.size()) {
    ParsedImage image;
    if (ParseImageAt(data, off, &image)) {
      valid_bytes += image.length;
      off += image.length;
      chain_next = image.generation + 1;
      if (!have_best || image.generation >= best.generation) {
        best = std::move(image);
        have_best = true;
      }
      continue;
    }
    ParsedDelta delta;
    if (ParseDeltaAt(data, off, &delta)) {
      if (delta.generation == chain_next) {
        valid_bytes += delta.length;
        ++chain_next;
      } else {
        chain_next = 0;
      }
      off += delta.length;
      continue;
    }
    chain_next = 0;
    ++off;
  }

  // Without an intact image the file predates its first completed save
  // (or lost everything to corruption): recover the empty generation-0
  // state rather than failing recovery outright.
  std::map<TxnId, std::vector<LongLockRecord>> groups;
  std::unordered_map<ResourceId, uint64_t, ResourceIdHash> epochs;
  uint64_t generation = 0;
  size_t replayed = 0;
  size_t log_end = 0;
  if (have_best) {
    for (const LongLockRecord& r : best.records) groups[r.txn].push_back(r);
    for (const FenceEpochRecord& e : best.epochs) epochs[e.root] = e.epoch;
    generation = best.generation;
    // Pass 2: replay the delta log behind the image while it stays intact
    // and consecutive; the first torn or out-of-sequence block ends it.
    off = best.offset + best.length;
    ParsedDelta delta;
    while (ParseDeltaAt(data, off, &delta) &&
           delta.generation == generation + 1) {
      for (auto& [txn, records] : delta.groups) {
        if (records.empty()) {
          groups.erase(txn);
        } else {
          groups[txn] = std::move(records);
        }
      }
      for (const FenceEpochRecord& e : delta.epochs) epochs[e.root] = e.epoch;
      generation = delta.generation;
      off += delta.length;
      ++replayed;
    }
    log_end = off;
  }

  MutexLock lk(mu_);
  groups_ = std::move(groups);
  num_records_ = 0;
  for (const auto& [txn, group] : groups_) num_records_ += group.size();
  epochs_ = std::move(epochs);
  dirty_epochs_.clear();
  generation_ = generation;
  prev_block_ = have_best ? data.substr(best.offset, best.length) : "";
  log_ = have_best ? data.substr(best.offset + best.length,
                                 log_end - best.offset - best.length)
                   : "";
  // The file may end in salvaged bytes, and the state mirrors no manager.
  ResetFileStateLocked();
  last_load_ = LoadReport{};
  last_load_.generation = generation_;
  last_load_.records = num_records_;
  last_load_.deltas = replayed;
  last_load_.discarded_bytes = data.size() - valid_bytes;
  last_load_.salvaged = last_load_.discarded_bytes != 0;
  return Status::OK();
}

}  // namespace codlock::lock
