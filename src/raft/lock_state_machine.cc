#include "src/raft/lock_state_machine.h"

#include <cstdint>
#include <utility>

namespace radical {
namespace {

// Leading byte of every command and snapshot (docs/raft.md "Lock command
// format").
constexpr uint8_t kOpAcquire = 1;
constexpr uint8_t kOpRelease = 2;
constexpr uint8_t kSnapshotTag = 3;

constexpr uint8_t kModeRead = 0;
constexpr uint8_t kModeWrite = 1;

uint8_t ModeByte(LockMode mode) { return mode == LockMode::kWrite ? kModeWrite : kModeRead; }

size_t VarintSize(uint64_t v) {
  size_t size = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++size;
  }
  return size;
}

// LEB128 unsigned varint.
void AppendVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void AppendKey(std::string* out, std::string_view key) {
  AppendVarint(out, key.size());
  out->append(key);
}

// Bounds-checked reader. The first failure sticks: every later read returns
// zero or an empty view, and ok() stays false.
class CommandReader {
 public:
  explicit CommandReader(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }
  // All bytes consumed and no failure.
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }
  // The bytes not read yet.
  std::string_view Rest() const { return ok_ ? data_.substr(pos_) : std::string_view(); }

  uint8_t Byte() {
    if (!ok_ || pos_ >= data_.size()) {
      ok_ = false;
      return 0;
    }
    return static_cast<uint8_t>(data_[pos_++]);
  }

  uint64_t Varint() {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const uint8_t b = Byte();
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        return ok_ ? v : 0;
      }
    }
    ok_ = false;  // Longer than any 64-bit value.
    return 0;
  }

  // A varint length followed by that many bytes.
  std::string_view Key() {
    const uint64_t size = Varint();
    if (!ok_ || size > data_.size() - pos_) {
      ok_ = false;
      return {};
    }
    const std::string_view key = data_.substr(pos_, size);
    pos_ += size;
    return key;
  }

  // A mode byte; anything but read or write is a failure.
  LockMode Mode() {
    const uint8_t b = Byte();
    if (b != kModeRead && b != kModeWrite) {
      ok_ = false;
    }
    return b == kModeWrite ? LockMode::kWrite : LockMode::kRead;
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

std::string LockStateMachine::EncodeAcquire(ExecutionId exec, LockMode mode, const Key& key) {
  std::string out;
  out.reserve(3 + VarintSize(exec) + VarintSize(key.size()) + key.size());
  out.push_back(static_cast<char>(kOpAcquire));
  AppendVarint(&out, exec);
  AppendVarint(&out, 1);
  out.push_back(static_cast<char>(ModeByte(mode)));
  AppendKey(&out, key);
  return out;
}

std::string LockStateMachine::EncodeBatchAcquire(ExecutionId exec,
                                                 const std::vector<Key>& keys,
                                                 const std::vector<LockMode>& modes) {
  std::string out;
  out.push_back(static_cast<char>(kOpAcquire));
  AppendVarint(&out, exec);
  AppendVarint(&out, keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    out.push_back(static_cast<char>(ModeByte(modes[i])));
    AppendKey(&out, keys[i]);
  }
  return out;
}

std::string LockStateMachine::EncodeRelease(ExecutionId exec) {
  std::string out;  // At most 11 bytes: no allocation.
  out.push_back(static_cast<char>(kOpRelease));
  AppendVarint(&out, exec);
  return out;
}

std::string LockStateMachine::EncodeSnapshot() const {
  std::string out;
  out.push_back(static_cast<char>(kSnapshotTag));
  AppendVarint(&out, last_applied_);
  AppendVarint(&out, core_.lock_count());
  core_.ForEachLock([&out](const Key& key, const LockCore::KeyLock& lock) {
    AppendKey(&out, key);
    AppendVarint(&out, lock.writer);
    AppendVarint(&out, lock.readers.size());
    for (const ExecutionId reader : lock.readers) {
      AppendVarint(&out, reader);
    }
    AppendVarint(&out, lock.queue.size());
    for (const LockCore::Waiter& waiter : lock.queue) {
      out.push_back(static_cast<char>(ModeByte(waiter.mode)));
      AppendVarint(&out, waiter.exec);
    }
  });
  return out;
}

void LockStateMachine::RestoreSnapshot(const std::string& data) {
  core_.Clear();
  CommandReader in(data);
  if (in.Byte() != kSnapshotTag) {
    return;  // Unknown format: start empty (same as a fresh machine).
  }
  const LogIndex last_applied = in.Varint();
  const uint64_t num_locks = in.Varint();
  // Every lock consumes input, so a corrupt count ends at the first failure.
  for (uint64_t i = 0; i < num_locks && in.ok(); ++i) {
    const std::string_view key = in.Key();
    LockCore::KeyLock lock;
    lock.writer = in.Varint();
    const uint64_t num_readers = in.Varint();
    for (uint64_t r = 0; r < num_readers && in.ok(); ++r) {
      lock.readers.insert(in.Varint());
    }
    const uint64_t queue_size = in.Varint();
    for (uint64_t q = 0; q < queue_size && in.ok(); ++q) {
      const LockMode mode = in.Mode();
      lock.queue.push_back(LockCore::Waiter{in.Varint(), mode});
    }
    core_.Restore(Key(key), std::move(lock));
  }
  if (!in.AtEnd()) {
    core_.Clear();  // Truncated or corrupt: start empty rather than half-restored.
    return;
  }
  last_applied_ = last_applied;
}

void LockStateMachine::Apply(LogIndex index, const std::string& command) {
  last_applied_ = index;
  CommandReader in(command);
  const uint8_t op = in.Byte();
  const ExecutionId exec = in.Varint();
  if (op == kOpRelease) {
    if (in.AtEnd() && exec != 0) {
      core_.Release(exec, grant_listener_);
    }
    return;
  }
  if (op != kOpAcquire) {
    return;  // Unknown commands ignored.
  }
  const uint64_t num_keys = in.Varint();
  const std::string_view keys = in.Rest();
  // Validate the whole command first: a malformed batch changes nothing.
  CommandReader check(keys);
  for (uint64_t i = 0; i < num_keys && check.ok(); ++i) {
    check.Mode();
    check.Key();
  }
  if (!in.ok() || !check.AtEnd() || exec == 0) {
    return;
  }
  // A grant listener may propose, and a one-node group commits and applies
  // that proposal re-entrantly, growing or compacting the log that owns
  // `command`. A single-key command reads nothing after its grant; a batch
  // reads its keys from a copy.
  const std::string batch_copy = num_keys > 1 ? std::string(keys) : std::string();
  CommandReader key_reader(num_keys > 1 ? std::string_view(batch_copy) : keys);
  for (uint64_t i = 0; i < num_keys; ++i) {
    const LockMode mode = key_reader.Mode();
    // The listener gets its own copy of the key: it may re-enter and free
    // the lock entry that holds the table's copy.
    const Key key(key_reader.Key());
    if (!key.empty() && core_.Acquire(exec, mode, key) != LockCore::AcquireResult::kQueued &&
        grant_listener_) {
      grant_listener_(exec, key);  // Granted, or already held: re-notify; listeners dedupe.
    }
  }
}

}  // namespace radical
