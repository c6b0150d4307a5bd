#include "src/lvi/lock_table.h"

#include <algorithm>
#include <cassert>

namespace radical {

LockTable::LockTable(Simulator* sim) : sim_(sim) {}

void LockTable::AcquireAll(ExecutionId exec, std::vector<Key> keys, std::vector<LockMode> modes,
                           InlineTask granted) {
  assert(keys.size() == modes.size());
  assert(std::is_sorted(keys.begin(), keys.end()));
  const auto pit = pending_.find(exec);
  if (pit != pending_.end()) {
    // A retried acquisition while the original is still queued: keep the
    // original's progress (its position in every wait queue), just steer the
    // grant to the retry's continuation.
    ++reacquire_merges_;
    pit->second.granted = std::move(granted);
    return;
  }
  ++acquisitions_;
  size_t next = 0;
  if (TakeAvailable(exec, keys, modes, &next)) {
    Grant(std::move(granted));
  } else {
    pending_.emplace(exec, Acquisition{std::move(keys), std::move(modes), next,
                                       std::move(granted)});
  }
}

bool LockTable::TakeAvailable(ExecutionId exec, const std::vector<Key>& keys,
                              const std::vector<LockMode>& modes, size_t* next) {
  while (*next < keys.size()) {
    const Key& key = keys[*next];
    const LockMode mode = modes[*next];
    KeyLock& lock = locks_[key];
    // Already held (write subsumes read in the rw-set, so re-requests only
    // happen if a caller passes duplicate keys; treat as held).
    if (lock.writer == exec || lock.readers.count(exec) > 0) {
      ++*next;
      continue;
    }
    const bool grantable = mode == LockMode::kWrite
                               ? lock.Free() && lock.queue.empty()
                               : lock.writer == 0 && lock.queue.empty();
    if (!grantable) {
      ++waits_;
      lock.queue.push_back(Waiter{exec, mode});
      return false;  // Parked; DrainQueue resumes us on release.
    }
    Hold(exec, mode, key, lock);
    ++*next;
  }
  return true;
}

void LockTable::Advance(PendingMap::iterator it) {
  Acquisition& acq = it->second;
  if (TakeAvailable(it->first, acq.keys, acq.modes, &acq.next)) {
    InlineTask granted = std::move(acq.granted);
    pending_.erase(it);
    Grant(std::move(granted));
  }
}

void LockTable::Grant(InlineTask&& granted) {
  if (granted) {
    // Zero-delay event: callers never re-enter the table from inside it.
    sim_->Schedule(0, std::move(granted));
  }
}

void LockTable::Hold(ExecutionId exec, LockMode mode, const Key& key, KeyLock& lock) {
  if (mode == LockMode::kWrite) {
    assert(lock.Free());
    lock.writer = exec;
  } else {
    assert(lock.writer == 0);
    lock.readers.insert(exec);
  }
  held_[exec].insert(key);
}

void LockTable::ReleaseAll(ExecutionId exec) {
  // Cancel a parked acquisition (the LVI protocol never releases while still
  // acquiring, but failure handling may). It waits on exactly one key, the
  // one at `next`; compatible waiters queued behind it may now go ahead, so
  // that key drains.
  const auto pit = pending_.find(exec);
  if (pit != pending_.end()) {
    Acquisition& acq = pit->second;
    assert(acq.next < acq.keys.size());
    const Key parked_on = std::move(acq.keys[acq.next]);
    pending_.erase(pit);
    const auto lit = locks_.find(parked_on);
    if (lit != locks_.end()) {
      auto& queue = lit->second.queue;
      queue.erase(std::remove_if(queue.begin(), queue.end(),
                                 [exec](const Waiter& w) { return w.exec == exec; }),
                  queue.end());
      DrainQueue(parked_on);
    }
  }
  const auto hit = held_.find(exec);
  if (hit == held_.end()) {
    return;
  }
  const std::set<Key> keys = std::move(hit->second);
  held_.erase(hit);
  for (const Key& key : keys) {
    const auto lit = locks_.find(key);
    if (lit == locks_.end()) {
      continue;
    }
    KeyLock& lock = lit->second;
    if (lock.writer == exec) {
      lock.writer = 0;
    }
    lock.readers.erase(exec);
    DrainQueue(key);
  }
}

void LockTable::DrainQueue(const Key& key) {
  // Waiters resumed here continue their own sequential acquisitions; the
  // loop re-finds the lock each round because Advance may insert into
  // locks_ (a rehash invalidates iterators).
  for (;;) {
    const auto lit = locks_.find(key);
    if (lit == locks_.end()) {
      return;
    }
    KeyLock& lock = lit->second;
    if (lock.queue.empty()) {
      if (lock.Free()) {
        locks_.erase(lit);
      }
      return;
    }
    const Waiter head = lock.queue.front();
    const bool writer = head.mode == LockMode::kWrite;
    if (writer ? !lock.Free() : lock.writer != 0) {
      return;
    }
    lock.queue.erase(lock.queue.begin());
    Hold(head.exec, head.mode, key, lock);
    const auto pit = pending_.find(head.exec);
    if (pit != pending_.end()) {
      ++pit->second.next;
      Advance(pit);
    }
    if (writer) {
      return;  // A granted writer excludes everything behind it.
    }
    // Consecutive readers are granted together: loop.
  }
}

bool LockTable::IsWriteHeldBy(const Key& key, ExecutionId exec) const {
  const auto it = locks_.find(key);
  return it != locks_.end() && it->second.writer == exec;
}

bool LockTable::IsReadHeldBy(const Key& key, ExecutionId exec) const {
  const auto it = locks_.find(key);
  return it != locks_.end() && it->second.readers.count(exec) > 0;
}

size_t LockTable::WaitingCount(const Key& key) const {
  const auto it = locks_.find(key);
  return it == locks_.end() ? 0 : it->second.queue.size();
}

size_t LockTable::HeldKeyCount(ExecutionId exec) const {
  const auto it = held_.find(exec);
  return it == held_.end() ? 0 : it->second.size();
}

}  // namespace radical
