#include "src/lvi/lock_core.h"

#include <algorithm>

namespace radical {

LockCore::AcquireResult LockCore::Acquire(ExecutionId exec, LockMode mode,
                                          const Key& key) {
  KeyLock& lock = locks_.try_emplace(key).first->second;
  if (lock.writer == exec || lock.readers.count(exec) > 0) {
    return AcquireResult::kHeld;
  }
  if (lock.queue.empty() && lock.Admits(mode)) {
    Hold(exec, mode, key, lock);
    return AcquireResult::kGranted;
  }
  std::vector<Key>& waiting = execs_[exec].waiting;
  if (std::find(waiting.begin(), waiting.end(), key) == waiting.end()) {
    lock.queue.push_back(Waiter{exec, mode});
    waiting.emplace_back(key);
  }
  return AcquireResult::kQueued;
}

void LockCore::Hold(ExecutionId exec, LockMode mode, const Key& key, KeyLock& lock) {
  if (mode == LockMode::kWrite) {
    lock.writer = exec;
  } else {
    lock.readers.insert(exec);
  }
  execs_[exec].held.emplace(key);
}

void LockCore::Release(ExecutionId exec, const GrantFn& on_grant) {
  const auto it = execs_.find(exec);
  if (it == execs_.end()) {
    return;
  }
  ExecLocks mine = std::move(it->second);
  execs_.erase(it);
  // Leave every queue first, so no drain below can grant `exec` a key it
  // still waits on; then the keys it waited on drain (compatible waiters
  // behind it may go ahead), then the keys it held.
  std::sort(mine.waiting.begin(), mine.waiting.end());
  for (const Key& key : mine.waiting) {
    const auto lit = locks_.find(key);
    if (lit != locks_.end()) {
      auto& queue = lit->second.queue;
      queue.erase(std::remove_if(queue.begin(), queue.end(),
                                 [exec](const Waiter& w) { return w.exec == exec; }),
                  queue.end());
    }
  }
  for (const Key& key : mine.waiting) {
    Drain(key, locks_.find(key), on_grant);
  }
  for (const Key& key : mine.held) {
    const auto lit = locks_.find(key);
    if (lit == locks_.end()) {
      continue;
    }
    if (lit->second.writer == exec) {
      lit->second.writer = 0;
    }
    lit->second.readers.erase(exec);
    Drain(key, lit, on_grant);
  }
}

void LockCore::Drain(const Key& key, LockMap::iterator lit, const GrantFn& on_grant) {
  // Re-found after each grant: the callback may have erased the entry or
  // rehashed the table.
  for (; lit != locks_.end(); lit = locks_.find(key)) {
    KeyLock& lock = lit->second;
    if (lock.queue.empty()) {
      if (lock.Free()) {
        locks_.erase(lit);
      }
      return;
    }
    const Waiter head = lock.queue.front();
    if (!lock.Admits(head.mode)) {
      return;
    }
    lock.queue.erase(lock.queue.begin());
    std::vector<Key>& waiting = execs_[head.exec].waiting;
    const auto wit = std::find(waiting.begin(), waiting.end(), key);
    if (wit != waiting.end()) {
      waiting.erase(wit);
    }
    Hold(head.exec, head.mode, key, lock);
    if (on_grant) {
      on_grant(head.exec, key);  // May re-enter: `lock` is not touched again.
    }
    if (head.mode == LockMode::kWrite) {
      return;  // A granted writer excludes everything behind it.
    }
    // Consecutive readers are granted together: loop.
  }
}

size_t LockCore::HeldKeyCount(ExecutionId exec) const {
  const auto it = execs_.find(exec);
  return it == execs_.end() ? 0 : it->second.held.size();
}

size_t LockCore::TotalHeldKeys() const {
  size_t held = 0;
  for (const auto& [key, lock] : locks_) {
    if (!lock.Free()) ++held;
  }
  return held;
}

void LockCore::ForEachLock(const std::function<void(const Key&, const KeyLock&)>& fn) const {
  std::vector<const LockMap::value_type*> sorted;
  sorted.reserve(locks_.size());
  for (const auto& entry : locks_) {
    sorted.push_back(&entry);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  for (const auto* entry : sorted) {
    fn(entry->first, entry->second);
  }
}

void LockCore::Restore(const Key& key, KeyLock lock) {
  if (lock.writer != 0) {
    execs_[lock.writer].held.emplace(key);
  }
  for (const ExecutionId reader : lock.readers) {
    execs_[reader].held.emplace(key);
  }
  for (const Waiter& waiter : lock.queue) {
    execs_[waiter.exec].waiting.emplace_back(key);
  }
  locks_.insert_or_assign(key, std::move(lock));
}

void LockCore::Clear() {
  locks_.clear();
  execs_.clear();
}

}  // namespace radical
