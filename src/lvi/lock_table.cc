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
  // Keys already held count as taken (write subsumes read in the rw-set, so
  // re-requests only happen if a caller passes duplicate keys).
  for (; *next < keys.size(); ++*next) {
    if (core_.Acquire(exec, modes[*next], keys[*next]) == LockCore::AcquireResult::kQueued) {
      ++waits_;
      return false;  // Parked; OnGranted resumes us.
    }
  }
  return true;
}

void LockTable::OnGranted(ExecutionId exec) {
  const auto it = pending_.find(exec);
  if (it == pending_.end()) {
    return;
  }
  Acquisition& acq = it->second;
  ++acq.next;
  if (TakeAvailable(exec, acq.keys, acq.modes, &acq.next)) {
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

void LockTable::ReleaseAll(ExecutionId exec) {
  // Cancel a parked acquisition (the LVI protocol never releases while still
  // acquiring, but failure handling may); the core drops its queued wait.
  pending_.erase(exec);
  core_.Release(exec, [this](ExecutionId granted, const Key&) { OnGranted(granted); });
}

}  // namespace radical
