#include "src/raft/log.h"

#include <algorithm>
#include <cassert>

namespace radical {

Term RaftLog::TermAt(LogIndex index) const {
  if (index == snapshot_index_) {
    return snapshot_term_;
  }
  if (!HasEntry(index)) {
    return 0;
  }
  return entries_[index - snapshot_index_ - 1].term;
}

const LogEntry& RaftLog::At(LogIndex index) const {
  assert(HasEntry(index));
  return entries_[index - snapshot_index_ - 1];
}

LogIndex RaftLog::Append(LogEntry entry) {
  entries_.push_back(std::move(entry));
  return last_index();
}

bool RaftLog::TryAppend(LogIndex prev_index, Term prev_term,
                        const std::vector<LogEntry>& entries) {
  if (prev_index < snapshot_index_) {
    // The prefix up to the snapshot is committed state; skip what overlaps.
    const LogIndex skip = snapshot_index_ - prev_index;
    if (skip >= entries.size()) {
      return true;  // Everything offered is already captured by the snapshot.
    }
    std::vector<LogEntry> suffix(entries.begin() + static_cast<long>(skip), entries.end());
    return TryAppend(snapshot_index_, snapshot_term_, suffix);
  }
  if (prev_index > last_index() || TermAt(prev_index) != prev_term) {
    return false;
  }
  LogIndex index = prev_index;
  for (const LogEntry& e : entries) {
    ++index;
    if (index <= last_index()) {
      if (TermAt(index) == e.term) {
        continue;  // Already have it.
      }
      // Conflict: delete this entry and everything after it.
      entries_.resize(index - snapshot_index_ - 1);
    }
    entries_.push_back(e);
  }
  return true;
}

std::vector<LogEntry> RaftLog::EntriesAfter(LogIndex from, size_t max_batch) const {
  assert(from >= snapshot_index_);
  const LogIndex to = std::min<LogIndex>(last_index(), from + max_batch);
  std::vector<LogEntry> out;
  out.reserve(to > from ? to - from : 0);
  for (LogIndex i = from + 1; i <= to; ++i) {
    out.push_back(At(i));
  }
  return out;
}

LogIndex RaftLog::FirstIndexOfTerm(LogIndex index) const {
  const Term term = TermAt(index);
  assert(term != 0);
  LogIndex first = index;
  while (first > snapshot_index_ + 1 && TermAt(first - 1) == term) {
    --first;
  }
  return first;
}

LogIndex RaftLog::LastIndexOfTerm(Term term, LogIndex bound) const {
  LogIndex i = std::min(bound, last_index());
  while (i > snapshot_index_) {
    if (TermAt(i) == term) {
      return i;
    }
    --i;
  }
  return 0;
}

void RaftLog::CompactTo(LogIndex index) {
  if (index <= snapshot_index_) {
    return;
  }
  assert(index <= last_index());
  const Term term = TermAt(index);
  entries_.erase(entries_.begin(),
                 entries_.begin() + static_cast<long>(index - snapshot_index_));
  snapshot_index_ = index;
  snapshot_term_ = term;
}

void RaftLog::ResetToSnapshot(LogIndex index, Term term) {
  entries_.clear();
  snapshot_index_ = index;
  snapshot_term_ = term;
}

}  // namespace radical
