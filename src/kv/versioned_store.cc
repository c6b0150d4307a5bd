#include "src/kv/versioned_store.h"

#include <algorithm>
#include <cassert>

namespace radical {

VersionedStore::VersionedStore(VersionedStoreOptions options) : options_(options) {}

void VersionedStore::Account(SimDuration* latency, SimDuration amount) const {
  if (latency != nullptr) {
    *latency += amount;
  }
}

std::optional<Item> VersionedStore::Get(const Key& key, SimDuration* latency) {
  ++reads_;
  Account(latency, options_.read_latency);
  const auto it = items_.find(key);
  if (it == items_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void VersionedStore::Put(const Key& key, const Value& value, SimDuration* latency) {
  ++writes_;
  Account(latency, options_.write_latency);
  Item& item = items_[key];
  item.value = value;
  ++item.version;
}

Version VersionedStore::VersionOf(const Key& key) const {
  const auto it = items_.find(key);
  return it == items_.end() ? kMissingVersion : it->second.version;
}

std::vector<Version> VersionedStore::BatchVersions(const std::vector<Key>& keys,
                                                   SimDuration* latency) const {
  // One batched read round regardless of key count (DynamoDB BatchGetItem).
  Account(latency, options_.read_latency);
  std::vector<Version> out;
  out.reserve(keys.size());
  for (const Key& k : keys) {
    out.push_back(VersionOf(k));
  }
  return out;
}

std::optional<Item> VersionedStore::Peek(const Key& key) const {
  const auto it = items_.find(key);
  if (it == items_.end()) {
    return std::nullopt;
  }
  return it->second;
}

Item* VersionedStore::ItemAtVersion(const Key& key, Version expected) {
  const auto [it, inserted] = items_.try_emplace(key);
  if ((inserted ? kMissingVersion : it->second.version) == expected) {
    return &it->second;
  }
  if (inserted) {
    items_.erase(it);
  }
  return nullptr;
}

bool VersionedStore::ConditionalPut(const Key& key, const Value& value, Version expected,
                                    SimDuration* latency) {
  ++writes_;
  Account(latency, options_.write_latency);
  Item* item = ItemAtVersion(key, expected);
  if (item == nullptr) {
    return false;
  }
  item->value = value;
  ++item->version;
  return true;
}

std::vector<bool> VersionedStore::ConditionalMultiPut(
    const std::vector<ConditionalWrite>& entries, SimDuration* latency) {
  // One round to storage for the whole batch.
  ++writes_;
  Account(latency, options_.write_latency);
  std::vector<bool> applied;
  applied.reserve(entries.size());
  for (const ConditionalWrite& entry : entries) {
    Item* item = ItemAtVersion(entry.key, entry.expected);
    if (item != nullptr) {
      item->value = entry.value;
      ++item->version;
    }
    applied.push_back(item != nullptr);
  }
  return applied;
}

bool VersionedStore::Erase(const Key& key, SimDuration* latency) {
  Account(latency, options_.write_latency);
  return items_.erase(key) > 0;
}

void VersionedStore::ApplyValidatedWrite(const Key& key, const Value& value,
                                         Version validated_version, SimDuration* latency) {
  ++writes_;
  Account(latency, options_.write_latency);
  const auto [it, inserted] = items_.try_emplace(key);
  // The write lock held since validation guarantees no other execution
  // advanced this item.
  assert((inserted ? kMissingVersion : it->second.version) == validated_version &&
         "write lock violated: item moved under a held lock");
  (void)inserted;
  it->second.value = value;
  it->second.version = validated_version + 1;
}

void VersionedStore::ForEachItem(const std::function<void(const Key&, const Item&)>& fn) const {
  std::vector<const ItemTable::value_type*> entries;
  entries.reserve(items_.size());
  for (const auto& entry : items_) {
    entries.push_back(&entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  for (const auto* entry : entries) {
    fn(entry->first, entry->second);
  }
}

void VersionedStore::Seed(const Key& key, const Value& value) {
  Item& item = items_[key];
  item.value = value;
  ++item.version;
}

void VersionedStore::RegisterMetrics(obs::MetricsRegistry* registry,
                                     const std::string& prefix) const {
  registry->AddCallbackGauge(prefix + ".reads",
                             [this] { return static_cast<int64_t>(reads_); });
  registry->AddCallbackGauge(prefix + ".writes",
                             [this] { return static_cast<int64_t>(writes_); });
  registry->AddCallbackGauge(prefix + ".items",
                             [this] { return static_cast<int64_t>(items_.size()); });
}

}  // namespace radical
