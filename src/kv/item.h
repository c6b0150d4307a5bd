// Item: a stored value plus its version number.
//
// Radical stores version numbers as part of the data and interposes on every
// write to increment them (§3.1); the LVI validate step compares the
// near-user cache's versions against the primary's.

#ifndef RADICAL_SRC_KV_ITEM_H_
#define RADICAL_SRC_KV_ITEM_H_

#include <string>
#include <unordered_map>

#include "src/common/types.h"
#include "src/common/value.h"

namespace radical {

using Key = std::string;

struct Item {
  Value value;
  Version version = 0;

  bool operator==(const Item& other) const {
    return version == other.version && value == other.value;
  }
};

// The item table every store keeps: hash-indexed, because each request looks
// up each key of its rw-set several times (cache read, version collection,
// validation). Its iteration order is unspecified; a visit that must be
// deterministic sorts (VersionedStore::ForEachItem).
using ItemTable = std::unordered_map<Key, Item>;

}  // namespace radical

#endif  // RADICAL_SRC_KV_ITEM_H_
