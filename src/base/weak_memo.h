// Address-keyed memo over immutable objects shared through std::shared_ptr.
//
// The per-module artifacts of a warm session — lint verdicts
// (lint::Cache) and VHDL text (vhdl::EmissionCache) — are keyed by the
// address of a shared extraction module. An address alone is not an
// identity: a byte-budgeted dtas::ExtractionCache evicts modules, and a
// later module may be allocated at a freed address. So each entry keeps a
// weak handle on its object and is served only while that object is
// alive; once the handle expires the entry is stale and is refilled in
// place when its address comes back. Weak handles also mean a memo never
// extends an object's life or blocks eviction.
//
// Stale entries whose address never comes back would pile up for the
// whole session, so expired entries are erased whenever the table has
// doubled since the last sweep: the memo stays within about twice the
// entries that were alive at that sweep, at an amortized O(1) per insert.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <unordered_map>
#include <utility>

namespace bridge::base {

template <class T, class V>
class WeakMemo {
 public:
  struct Lookup {
    const V& value;
    bool hit;  // served from the memo; false: just computed by `fill`
  };

  /// The value memoized for `obj`. On a miss (no entry, or a stale one)
  /// `fill(V&)` computes it into a default-constructed V. `owner` must
  /// co-own `obj`; the entry keeps only a weak handle on it. `on_drop`
  /// sees every value the memo discards: stale values about to be
  /// refilled and expired entries swept out.
  template <class Fill, class OnDrop>
  Lookup get(const T& obj, const std::shared_ptr<const T>& owner, Fill&& fill,
             OnDrop&& on_drop) {
    auto it = map_.find(&obj);
    if (it != map_.end() && !it->second.alive.expired()) {
      return {it->second.value, true};
    }
    if (it == map_.end()) {
      if (map_.size() >= sweep_at_) sweep(on_drop);
      it = map_.try_emplace(&obj).first;
    } else {
      on_drop(it->second.value);
      it->second.value = V{};
    }
    Entry& e = it->second;
    fill(e.value);
    // Armed only once the value is complete: a fill that throws leaves
    // the entry stale, so the next lookup recomputes it.
    e.alive = owner;
    return {e.value, false};
  }

  template <class Fill>
  Lookup get(const T& obj, const std::shared_ptr<const T>& owner,
             Fill&& fill) {
    return get(obj, owner, std::forward<Fill>(fill), [](const V&) {});
  }

  /// Entries held, stale ones included.
  std::size_t size() const { return map_.size(); }

 private:
  /// Below this many entries the table is never swept.
  static constexpr std::size_t kMinSweep = 64;

  struct Entry {
    V value;
    std::weak_ptr<const T> alive;
  };

  template <class OnDrop>
  void sweep(OnDrop& on_drop) {
    for (auto it = map_.begin(); it != map_.end();) {
      if (it->second.alive.expired()) {
        on_drop(it->second.value);
        it = map_.erase(it);
      } else {
        ++it;
      }
    }
    sweep_at_ = std::max(kMinSweep, 2 * map_.size());
  }

  std::unordered_map<const T*, Entry> map_;
  std::size_t sweep_at_ = kMinSweep;
};

}  // namespace bridge::base
