#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace pinsim::sim {

/// Sorted-vector associative map for the simulator's hot lookup tables
/// (send/pull requests by sequence id, tracked regions by region id, fault
/// plans by link key).
///
/// The simulator's tables are small (tens of live entries), integer-keyed
/// and lookup-dominated, which is the regime where a contiguous sorted
/// vector beats both `std::map` (pointer-chasing, a node allocation per
/// insert) and `std::unordered_map` (hashing, buckets, and an iteration
/// order the determinism contract then has to launder). Iteration is always
/// in ascending key order, so walking a FlatMap is deterministic by
/// construction — no pinlint D2 `unordered-ok` waiver needed.
///
/// Invalidation contract: insert and erase invalidate iterators AND
/// references to mapped values (elements live in one vector). State that
/// must survive reentrant callbacks while the table mutates must be stored
/// indirectly — e.g. `FlatMap<K, ObjectPool<T>::Ptr>` keeps each T at a
/// stable address while the table itself shifts (see mem/pool.hpp).
template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  [[nodiscard]] iterator begin() noexcept { return entries_.begin(); }
  [[nodiscard]] iterator end() noexcept { return entries_.end(); }
  [[nodiscard]] const_iterator begin() const noexcept {
    return entries_.begin();
  }
  [[nodiscard]] const_iterator end() const noexcept { return entries_.end(); }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  void clear() noexcept { entries_.clear(); }

  [[nodiscard]] iterator lower_bound(const K& key) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }
  [[nodiscard]] const_iterator lower_bound(const K& key) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }

  [[nodiscard]] iterator find(const K& key) {
    auto it = lower_bound(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }
  [[nodiscard]] const_iterator find(const K& key) const {
    auto it = lower_bound(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }

  [[nodiscard]] bool contains(const K& key) const {
    return find(key) != entries_.end();
  }
  [[nodiscard]] std::size_t count(const K& key) const {
    return contains(key) ? 1 : 0;
  }

  [[nodiscard]] V& at(const K& key) { return find(key)->second; }

  /// Inserts a default-constructed value if the key is absent.
  V& operator[](const K& key) {
    auto it = lower_bound(key);
    if (it == entries_.end() || it->first != key) {
      it = entries_.emplace(it, key, V{});
    }
    return it->second;
  }

  /// std::map-compatible emplace of a (key, value) pair; no-op on collision.
  std::pair<iterator, bool> emplace(const K& key, V value) {
    auto it = lower_bound(key);
    if (it != entries_.end() && it->first == key) return {it, false};
    return {entries_.emplace(it, key, std::move(value)), true};
  }

  std::size_t erase(const K& key) {
    auto it = find(key);
    if (it == entries_.end()) return 0;
    entries_.erase(it);
    return 1;
  }
  iterator erase(iterator it) { return entries_.erase(it); }

 private:
  std::vector<value_type> entries_;
};

/// Sorted-vector set companion to FlatMap, for small membership tables
/// (duplicate-suppression keys, dead peers).
template <typename K>
class FlatSet {
 public:
  using iterator = typename std::vector<K>::const_iterator;

  [[nodiscard]] iterator begin() const noexcept { return keys_.begin(); }
  [[nodiscard]] iterator end() const noexcept { return keys_.end(); }
  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }
  [[nodiscard]] bool empty() const noexcept { return keys_.empty(); }
  void clear() noexcept { keys_.clear(); }

  [[nodiscard]] bool contains(const K& key) const {
    auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    return it != keys_.end() && *it == key;
  }
  [[nodiscard]] std::size_t count(const K& key) const {
    return contains(key) ? 1 : 0;
  }

  std::pair<iterator, bool> insert(const K& key) {
    auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it != keys_.end() && *it == key) return {it, false};
    return {keys_.insert(it, key), true};
  }

  std::size_t erase(const K& key) {
    auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it == keys_.end() || *it != key) return 0;
    keys_.erase(it);
    return 1;
  }

 private:
  std::vector<K> keys_;
};

}  // namespace pinsim::sim
