#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pinsim::sim {

namespace detail {

/// splitmix64's finalizer: the simulator's keys pack node/endpoint/id into
/// disjoint bit ranges, so every input bit must reach the low bits.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t k) noexcept {
  k ^= k >> 30;
  k *= 0xbf58476d1ce4e5b9ull;
  k ^= k >> 27;
  k *= 0x94d049bb133111ebull;
  k ^= k >> 31;
  return k;
}

/// Open-addressing index from uint64 keys to positions in a caller-owned
/// dense entry vector. Linear probing over a power-of-two slot array; each
/// slot is 8 bytes (position + 32-bit hash), so a lookup compares hashes
/// in the slot array and touches the entry vector only on a hash match.
/// Deletion shifts the following probe run back instead of leaving
/// tombstones, so the load never degrades under insert/erase churn and no
/// cleanup rehash exists. The index allocates nothing until the first
/// insert and grows by doubling at 3/4 load.
class HashIndex {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Position of `key`, or kNone. `key_at(pos)` reads an entry's key.
  template <typename KeyAt>
  [[nodiscard]] std::uint32_t find(std::uint64_t key,
                                   const KeyAt& key_at) const noexcept {
    if (slots_.empty()) return kNone;
    const std::uint32_t h = hash(key);
    for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.pos1 == 0) return kNone;
      if (s.hash == h && key_at(s.pos1 - 1) == key) return s.pos1 - 1;
    }
  }

  /// Links absent `key` to `pos`; `size` is the entry count after insert.
  void insert(std::uint64_t key, std::uint32_t pos, std::size_t size) {
    if (size * 4 > slots_.size() * 3) grow();
    place(Slot{pos + 1, hash(key)});
  }

  /// Unlinks `key` and returns its position, or kNone if absent.
  template <typename KeyAt>
  std::uint32_t erase(std::uint64_t key, const KeyAt& key_at) noexcept {
    if (slots_.empty()) return kNone;
    const std::uint32_t h = hash(key);
    std::size_t i = h & mask_;
    for (;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.pos1 == 0) return kNone;
      if (s.hash == h && key_at(s.pos1 - 1) == key) break;
    }
    const std::uint32_t pos = slots_[i].pos1 - 1;
    // Backward-shift deletion: pull each later member of the probe run into
    // the hole unless the hole lies before its home slot.
    for (std::size_t j = (i + 1) & mask_; slots_[j].pos1 != 0;
         j = (j + 1) & mask_) {
      const std::size_t home = slots_[j].hash & mask_;
      if (((j - home) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i] = Slot{};
    return pos;
  }

  /// Re-points `key`'s slot from position `from` to `to` (the entry moved).
  void repoint(std::uint64_t key, std::uint32_t from,
               std::uint32_t to) noexcept {
    for (std::size_t i = hash(key) & mask_;; i = (i + 1) & mask_) {
      if (slots_[i].pos1 == from + 1) {
        slots_[i].pos1 = to + 1;
        return;
      }
    }
  }

  void clear() noexcept {
    for (Slot& s : slots_) s = Slot{};
  }

 private:
  struct Slot {
    std::uint32_t pos1 = 0;  // entry position + 1; 0 marks an empty slot
    std::uint32_t hash = 0;
  };

  [[nodiscard]] static std::uint32_t hash(std::uint64_t k) noexcept {
    return static_cast<std::uint32_t>(mix64(k));
  }

  void place(Slot s) noexcept {
    std::size_t i = s.hash & mask_;
    while (slots_[i].pos1 != 0) i = (i + 1) & mask_;
    slots_[i] = s;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 8 : old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.pos1 != 0) place(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
};

}  // namespace detail

/// Hash map from uint64 keys for per-message tables (the obs lifetime
/// table's open sends, pulls and regions): up to thousands of live entries,
/// churned once per message.
///
/// Entries live contiguously in insertion order, compacted on erase by
/// moving the last entry into the hole; a `detail::HashIndex` maps keys to
/// positions. No per-entry allocation, and iteration is a vector walk.
/// Iteration order depends on the insert/erase history, not on the keys:
/// output built from a walk must sort first, and pinlint D2 requires an
/// `unordered-ok(<reason>)` annotation on every walk, as for
/// std::unordered_map. For tens of entries with ordered iteration, use
/// FlatMap (flat_map.hpp).
///
/// Invalidation contract: insert invalidates iterators and references;
/// erase invalidates those to the erased and to the last entry.
template <typename V>
class HashMap {
 public:
  using value_type = std::pair<std::uint64_t, V>;
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
  void clear() noexcept {
    entries_.clear();
    index_.clear();
  }

  [[nodiscard]] iterator find(std::uint64_t key) noexcept {
    const std::uint32_t pos = index_.find(key, key_at());
    return pos == detail::HashIndex::kNone ? entries_.end()
                                           : entries_.begin() + pos;
  }
  [[nodiscard]] const_iterator find(std::uint64_t key) const noexcept {
    const std::uint32_t pos = index_.find(key, key_at());
    return pos == detail::HashIndex::kNone ? entries_.end()
                                           : entries_.begin() + pos;
  }
  [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
    return index_.find(key, key_at()) != detail::HashIndex::kNone;
  }

  [[nodiscard]] V& at(std::uint64_t key) { return find(key)->second; }

  /// Inserts a default-constructed value if the key is absent.
  V& operator[](std::uint64_t key) { return emplace(key, V{}).first->second; }

  /// std::map-compatible emplace; no-op on collision.
  std::pair<iterator, bool> emplace(std::uint64_t key, V value) {
    const std::uint32_t pos = index_.find(key, key_at());
    if (pos != detail::HashIndex::kNone) return {entries_.begin() + pos, false};
    entries_.emplace_back(key, std::move(value));
    index_.insert(key, static_cast<std::uint32_t>(entries_.size() - 1),
                  entries_.size());
    return {entries_.end() - 1, true};
  }

  std::size_t erase(std::uint64_t key) {
    const std::uint32_t pos = index_.erase(key, key_at());
    if (pos == detail::HashIndex::kNone) return 0;
    fill_hole(pos);
    return 1;
  }

  /// Erases `it`; returns the iterator to continue a walk from (the entry
  /// moved into the hole, or end()).
  iterator erase(iterator it) {
    const auto pos = static_cast<std::size_t>(it - entries_.begin());
    erase(it->first);
    return entries_.begin() + static_cast<std::ptrdiff_t>(pos);
  }

 private:
  [[nodiscard]] auto key_at() const noexcept {
    return [this](std::uint32_t pos) { return entries_[pos].first; };
  }
  void fill_hole(std::uint32_t pos) {
    const auto last = static_cast<std::uint32_t>(entries_.size() - 1);
    if (pos != last) {
      entries_[pos] = std::move(entries_[last]);
      index_.repoint(entries_[pos].first, last, pos);
    }
    entries_.pop_back();
  }

  detail::HashIndex index_;
  std::vector<value_type> entries_;
};

/// Membership set of uint64 keys for per-message tables that need no
/// values: the endpoints' duplicate-suppression filters.
///
/// A set needs no values, so the keys live in the slots themselves
/// (linear probing, backward-shift deletion, doubling at 3/4 load): 8 bytes
/// per slot and no entry vector, which keeps a set of n keys near a sorted
/// vector's size. The one key equal to the free-slot marker is held out of
/// band. There is no iteration: `erase_if` is the only bulk operation, and
/// its result does not depend on slot order.
class HashSet {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  void clear() noexcept {
    for (std::uint64_t& k : slots_) k = kFree;
    size_ = 0;
    holds_free_key_ = false;
  }

  [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
    if (key == kFree) return holds_free_key_;
    if (slots_.empty()) return false;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (slots_[i] == key) return true;
      if (slots_[i] == kFree) return false;
    }
  }
  [[nodiscard]] std::size_t count(std::uint64_t key) const noexcept {
    return contains(key) ? 1 : 0;
  }

  /// Returns true if `key` was absent.
  bool insert(std::uint64_t key) {
    if (contains(key)) return false;
    ++size_;
    if (key == kFree) {
      holds_free_key_ = true;
      return true;
    }
    if (in_slots() * 4 > slots_.size() * 3) grow();
    place(key);
    return true;
  }

  std::size_t erase(std::uint64_t key) {
    if (!contains(key)) return 0;
    --size_;
    if (key == kFree) {
      holds_free_key_ = false;
      return 1;
    }
    std::size_t i = home(key);
    while (slots_[i] != key) i = (i + 1) & mask_;
    // Backward-shift deletion, as in detail::HashIndex::erase.
    for (std::size_t j = (i + 1) & mask_; slots_[j] != kFree;
         j = (j + 1) & mask_) {
      if (((j - home(slots_[j])) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i] = kFree;
    return 1;
  }

  /// Erases every key for which `pred(key)` is true.
  template <typename Pred>
  void erase_if(const Pred& pred) {
    std::vector<std::uint64_t> doomed;
    for (std::uint64_t k : slots_) {
      if (k != kFree && pred(k)) doomed.push_back(k);
    }
    if (holds_free_key_ && pred(kFree)) doomed.push_back(kFree);
    for (std::uint64_t k : doomed) erase(k);
  }

 private:
  static constexpr std::uint64_t kFree = ~std::uint64_t{0};

  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
    return detail::mix64(key) & mask_;
  }
  [[nodiscard]] std::size_t in_slots() const noexcept {
    return holds_free_key_ ? size_ - 1 : size_;
  }
  void place(std::uint64_t key) noexcept {
    std::size_t i = home(key);
    while (slots_[i] != kFree) i = (i + 1) & mask_;
    slots_[i] = key;
  }
  void grow() {
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(old.empty() ? 8 : old.size() * 2, kFree);
    mask_ = slots_.size() - 1;
    for (std::uint64_t k : old) {
      if (k != kFree) place(k);
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  bool holds_free_key_ = false;
};

}  // namespace pinsim::sim
