// Deterministic flat containers for the delivery pipeline's hot paths.
//
// PR 2 banned hash containers from the protocol layers because their
// iteration order depends on hashing/rehashing history, which would leak
// into the deterministic schedule (broadcast walks receivers in container
// order, drawing per-receiver RNG).  The fix put red-black `std::map` on
// every hot path — stable order, but every lookup chases heap nodes and
// every insert allocates.  These containers keep the half of `std::map`
// that is part of the contract (strict-weak-ordered iteration, identical
// to `std::map` for the same key set) and drop the half that costs:
//
//  * `FlatMap` / `FlatSet` — sorted `std::vector` storage, binary-search
//    lookup, contiguous iteration.  Same iteration order as `std::map` /
//    `std::set` over the same keys, by construction.
//  * `DenseNodeIndex<T>` — direct vector indexing for small dense integer
//    ids (node ids 0..N), with deterministic ascending-id iteration.  One
//    array load replaces a map lookup.
//
// Contract differences from `std::map` that call sites must respect:
//
//  * Insert/erase invalidates ALL iterators and references (vector
//    reallocation / element shifting).  `std::map` references are
//    node-stable; code that holds a reference across a callback that may
//    mutate the map must re-find after the callback.
//  * `value_type` is `std::pair<Key, T>` (non-const Key) so elements are
//    move-assignable within the vector.  Do not mutate keys through
//    iterators.
//  * No transparent-comparator heterogeneous lookup; keys compare with
//    `operator<`.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

namespace cts {

/// Sorted-vector map with a `std::map`-compatible API subset and
/// `std::map`-identical iteration order.
template <typename Key, typename T>
class FlatMap {
 public:
  using key_type = Key;
  using mapped_type = T;
  using value_type = std::pair<Key, T>;
  using storage_type = std::vector<value_type>;
  using iterator = typename storage_type::iterator;
  using const_iterator = typename storage_type::const_iterator;
  using reverse_iterator = typename storage_type::reverse_iterator;
  using const_reverse_iterator = typename storage_type::const_reverse_iterator;
  using size_type = std::size_t;

  iterator begin() { return data_.begin(); }
  iterator end() { return data_.end(); }
  const_iterator begin() const { return data_.begin(); }
  const_iterator end() const { return data_.end(); }
  const_iterator cbegin() const { return data_.cbegin(); }
  const_iterator cend() const { return data_.cend(); }
  reverse_iterator rbegin() { return data_.rbegin(); }
  reverse_iterator rend() { return data_.rend(); }
  const_reverse_iterator rbegin() const { return data_.rbegin(); }
  const_reverse_iterator rend() const { return data_.rend(); }

  bool empty() const { return data_.empty(); }
  size_type size() const { return data_.size(); }
  void clear() { data_.clear(); }
  void reserve(size_type n) { data_.reserve(n); }

  iterator lower_bound(const Key& k) {
    return std::lower_bound(data_.begin(), data_.end(), k, KeyLess{});
  }
  const_iterator lower_bound(const Key& k) const {
    return std::lower_bound(data_.begin(), data_.end(), k, KeyLess{});
  }
  iterator upper_bound(const Key& k) {
    return std::upper_bound(data_.begin(), data_.end(), k, KeyGreater{});
  }
  const_iterator upper_bound(const Key& k) const {
    return std::upper_bound(data_.begin(), data_.end(), k, KeyGreater{});
  }

  iterator find(const Key& k) {
    auto it = lower_bound(k);
    return (it != data_.end() && !(k < it->first)) ? it : data_.end();
  }
  const_iterator find(const Key& k) const {
    auto it = lower_bound(k);
    return (it != data_.end() && !(k < it->first)) ? it : data_.end();
  }
  bool contains(const Key& k) const { return find(k) != data_.end(); }
  size_type count(const Key& k) const { return contains(k) ? 1u : 0u; }

  T& operator[](const Key& k) { return try_emplace(k).first->second; }

  T& at(const Key& k) {
    auto it = find(k);
    assert(it != data_.end() && "FlatMap::at: key not found");
    return it->second;
  }
  const T& at(const Key& k) const {
    auto it = find(k);
    assert(it != data_.end() && "FlatMap::at: key not found");
    return it->second;
  }

  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const Key& k, Args&&... args) {
    // Tail fast path: monotone-key workloads (wire sequence numbers, round
    // ids) insert in increasing order, so the common case extends or
    // revisits the current maximum — no binary search over the whole run.
    if (!data_.empty()) {
      const Key& back = data_.back().first;
      if (back < k) {
        data_.emplace_back(std::piecewise_construct, std::forward_as_tuple(k),
                           std::forward_as_tuple(std::forward<Args>(args)...));
        return {data_.end() - 1, true};
      }
      if (!(k < back)) return {data_.end() - 1, false};
    }
    auto it = lower_bound(k);
    if (it != data_.end() && !(k < it->first)) return {it, false};
    it = data_.emplace(it, std::piecewise_construct, std::forward_as_tuple(k),
                       std::forward_as_tuple(std::forward<Args>(args)...));
    return {it, true};
  }

  /// `std::map::emplace`-alike for the common `emplace(key, mapped)` shape.
  template <typename K, typename... Args>
  std::pair<iterator, bool> emplace(K&& k, Args&&... args) {
    return try_emplace(Key(std::forward<K>(k)), std::forward<Args>(args)...);
  }

  std::pair<iterator, bool> insert(const value_type& v) {
    return try_emplace(v.first, v.second);
  }
  std::pair<iterator, bool> insert(value_type&& v) {
    return try_emplace(v.first, std::move(v.second));
  }

  template <typename M>
  std::pair<iterator, bool> insert_or_assign(const Key& k, M&& obj) {
    auto [it, inserted] = try_emplace(k, std::forward<M>(obj));
    if (!inserted) it->second = std::forward<M>(obj);
    return {it, inserted};
  }

  /// Batched insert: append a run of entries, then restore sorted order in
  /// one pass.  Equal keys keep the FIRST occurrence (existing entries win
  /// over batch entries, earlier batch entries win over later ones) —
  /// matching a loop of `insert()` calls.  O((n+m) log (n+m)) total instead
  /// of m inserts each shifting the tail.
  template <typename InputIt>
  void insert_batch(InputIt first, InputIt last) {
    const size_type old = data_.size();
    data_.insert(data_.end(), first, last);
    if (data_.size() == old) return;
    std::stable_sort(data_.begin(), data_.end(),
                     [](const value_type& a, const value_type& b) {
                       return a.first < b.first;
                     });
    auto pos = std::unique(data_.begin(), data_.end(),
                           [](const value_type& a, const value_type& b) {
                             return !(a.first < b.first) && !(b.first < a.first);
                           });
    data_.erase(pos, data_.end());
  }

  iterator erase(const_iterator it) { return data_.erase(it); }
  iterator erase(const_iterator first, const_iterator last) {
    return data_.erase(first, last);
  }
  size_type erase(const Key& k) {
    auto it = find(k);
    if (it == data_.end()) return 0;
    data_.erase(it);
    return 1;
  }

  friend bool operator==(const FlatMap& a, const FlatMap& b) {
    return a.data_ == b.data_;
  }

 private:
  struct KeyLess {
    bool operator()(const value_type& v, const Key& k) const {
      return v.first < k;
    }
  };
  struct KeyGreater {
    bool operator()(const Key& k, const value_type& v) const {
      return k < v.first;
    }
  };

  storage_type data_;
};

/// Sorted-vector set with a `std::set`-compatible API subset.
template <typename Key>
class FlatSet {
 public:
  using key_type = Key;
  using value_type = Key;
  using storage_type = std::vector<Key>;
  using iterator = typename storage_type::const_iterator;
  using const_iterator = typename storage_type::const_iterator;
  using size_type = std::size_t;

  const_iterator begin() const { return data_.begin(); }
  const_iterator end() const { return data_.end(); }
  const_iterator cbegin() const { return data_.cbegin(); }
  const_iterator cend() const { return data_.cend(); }

  bool empty() const { return data_.empty(); }
  size_type size() const { return data_.size(); }
  void clear() { data_.clear(); }
  void reserve(size_type n) { data_.reserve(n); }

  const_iterator lower_bound(const Key& k) const {
    return std::lower_bound(data_.begin(), data_.end(), k);
  }
  const_iterator find(const Key& k) const {
    auto it = lower_bound(k);
    return (it != data_.end() && !(k < *it)) ? it : data_.end();
  }
  bool contains(const Key& k) const { return find(k) != data_.end(); }
  size_type count(const Key& k) const { return contains(k) ? 1u : 0u; }

  std::pair<const_iterator, bool> insert(const Key& k) {
    auto it = std::lower_bound(data_.begin(), data_.end(), k);
    if (it != data_.end() && !(k < *it)) return {it, false};
    it = data_.insert(it, k);
    return {it, true};
  }

  size_type erase(const Key& k) {
    auto it = find(k);
    if (it == data_.end()) return 0;
    data_.erase(it);
    return 1;
  }
  const_iterator erase(const_iterator it) { return data_.erase(it); }

  friend bool operator==(const FlatSet& a, const FlatSet& b) {
    return a.data_ == b.data_;
  }
  template <typename K, typename Pred>
  friend std::size_t erase_if(FlatSet<K>& s, Pred pred);

 private:
  storage_type data_;
};

/// Remove every entry matching `pred` from a FlatMap; returns the count.
/// Drop-in for the `std::erase_if(std::map, pred)` call sites: one stable
/// compaction pass plus one range erase, so the survivors keep their order
/// and removing k of n entries costs O(n), not O(k·n) tail shifts.
template <typename Key, typename T, typename Pred>
std::size_t erase_if(FlatMap<Key, T>& m, Pred pred) {
  const auto keep_end = std::remove_if(m.begin(), m.end(), pred);
  const auto removed = static_cast<std::size_t>(m.end() - keep_end);
  m.erase(keep_end, m.end());
  return removed;
}

template <typename Key, typename Pred>
std::size_t erase_if(FlatSet<Key>& s, Pred pred) {
  return std::erase_if(s.data_, pred);
}

/// Direct-indexed store for values keyed by small dense integer ids
/// (node ids 0..N on a ring).  `ensure`/`find` are O(1) array loads;
/// iteration visits present slots in ascending id order, which is exactly
/// the order a `std::map<NodeId, T>` would produce — so swapping one in
/// does not perturb the deterministic schedule.
template <typename T>
class DenseNodeIndex {
 public:
  using id_type = std::uint32_t;

  /// Largest id this index will store densely.  Callers with possibly
  /// non-dense keys (e.g. sentinel/invalid ids) must route them elsewhere.
  static constexpr id_type kMaxDenseId = (1u << 24) - 1u;

  /// Get-or-create the slot for `id` (default-constructs T on first use).
  T& ensure(id_type id) {
    assert(id <= kMaxDenseId && "DenseNodeIndex: id not dense/small");
    // size_t arithmetic: id + 1 must not wrap for ids near the u32 max.
    if (id >= slots_.size()) slots_.resize(static_cast<std::size_t>(id) + 1u);
    Slot& s = slots_[id];
    if (!s.present) {
      s.present = true;
      s.value = T{};
      ++size_;
    }
    return s.value;
  }

  T* find(id_type id) {
    if (id >= slots_.size() || !slots_[id].present) return nullptr;
    return &slots_[id].value;
  }
  const T* find(id_type id) const {
    if (id >= slots_.size() || !slots_[id].present) return nullptr;
    return &slots_[id].value;
  }
  bool contains(id_type id) const { return find(id) != nullptr; }

  /// Mark `id` absent (destroying its value).  Returns true if it was
  /// present.  Slots stay allocated, so pointers to OTHER slots remain
  /// valid — unlike FlatMap, only `ensure` of a larger id reallocates.
  bool erase(id_type id) {
    if (id >= slots_.size() || !slots_[id].present) return false;
    slots_[id].present = false;
    slots_[id].value = T{};
    --size_;
    return true;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear() {
    slots_.clear();
    size_ = 0;
  }

  /// Visit present slots in ascending id order: f(id, T&).
  template <typename F>
  void for_each(F&& f) {
    for (id_type id = 0; id < slots_.size(); ++id) {
      if (slots_[id].present) f(id, slots_[id].value);
    }
  }
  template <typename F>
  void for_each(F&& f) const {
    for (id_type id = 0; id < slots_.size(); ++id) {
      if (slots_[id].present) f(id, slots_[id].value);
    }
  }

 private:
  struct Slot {
    T value{};
    bool present = false;
  };
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// Pack two u32 halves into one u64 key whose `<` reproduces the
/// lexicographic order of the pair (hi, lo) — e.g. (node, group).
constexpr std::uint64_t pack_u32_pair(std::uint32_t hi, std::uint32_t lo) {
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

}  // namespace cts
