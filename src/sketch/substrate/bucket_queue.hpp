// Monotone bucket queue over sketch slots (DESIGN.md §5.6).
//
// The substrate's eviction order: pop_max() returns the lexicographic max
// (key, slot) of the queued entries, at amortized O(1) per operation and
// with sequential memory traffic (a binary heap pays O(log R) random sift
// levels per pop).
//
// Keys map to B equal-width buckets over [0, max key at layout time] by a
// monotone function (a larger key never lands in a lower bucket), so every
// entry of a lower bucket has a strictly smaller key than every entry of a
// higher one and the max lives in the highest non-empty bucket. Each bucket
// is a chain of fixed-size chunks in one pooled array. The OPEN bucket is
// the highest one popped from: its entries are copied out, sorted by
// (key, slot) and consumed from the end. A push at or above the open
// bucket is a sorted insert into it, any other push a chunk append; a pop
// that finds the open bucket empty opens the next lower non-empty one.
//
// The substrate keeps this cheap: after a pop the cutoff is at most the
// popped key and every later push lands strictly below the cutoff, so the
// open bucket index only falls and the downward scan is amortized over the
// B buckets. Once it falls below B/8 (the live keys crowd the bottom of the
// range) or the queue outgrows its bucket count four times over, the next
// pop lays the queue out afresh over the live range. Exactness rests on
// monotone bucketing alone, never on that pattern: any push order pops the
// same sequence.
//
// A default-constructed queue is one bucket with nothing open: every push
// appends to its one chain, and the first opening lays the queue out over
// the live range, whatever its pop count. So the substrate pushes from its
// first admission and pays for a layout only once it evicts.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/common.hpp"

namespace covstream {

template <typename Key>
class BucketQueue {
 public:
  struct Entry {
    Key key{};
    std::uint32_t slot = 0;

    friend bool operator<(const Entry& a, const Entry& b) {
      return a.key < b.key || (a.key == b.key && a.slot < b.slot);
    }
  };

  /// Bucket count bounds and the target entries per bucket at layout time.
  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = 65536;
  static constexpr std::size_t kEntriesPerBucket = 64;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// How many times the queue has been laid out (assign, retain, or a pop
  /// that re-spread crowded buckets or opened a never-laid-out queue).
  std::size_t layouts() const { return layouts_; }

  /// Empties the queue and lays `entries` out afresh (any order, distinct
  /// slots).
  void assign(std::span<const Entry> entries) {
    Key max{};
    for (const Entry& entry : entries) max = std::max(max, entry.key);
    const std::size_t count = entries.size();
    const std::size_t buckets = std::clamp<std::size_t>(
        std::bit_ceil(count / kEntriesPerBucket + 1), kMinBuckets, kMaxBuckets);
    heads_.assign(buckets, kNone);
    scale_ = max > Key{} ? static_cast<double>(buckets) /
                               static_cast<double>(max)
                         : 0.0;
    open_bucket_ = buckets;
    open_.clear();
    chunks_.clear();
    chunks_.reserve(count / kChunkEntries + buckets);
    free_chunk_ = kNone;
    size_ = 0;
    pops_since_layout_ = 0;
    ++layouts_;
    for (const Entry& entry : entries) push(entry.key, entry.slot);
  }

  void push(Key key, std::uint32_t slot) {
    ++size_;
    const std::size_t bucket = bucket_of(key);
    if (bucket >= open_bucket_) {
      const Entry entry{key, slot};
      open_.insert(std::upper_bound(open_.begin(), open_.end(), entry), entry);
      return;
    }
    std::uint32_t& head = heads_[bucket];
    if (head == kNone || chunks_[head].count == kChunkEntries) {
      const std::uint32_t fresh = new_chunk();
      chunks_[fresh].next = head;
      chunks_[fresh].count = 0;
      head = fresh;
    }
    Chunk& chunk = chunks_[head];
    chunk.keys[chunk.count] = key;
    chunk.slots[chunk.count++] = slot;
  }

  /// Hints the cache that push(key, ...) is about to run: both lines of
  /// the chunk at the head of the key's bucket, the one the push writes
  /// (or, when full, links behind a fresh one). Purely advisory, like
  /// FlatElemTable::prefetch_hashed.
  void prefetch_push(Key key) const {
#if defined(__GNUC__) || defined(__clang__)
    const std::size_t bucket = bucket_of(key);
    if (bucket >= open_bucket_ || heads_[bucket] == kNone) return;
    const char* const chunk =
        reinterpret_cast<const char*>(chunks_.data() + heads_[bucket]);
    __builtin_prefetch(chunk, 1);
    __builtin_prefetch(chunk + 64, 1);
#else
    (void)key;
#endif
  }

  /// The max entry, opening the next bucket if needed; the queue must be
  /// nonempty.
  const Entry& top() {
    COVSTREAM_CHECK(size_ > 0);
    if (open_.empty()) open_next();
    return open_.back();
  }

  Entry pop_max() {
    const Entry max = top();
    open_.pop_back();
    --size_;
    ++pops_since_layout_;
    return max;
  }

  /// The open bucket's entries in ascending (key, slot) order: its last
  /// entries are the next pops (the substrate's victim lookahead reads
  /// them). A push at or above the open bucket, or an opening, moves them.
  std::span<const Entry> open() const { return open_; }

  /// Largest queued key without reorganizing (a scan of the highest
  /// non-empty bucket when the open one is empty); the queue must be
  /// nonempty.
  Key max_key() const {
    COVSTREAM_CHECK(size_ > 0);
    if (!open_.empty()) return open_.back().key;
    Key max{};
    bool any = false;
    for_each_in(highest_chain_below(open_bucket_), [&](const Entry& entry) {
      if (!any || max < entry.key) max = entry.key;
      any = true;
    });
    return max;
  }

  /// Calls `fn(entry)` on every queued entry, in no particular order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& entry : open_) fn(entry);
    for (std::size_t bucket = 0; bucket < heads_.size(); ++bucket) {
      for_each_in(bucket, fn);
    }
  }

  /// Keeps only the entries whose slot satisfies `keep`, laid out afresh.
  template <typename Keep>
  void retain(Keep&& keep) {
    std::vector<Entry> kept;
    kept.reserve(size_);
    for_each([&](const Entry& entry) {
      if (keep(entry.slot)) kept.push_back(entry);
    });
    assign(kept);
  }

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  static constexpr std::uint32_t kChunkEntries = 10;

  /// Ten entries plus the link in two cache lines. Keys and slots sit in
  /// separate arrays, 12 bytes an entry, where a padded 16-byte Entry would
  /// fit seven.
  struct alignas(64) Chunk {
    Key keys[kChunkEntries];
    std::uint32_t slots[kChunkEntries];
    std::uint32_t next = kNone;
    std::uint32_t count = 0;
  };
  static_assert(sizeof(Key) != 8 || sizeof(Chunk) == 128);

  /// Monotone in the key: the integer part of key * scale_, clamped to
  /// [0, B). Conversion to double, multiplication by a non-negative scale
  /// and truncation never reorder keys, so neither does the bucket index.
  std::size_t bucket_of(Key key) const {
    const double x = static_cast<double>(key) * scale_;
    if (!(x > 0.0)) return 0;
    const std::size_t last = heads_.size() - 1;
    return x < static_cast<double>(last) ? static_cast<std::size_t>(x) : last;
  }

  std::uint32_t new_chunk() {
    if (free_chunk_ != kNone) {
      const std::uint32_t chunk = free_chunk_;
      free_chunk_ = chunks_[chunk].next;
      return chunk;
    }
    chunks_.emplace_back();
    return static_cast<std::uint32_t>(chunks_.size() - 1);
  }

  /// The highest non-empty chain below `bucket`; one must exist.
  std::size_t highest_chain_below(std::size_t bucket) const {
    while (heads_[--bucket] == kNone) {
    }
    return bucket;
  }

  template <typename Fn>
  void for_each_in(std::size_t bucket, Fn&& fn) const {
    for (std::uint32_t at = heads_[bucket]; at != kNone; at = chunks_[at].next) {
      const Chunk& chunk = chunks_[at];
      for (std::uint32_t i = 0; i < chunk.count; ++i) {
        fn(Entry{chunk.keys[i], chunk.slots[i]});
      }
    }
  }

  /// Opens the highest non-empty bucket below the (empty) open one, laying
  /// the queue out afresh first when it never was, when the open index has
  /// fallen below B/8, or when the queue has outgrown its bucket count. A
  /// relayout of a laid-out queue costs O(size + B), so it also waits for
  /// (size + B)/8 pops since the last one: every such relayout is paid for
  /// by the pops before it.
  void open_next() {
    std::size_t bucket = highest_chain_below(open_bucket_);
    const std::size_t buckets = heads_.size();
    const bool crowded = bucket < buckets / 8 ||
                         (size_ > 4 * kEntriesPerBucket * buckets &&
                          buckets < kMaxBuckets);
    if (layouts_ == 0 ||
        (crowded && 8 * pops_since_layout_ >= size_ + buckets)) {
      retain([](std::uint32_t) { return true; });
      bucket = highest_chain_below(heads_.size());
    }
    open_bucket_ = bucket;
    std::uint32_t at = heads_[bucket];
    heads_[bucket] = kNone;
    while (at != kNone) {
      Chunk& chunk = chunks_[at];
      for (std::uint32_t i = 0; i < chunk.count; ++i) {
        open_.push_back(Entry{chunk.keys[i], chunk.slots[i]});
      }
      const std::uint32_t next = chunk.next;
      chunk.next = free_chunk_;
      free_chunk_ = at;
      at = next;
    }
    std::sort(open_.begin(), open_.end());
  }

  std::vector<std::uint32_t> heads_{kNone};  // bucket -> first chunk, or kNone
  std::vector<Chunk> chunks_;         // pooled chains; free ones linked
  std::uint32_t free_chunk_ = kNone;
  std::vector<Entry> open_;           // the open bucket, ascending
  std::size_t open_bucket_ = 1;       // chains at or above it are empty
  double scale_ = 0.0;
  std::size_t size_ = 0;
  std::size_t pops_since_layout_ = 0;
  std::size_t layouts_ = 0;
};

}  // namespace covstream
