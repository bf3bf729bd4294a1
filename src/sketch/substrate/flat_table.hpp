// Flat open-addressing element index (DESIGN.md §5.6).
//
// Maps ElemId -> slot index for the sketch substrate. Linear probing over a
// power-of-two bucket array with backward-shift deletion: no tombstones, no
// per-node allocation. Buckets are PACKED 12-byte records (8-byte ElemId +
// 4-byte slot) in one byte slab, so the common-case probe touches a single
// cache line — the split key/slot parallel arrays this replaces paid two
// lines per probe, and the std::unordered_map before them chased a pointer
// per find. The packed layout keeps the footprint at a true 12 bytes per
// bucket; a {ElemId, uint32} struct would pad to 16.
//
// Element ids may be arbitrary 64-bit values (the streaming model's universe
// is unknown), so no key is reserved as an empty marker; emptiness is
// recorded in the 32-bit slot field instead (kNoSlot).
#pragma once

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "hash/hash64.hpp"
#include "sketch/substrate/snapshot.hpp"
#include "util/common.hpp"
#include "util/space_meter.hpp"

namespace covstream {

class FlatElemTable {
 public:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  FlatElemTable();

  /// The bucket hash behind index_of. Geometry-independent, so batched
  /// callers can precompute it for a whole chunk (it is exactly the SIMD
  /// mix64 sweep with salt 0) and feed the *_hashed entry points — the
  /// probe then never re-derives the hash per edge, and the hint survives
  /// a rehash between computation and use.
  static std::uint64_t bucket_hash(ElemId key) { return mix64(key); }

  /// Slot stored for `key`, or kNoSlot.
  std::uint32_t find(ElemId key) const {
    return find_hashed(key, bucket_hash(key));
  }

  /// find() with the caller's precomputed bucket_hash(key) — the batched
  /// admission's read-only lookahead probe (DESIGN.md §5.8).
  std::uint32_t find_hashed(ElemId key, std::uint64_t hash) const {
    std::size_t i = hash & mask_;
    while (slot_at(i) != kNoSlot) {
      if (key_at(i) == key) return slot_at(i);
      i = (i + 1) & mask_;
    }
    return kNoSlot;
  }

  /// Hints the cache that the probe bucket for a key hashing to `hash` is
  /// about to be touched. Used by the batched admission path to hide the
  /// table's dependent load latency behind the edges ahead in the chunk.
  /// Purely advisory: a rehash between the hint and the access only wastes
  /// the hint.
  void prefetch_hashed(std::uint64_t hash) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(bytes_.data() + (hash & mask_) * kBucketBytes);
#else
    (void)hash;
#endif
  }

  /// prefetch_hashed for callers without a precomputed hash.
  void prefetch(ElemId key) const { prefetch_hashed(bucket_hash(key)); }

  /// One-probe upsert: returns the existing slot for `key`, or stores and
  /// returns `slot_if_new`. The bool reports whether an insert happened.
  std::pair<std::uint32_t, bool> find_or_insert(ElemId key,
                                                std::uint32_t slot_if_new) {
    return find_or_insert_hashed(key, slot_if_new, bucket_hash(key));
  }

  /// find_or_insert with the caller's precomputed bucket_hash(key) — the
  /// batched admission path hashes whole chunks through the SIMD kernels
  /// instead of once per probe.
  std::pair<std::uint32_t, bool> find_or_insert_hashed(ElemId key,
                                                       std::uint32_t slot_if_new,
                                                       std::uint64_t hash);

  /// Inserts a mapping; `key` must not already be present.
  void insert(ElemId key, std::uint32_t slot);

  /// Removes `key` (backward-shift, so probe chains stay dense). Returns
  /// whether the key was present.
  bool erase(ElemId key);

  /// Pre-sizes the bucket array for `expected` keys (avoids rehash chains
  /// when the population is known up front).
  void reserve(std::size_t expected);

  std::size_t size() const { return size_; }

  /// 8-byte words held: one ElemId + one uint32 per bucket (12 bytes, and
  /// the packed record layout really occupies 12 — no struct padding).
  std::size_t space_words() const { return words_for_buckets(buckets_); }

  /// Serializes the table verbatim (bucket count, key count, packed bucket
  /// slab — docs/FORMATS.md §3 'TBLE'). Probe geometry is preserved exactly,
  /// so a loaded table answers find() with the same probes and footprint.
  void save(SnapshotWriter& writer) const;

  /// Restores a save()d table, replacing this one. Validates geometry
  /// (power-of-two bucket count, slab length, occupancy count) and fails the
  /// reader — returning false — rather than accepting an inconsistent table.
  bool load(SnapshotReader& reader);

 private:
  static constexpr std::size_t kBucketBytes = 12;  // 8B ElemId + 4B slot

  std::size_t index_of(ElemId key) const { return mix64(key) & mask_; }

  // Packed-record accessors; memcpy compiles to single aligned-enough loads
  // and stores and sidesteps strict-aliasing concerns.
  ElemId key_at(std::size_t i) const {
    ElemId key;
    std::memcpy(&key, bytes_.data() + i * kBucketBytes, sizeof key);
    return key;
  }
  std::uint32_t slot_at(std::size_t i) const {
    std::uint32_t slot;
    std::memcpy(&slot, bytes_.data() + i * kBucketBytes + 8, sizeof slot);
    return slot;
  }
  void store(std::size_t i, ElemId key, std::uint32_t slot) {
    std::memcpy(bytes_.data() + i * kBucketBytes, &key, sizeof key);
    std::memcpy(bytes_.data() + i * kBucketBytes + 8, &slot, sizeof slot);
  }
  void store_slot(std::size_t i, std::uint32_t slot) {
    std::memcpy(bytes_.data() + i * kBucketBytes + 8, &slot, sizeof slot);
  }

  void grow();

  std::vector<unsigned char> bytes_;  // buckets_ packed 12-byte records
  std::size_t buckets_ = 0;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace covstream
