#include "sketch/substrate/flat_table.hpp"

#include "hash/simd/kernels.hpp"

namespace covstream {
namespace {
constexpr std::size_t kInitialBuckets = 16;  // power of two
}

FlatElemTable::FlatElemTable()
    : bytes_(kInitialBuckets * kBucketBytes, 0xFF),
      buckets_(kInitialBuckets),
      mask_(kInitialBuckets - 1) {
  // 0xFF-filled records read as slot == kNoSlot (empty) in every bucket.
}

std::pair<std::uint32_t, bool> FlatElemTable::find_or_insert_hashed(
    ElemId key, std::uint32_t slot_if_new, std::uint64_t hash) {
  COVSTREAM_CHECK(slot_if_new != kNoSlot);
  std::size_t i = hash & mask_;
  while (slot_at(i) != kNoSlot) {
    if (key_at(i) == key) return {slot_at(i), false};
    i = (i + 1) & mask_;
  }
  // Grow only on the insert path — a lookup hit must never rehash. The
  // probe position is stale after a grow (the hash is not), so re-probe.
  if ((size_ + 1) * 4 > buckets_ * 3) {
    grow();
    i = hash & mask_;
    while (slot_at(i) != kNoSlot) i = (i + 1) & mask_;
  }
  store(i, key, slot_if_new);
  ++size_;
  return {slot_if_new, true};
}

void FlatElemTable::insert(ElemId key, std::uint32_t slot) {
  COVSTREAM_CHECK(slot != kNoSlot);
  if ((size_ + 1) * 4 > buckets_ * 3) grow();
  std::size_t i = index_of(key);
  while (slot_at(i) != kNoSlot) {
    COVSTREAM_CHECK(key_at(i) != key);
    i = (i + 1) & mask_;
  }
  store(i, key, slot);
  ++size_;
}

bool FlatElemTable::erase(ElemId key) {
  std::size_t i = index_of(key);
  while (true) {
    if (slot_at(i) == kNoSlot) return false;
    if (key_at(i) == key) break;
    i = (i + 1) & mask_;
  }
  // Backward-shift: pull every displaced follower over the hole so that no
  // probe chain is broken (the classic tombstone-free linear-probing erase).
  std::size_t j = i;
  while (true) {
    j = (j + 1) & mask_;
    if (slot_at(j) == kNoSlot) break;
    const std::size_t ideal = index_of(key_at(j));
    // Movable iff the hole lies within [ideal, j) cyclically.
    if (((j - ideal) & mask_) >= ((j - i) & mask_)) {
      store(i, key_at(j), slot_at(j));
      i = j;
    }
  }
  store_slot(i, kNoSlot);
  --size_;
  return true;
}

void FlatElemTable::reserve(std::size_t expected) {
  while ((expected + 1) * 4 > buckets_ * 3) grow();
}

void FlatElemTable::save(SnapshotWriter& writer) const {
  writer.begin_section(snapshot_tag('T', 'B', 'L', 'E'));
  writer.u64(buckets_);
  writer.u64(size_);
  writer.bytes(bytes_.data(), buckets_ * kBucketBytes);
  writer.end_section();
}

bool FlatElemTable::load(SnapshotReader& reader) {
  if (!reader.begin_section(snapshot_tag('T', 'B', 'L', 'E'))) return false;
  const std::uint64_t buckets = reader.u64();
  const std::uint64_t size = reader.u64();
  if (!reader.ok()) return false;
  if (buckets < kInitialBuckets || (buckets & (buckets - 1)) != 0) {
    return reader.fail("flat table: bucket count not a power of two");
  }
  // Bound the count against the section payload BEFORE any arithmetic on it
  // (division, so a forged 2^62 can neither wrap buckets*12 nor provoke a
  // terabyte allocation — the reader fails instead).
  if (buckets > reader.remaining() / kBucketBytes) {
    return reader.fail("flat table: bucket slab overruns the section payload");
  }
  if (size * 4 > buckets * 3) {
    return reader.fail("flat table: occupancy exceeds the 3/4 load factor");
  }
  std::vector<unsigned char> bytes(static_cast<std::size_t>(buckets) *
                                   kBucketBytes);
  if (!reader.bytes(bytes.data(), bytes.size())) return false;
  bytes_ = std::move(bytes);
  buckets_ = static_cast<std::size_t>(buckets);
  mask_ = buckets_ - 1;
  size_ = static_cast<std::size_t>(size);
  std::size_t occupied = 0;
  for (std::size_t i = 0; i < buckets_; ++i) {
    if (slot_at(i) != kNoSlot) ++occupied;
  }
  if (occupied != size_) {
    return reader.fail("flat table: occupied buckets disagree with key count");
  }
  return reader.end_section();
}

void FlatElemTable::grow() {
  std::vector<unsigned char> old_bytes = std::move(bytes_);
  const std::size_t old_buckets = buckets_;
  buckets_ *= 2;
  mask_ = buckets_ - 1;
  bytes_.assign(buckets_ * kBucketBytes, 0xFF);
  const auto old_key = [&](std::size_t b) {
    ElemId key;
    std::memcpy(&key, old_bytes.data() + b * kBucketBytes, sizeof key);
    return key;
  };
  const auto old_slot = [&](std::size_t b) {
    std::uint32_t slot;
    std::memcpy(&slot, old_bytes.data() + b * kBucketBytes + 8, sizeof slot);
    return slot;
  };
  // The rehash is a random scatter over a slab that just doubled, so cache
  // misses dominate a naive hash-probe-store loop. Gather the live records
  // in old-bucket order (that order is part of the table's deterministic
  // layout — keep it), batch-hash them through the dispatched SIMD kernel
  // (mix64 with salt 0 IS bucket_hash), then scatter with each record's
  // probe line prefetched a few records ahead.
  std::vector<ElemId> keys;
  std::vector<std::uint32_t> slots;
  keys.reserve(size_);
  slots.reserve(size_);
  for (std::size_t b = 0; b < old_buckets; ++b) {
    if (old_slot(b) == kNoSlot) continue;
    keys.push_back(old_key(b));
    slots.push_back(old_slot(b));
  }
  std::vector<std::uint64_t> hashes(keys.size());
  simd::kernels().mix64_batch(keys.data(), hashes.data(), keys.size(), 0);
  constexpr std::size_t kPrefetchAhead = 8;
  for (std::size_t j = 0; j < keys.size(); ++j) {
    if (j + kPrefetchAhead < keys.size()) {
      prefetch_hashed(hashes[j + kPrefetchAhead]);
    }
    std::size_t i = hashes[j] & mask_;
    while (slot_at(i) != kNoSlot) i = (i + 1) & mask_;
    store(i, keys[j], slots[j]);
  }
}

}  // namespace covstream
