#include "sketch/substrate/edge_arena.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace covstream {

EdgeArena::EdgeArena(SetId num_sets)
    : num_sets_(num_sets),
      universe_words_(static_cast<std::uint32_t>(
          (static_cast<std::uint64_t>(num_sets) + 31) / 32)),
      bitmap_log2_(std::max<std::uint32_t>(
          kFirstSpillLog2,
          static_cast<std::uint32_t>(std::bit_width(
              static_cast<std::uint32_t>(universe_words_ - 1))))) {
  COVSTREAM_CHECK(num_sets > 0);
  std::fill(std::begin(free_head_), std::end(free_head_), kNullOffset);
}

std::uint32_t EdgeArena::allocate(std::uint32_t cap_log2) {
  COVSTREAM_CHECK(cap_log2 <= kMaxClass);
  if (free_head_[cap_log2] != kNullOffset) {
    const std::uint32_t offset = free_head_[cap_log2];
    free_head_[cap_log2] = data_[offset];
    return offset;
  }
  const std::size_t offset = data_.size();
  COVSTREAM_CHECK(offset + (1ull << cap_log2) < kNullOffset);
  data_.resize(offset + (1ull << cap_log2));
  return static_cast<std::uint32_t>(offset);
}

void EdgeArena::spill(Span& span) {
  const std::uint32_t offset = allocate(kFirstSpillLog2);
  data_[offset] = span.words[0];
  data_[offset + 1] = span.words[1];
  span.words[0] = offset;
  span.spilled = kSorted;
  span.cap_log2 = kFirstSpillLog2;
}

void EdgeArena::grow(Span& span) {
  const std::uint32_t new_log2 = static_cast<std::uint32_t>(span.cap_log2) + 1;
  const std::uint32_t new_offset = allocate(new_log2);
  std::memcpy(data_.data() + new_offset, data_.data() + span.words[0],
              span.size * sizeof(std::uint32_t));
  data_[span.words[0]] = free_head_[span.cap_log2];
  free_head_[span.cap_log2] = span.words[0];
  span.words[0] = new_offset;
  span.cap_log2 = static_cast<std::uint8_t>(new_log2);
}

void EdgeArena::to_bitmap(Span& span) {
  std::uint32_t* const block = data_.data() + span.words[0];
  const std::vector<SetId> sets(block, block + span.size);
  std::fill(block, block + bitmap_words(), 0u);
  for (const SetId set : sets) block[set >> 5] |= 1u << (set & 31);
  span.spilled = kBitmap;
}

bool EdgeArena::insert_spilled(Span& span, SetId value) {
  // The header fast path already resolved every bitmap and inline outcome
  // except a full inline list taking a third distinct set.
  if (span.spilled == kInline) spill(span);
  std::uint32_t* const begin = data_.data() + span.words[0];
  std::uint32_t* const end = begin + span.size;
  std::uint32_t* const pos = std::lower_bound(begin, end, value);
  if (pos != end && *pos == value) return false;
  if (span.size == (1u << span.cap_log2)) {
    if (span.cap_log2 == bitmap_log2_) {
      // W sets fill the W-word block: the list's next form is the bitmap,
      // which fits the very same block.
      to_bitmap(span);
      return insert(span, value);
    }
    const std::size_t at = static_cast<std::size_t>(pos - begin);
    const std::size_t tail = static_cast<std::size_t>(end - pos);
    grow(span);
    std::uint32_t* const moved = data_.data() + span.words[0];
    std::memmove(moved + at + 1, moved + at, tail * sizeof(std::uint32_t));
    moved[at] = value;
  } else {
    std::memmove(pos + 1, pos,
                 static_cast<std::size_t>(end - pos) * sizeof(std::uint32_t));
    *pos = value;
  }
  ++span.size;
  return true;
}

void EdgeArena::assign(Span& span, std::span<const SetId> values) {
  release(span);
  if (values.size() <= Span::kInlineCap) {
    std::copy(values.begin(), values.end(), span.words);
    span.size = static_cast<std::uint32_t>(values.size());
    return;
  }
  const bool bitmap = values.size() > bitmap_words();
  const std::uint32_t log2 =
      bitmap ? bitmap_log2_
             : std::max(kFirstSpillLog2,
                        static_cast<std::uint32_t>(
                            std::bit_width(values.size() - 1)));
  span.words[0] = allocate(log2);
  span.spilled = bitmap ? kBitmap : kSorted;
  span.cap_log2 = static_cast<std::uint8_t>(log2);
  span.size = static_cast<std::uint32_t>(values.size());
  std::uint32_t* const block = data_.data() + span.words[0];
  if (!bitmap) {
    std::copy(values.begin(), values.end(), block);
    return;
  }
  std::fill(block, block + bitmap_words(), 0u);
  for (const SetId set : values) block[set >> 5] |= 1u << (set & 31);
}

void EdgeArena::copy(Span& span, const EdgeArena& source, const Span& from) {
  COVSTREAM_CHECK(source.num_sets_ == num_sets_);
  release(span);
  span = from;
  if (from.spilled == kInline) return;
  span.words[0] = allocate(from.cap_log2);
  const std::uint32_t words =
      from.spilled == kBitmap ? bitmap_words() : from.size;
  std::memcpy(data_.data() + span.words[0],
              source.data_.data() + from.words[0],
              words * sizeof(std::uint32_t));
}

void EdgeArena::release(Span& span) {
  if (span.spilled != kInline) {
    data_[span.words[0]] = free_head_[span.cap_log2];
    free_head_[span.cap_log2] = span.words[0];
  }
  span = Span{};
}

void EdgeArena::save(SnapshotWriter& writer) const {
  writer.begin_section(snapshot_tag('A', 'R', 'N', 'A'));
  writer.u32_array(data_);
  for (std::uint32_t c = 0; c <= kMaxClass; ++c) writer.u32(free_head_[c]);
  writer.end_section();
}

bool EdgeArena::load(SnapshotReader& reader, std::vector<bool>& claimed) {
  if (!reader.begin_section(snapshot_tag('A', 'R', 'N', 'A'))) return false;
  std::vector<std::uint32_t> data;
  if (!reader.u32_array(data, kNullOffset)) return false;
  std::uint32_t heads[kMaxClass + 1];
  for (std::uint32_t c = 0; c <= kMaxClass; ++c) heads[c] = reader.u32();
  if (!reader.ok()) return false;
  claimed.assign(data.size(), false);
  // Validate every free chain: block offsets in bounds (with room for the
  // whole size-class block), chains acyclic (bounded by the slab size —
  // each free block occupies >= 4 slab words, so a longer walk is a cycle),
  // and blocks pairwise disjoint.
  for (std::uint32_t c = 0; c <= kMaxClass; ++c) {
    std::size_t steps = 0;
    const std::size_t max_steps = data.size() / 4 + 1;
    for (std::uint32_t at = heads[c]; at != kNullOffset; at = data[at]) {
      if (at >= data.size() || (1ull << c) > data.size() - at) {
        return reader.fail("edge arena: free block offset out of bounds");
      }
      if (++steps > max_steps) {
        return reader.fail("edge arena: cyclic free list");
      }
      for (std::uint64_t w = 0; w < (1ull << c); ++w) {
        if (claimed[at + w]) {
          return reader.fail("edge arena: free blocks overlap");
        }
        claimed[at + w] = true;
      }
    }
  }
  data_ = std::move(data);
  for (std::uint32_t c = 0; c <= kMaxClass; ++c) free_head_[c] = heads[c];
  return reader.end_section();
}

bool EdgeArena::check(const Span& span, std::vector<bool>& claimed,
                      SnapshotReader& reader) const {
  if (span.spilled > kBitmap) {
    return reader.fail("edge arena: unknown span form");
  }
  const Form canonical = span.size <= Span::kInlineCap ? kInline
                         : span.size <= bitmap_words() ? kSorted
                                                       : kBitmap;
  if (span.spilled != canonical) {
    return reader.fail("edge arena: span form is not the canonical one for "
                       "its size");
  }
  if (span.spilled != kInline) {
    // A sorted block lies between the first spill class and the bitmap
    // class (a full one converts in place); a bitmap's class is the one
    // num_sets implies. Range-checked before any 1 << cap_log2.
    if (span.spilled == kBitmap
            ? span.cap_log2 != bitmap_log2_
            : span.cap_log2 < kFirstSpillLog2 ||
                  span.cap_log2 > bitmap_log2_ ||
                  span.size > (1u << span.cap_log2)) {
      return reader.fail("edge arena: span size class does not suit its form");
    }
    const std::uint64_t block_words = 1ull << span.cap_log2;
    if (span.words[0] >= data_.size() ||
        block_words > data_.size() - span.words[0]) {
      return reader.fail("edge arena: span block outside the slab");
    }
    for (std::uint64_t w = 0; w < block_words; ++w) {
      if (claimed[span.words[0] + w]) {
        return reader.fail("edge arena: span aliases another slab block");
      }
      claimed[span.words[0] + w] = true;
    }
  }
  if (span.spilled != kBitmap) {
    const std::uint32_t* const list =
        span.spilled == kSorted ? data_.data() + span.words[0] : span.words;
    for (std::uint32_t i = 1; i < span.size; ++i) {
      if (!(list[i - 1] < list[i])) {
        return reader.fail("edge arena: list not strictly ascending");
      }
    }
    if (span.size > 0 && list[span.size - 1] >= num_sets_) {
      return reader.fail("edge arena: stored set id outside the sketch's "
                         "universe");
    }
    return true;
  }
  // A bitmap sets no bit for a set at or past num_sets — none among the
  // high bits of the last used word, none in the power-of-two padding — and
  // sets exactly `size` bits.
  const std::uint32_t* const block = data_.data() + span.words[0];
  const std::uint32_t tail_bits = num_sets_ % 32;
  std::uint64_t popcount = 0;
  for (std::uint32_t w = 0; w < bitmap_words(); ++w) {
    const std::uint32_t outside =
        w >= universe_words_ ? ~0u
        : w + 1 == universe_words_ && tail_bits != 0 ? ~0u << tail_bits
                                                     : 0u;
    if ((block[w] & outside) != 0) {
      return reader.fail("edge arena: bitmap holds a set outside the "
                         "sketch's universe");
    }
    popcount += static_cast<std::uint64_t>(std::popcount(block[w]));
  }
  if (popcount != span.size) {
    return reader.fail("edge arena: bitmap popcount differs from its size");
  }
  return true;
}

}  // namespace covstream
