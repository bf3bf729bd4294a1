// Analytic space accounting (DESIGN.md §5.2).
//
// Streaming algorithms report their state size in 8-byte words; SpaceMeter
// tracks the running and peak totals. This is what reproduces the "Space"
// column of Table 1: RSS would be dominated by the workload generator rather
// than by algorithm state.
//
// Since the flat-substrate refactor (DESIGN.md §5.6), sketches measure their
// actual container footprints rather than a per-entry model; the helpers
// below define the word costs of the substrate's packed layouts so every
// space_words() implementation agrees on the arithmetic.
#pragma once

#include <cstddef>
#include <string>

namespace covstream {

/// Words for `n` 4-byte values (SetId slabs, slot indices) packed 2 per word.
constexpr std::size_t words_for_u32(std::size_t n) { return (n + 1) / 2; }

/// Words for `n` bits (per-slot liveness bits) packed 64 per word.
constexpr std::size_t words_for_bits(std::size_t n) { return (n + 63) / 64; }

/// Words for `n` open-addressing buckets (8-byte ElemId + 4-byte slot).
constexpr std::size_t words_for_buckets(std::size_t n) { return (n * 3 + 1) / 2; }

class SpaceMeter {
 public:
  /// Adds `words` to the current footprint.
  void allocate(std::size_t words) {
    current_ += words;
    if (current_ > peak_) peak_ = current_;
  }

  /// Removes `words` from the current footprint.
  void release(std::size_t words) {
    words = words > current_ ? current_ : words;
    current_ -= words;
  }

  /// Replaces the current footprint (convenient for structures that recompute
  /// their size wholesale).
  void set_current(std::size_t words) {
    current_ = words;
    if (current_ > peak_) peak_ = current_;
  }

  std::size_t current_words() const { return current_; }
  std::size_t peak_words() const { return peak_; }

  void reset() { current_ = peak_ = 0; }

  /// Merge another meter's peak as if it ran concurrently with this one.
  void absorb_concurrent(const SpaceMeter& other) {
    current_ += other.current_;
    peak_ += other.peak_;
  }

 private:
  std::size_t current_ = 0;
  std::size_t peak_ = 0;
};

/// Human-readable "12.3 Kw" / "4.5 Mw" rendering of a word count.
std::string format_words(std::size_t words);

}  // namespace covstream
