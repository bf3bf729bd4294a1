// Shared pieces of perfbench_tool: flag parsing, the seeded input model,
// the in-memory span recorder, and small statistics/JSON helpers.
//
// Inputs are derived from the benchmark's --seed through this file's own
// generator (not the library's Rng or workload generators), so a change to
// the program under test can never change what the benchmark feeds it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/common.hpp"

namespace perfbench {

using covstream::Edge;
using covstream::ElemId;
using covstream::SetId;

// ------------------------------------------------------------------ flags --
/// `--key=value` flags. Every flag a subcommand reads is required, and an
/// unknown key is fatal (finish()), so a typo or a missing value cannot
/// silently change a run.
class Flags {
 public:
  Flags(int argc, char** argv, int first);
  std::string str(const std::string& key);
  std::uint64_t u64(const std::string& key);
  double f64(const std::string& key);
  void finish() const;

 private:
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> used_;
};

[[noreturn]] void die(const std::string& message);

// ------------------------------------------------------------- randomness --
inline std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// splitmix64 stream: tiny, fast, and fully determined by its seed.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return mix64(state_ += 0x9e3779b97f4a7c15ULL); }
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

 private:
  std::uint64_t state_;
};

/// Zipf(alpha) over [0, support) by Vose's alias method: O(1) per draw, one
/// random word and two table lookups.
class ZipfAlias {
 public:
  ZipfAlias(std::size_t support, double alpha);
  std::size_t sample(SeededRng& rng) const {
    const std::uint64_t word = rng.next();
    const std::size_t slot = static_cast<std::size_t>(
        ((word >> 32) * static_cast<std::uint64_t>(threshold_.size())) >> 32);
    return static_cast<std::uint32_t>(word) < threshold_[slot] ? slot
                                                               : alias_[slot];
  }

 private:
  std::vector<std::uint32_t> threshold_;
  std::vector<std::uint32_t> alias_;
};

/// The model of the library's make_zipf (`covstream_cli --cmd=generate
/// --family=zipf`): set s draws min_size + Zipf(alpha_sets) element samples,
/// with replacement, from a Zipf(alpha_elems) popularity over num_elems
/// elements (ranks relabeled by a seeded shuffle), and keeps the distinct
/// ones, as CoverageInstance::from_edges does.
struct ZipfShape {
  SetId num_sets;
  ElemId num_elems;
  std::size_t min_size;
  std::size_t max_size;
  double alpha_sets;
  double alpha_elems;
};

/// Draws the instance one set at a time, so memory is one set plus the
/// element tables, never the whole instance.
class ZipfSets {
 public:
  ZipfSets(const ZipfShape& shape, std::uint64_t seed);
  /// The distinct elements of the next set, in draw order; false after the
  /// last set.
  bool next_set(SetId* set, std::vector<ElemId>* elems);
  /// Element samples drawn so far, duplicates included.
  std::uint64_t draws() const { return draws_; }

 private:
  ZipfShape shape_;
  SeededRng rng_;
  ZipfAlias sizes_;
  ZipfAlias elems_;
  std::vector<std::uint32_t> relabel_;
  std::vector<std::uint32_t> stamp_;  // set id + 1 that last drew the rank
  SetId next_ = 0;
  std::uint64_t draws_ = 0;
};

/// A whole ZipfShape instance in random arrival order, in memory (the wire
/// tenants are small). Read in order; after the last edge it starts over.
class EdgeCycle {
 public:
  EdgeCycle(const ZipfShape& shape, std::uint64_t seed);
  void fill(std::vector<Edge>& out, std::size_t count) {
    out.resize(count);
    for (Edge& edge : out) {
      edge = edges_[at_];
      at_ = at_ + 1 == edges_.size() ? 0 : at_ + 1;
    }
  }
  std::size_t size() const { return edges_.size(); }

 private:
  std::vector<Edge> edges_;
  std::size_t at_ = 0;
};

/// Fisher-Yates over `items`.
template <typename T>
void shuffle(std::vector<T>& items, SeededRng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
}

/// `count` distinct set ids from [0, num_sets), in draw order.
std::vector<SetId> random_family(SeededRng& rng, SetId num_sets,
                                 std::size_t count);

// ---------------------------------------------------------------- tracing --
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed interval around a call into a layer. Spans of one request
/// share `request`; `parent` is the span that caused this one (0 = root).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Keeps spans in memory (thread-safe); written out once, when the run ends.
class Tracer {
 public:
  std::uint64_t open() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return ++next_id_;
  }
  void close(std::uint64_t id, std::uint64_t parent, std::uint64_t request,
             std::string name, std::int64_t start_ns, std::int64_t end_ns) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({id, parent, request, std::move(name), start_ns, end_ns});
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Self time per span name, attributing every instant of the root's
  /// interval to the deepest span open at that instant (any thread). For
  /// serial code this is "duration minus time covered by child spans";
  /// concurrent children of one layer count once, so the self times of all
  /// layers sum to the root's duration.
  std::map<std::string, double> self_seconds() const;
  bool write_json(const std::string& path) const;

 private:
  std::mutex mutex_;
  std::uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer makes it a no-op (the untraced replay).
class Scope {
 public:
  Scope(Tracer* tracer, std::string name, std::uint64_t parent,
        std::uint64_t request = 0)
      : tracer_(tracer), name_(std::move(name)), parent_(parent),
        request_(request) {
    if (tracer_ != nullptr) {
      id_ = tracer_->open();
      start_ = now_ns();
    }
  }
  ~Scope() {
    if (tracer_ != nullptr) {
      tracer_->close(id_, parent_, request_, std::move(name_), start_,
                     now_ns());
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::string name_;
  std::uint64_t parent_;
  std::uint64_t request_;
  std::uint64_t id_ = 0;
  std::int64_t start_ = 0;
};

// ------------------------------------------------------------ statistics --
/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Times `fn` once, in milliseconds.
template <typename Fn>
double time_ms(Fn&& fn) {
  const std::int64_t start = now_ns();
  fn();
  return static_cast<double>(now_ns() - start) * 1e-6;
}

/// Flat JSON object writer for the tool's one-line results.
class JsonOut {
 public:
  JsonOut& num(const std::string& key, double value);
  JsonOut& str(const std::string& key, const std::string& value);
  JsonOut& raw(const std::string& key, const std::string& json);
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

std::string json_escape(std::string_view text);

}  // namespace perfbench
