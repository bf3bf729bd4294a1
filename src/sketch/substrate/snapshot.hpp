// Versioned binary snapshots of sketch state (DESIGN.md §5.9, docs/FORMATS.md).
//
// Every sketch in the library is small by construction (O~(n) words — that is
// the point of the paper), so a crash-recovery story of "persist the sketch,
// not the stream" is cheap: a snapshot is one little-endian file with a fixed
// 32-byte header (magic, format version, endianness marker, object type,
// payload length), a payload of tagged sections, and a trailing FNV-1a
// checksum over everything before it. docs/FORMATS.md is the normative spec;
// this header is the only implementation of it.
//
// Writers buffer the payload in memory and assemble the framed file in
// finish()/write_file(); readers slurp the whole file, verify the frame
// (magic -> version -> endianness -> type -> length -> checksum, in that
// order, so the error names the outermost mismatch), and then hand out
// bounds-checked reads. Any overrun, section mismatch, or invariant failure
// poisons the reader: reads return zero, ok() goes false, and error() holds
// the first failure — load functions check ok() once at the end instead of
// after every field.
//
// Round trips are bit-for-bit: save() serializes the complete query-relevant
// state (including incremental space counters and container geometry), so
// load(save(S)) answers every query — and reports tracked_space_words() —
// exactly as S does, and continues ingesting identically.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace covstream {

/// Format-wide constants (docs/FORMATS.md §1). Bump kSnapshotVersion on any
/// layout change; readers reject every version they were not built for.
inline constexpr char kSnapshotMagic[8] = {'C', 'V', 'S', 'N', 'A', 'P', '0', '1'};
inline constexpr std::uint32_t kSnapshotVersion = 3;
inline constexpr std::uint32_t kSnapshotEndianMarker = 0x0A0B0C0Du;

/// Top-level object tags (docs/FORMATS.md §2). One per snapshottable type;
/// 3 (the retired sketch ladder) is never reused.
enum class SnapshotType : std::uint32_t {
  kSubsampleSketch = 1,
  kWeightedSketch = 2,
  kL0KCover = 4,
  kIngestCheckpoint = 5,
  kFleetManifest = 6,
  kShardSnapshot = 7,
};

/// Section tags (docs/FORMATS.md §3): four ASCII bytes, read as little-endian
/// u32. Sections frame each component's fields so a reader can verify
/// structure, not just bytes.
constexpr std::uint32_t snapshot_tag(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

/// 64-bit FNV-1a over a byte range — the snapshot trailer checksum.
std::uint64_t snapshot_checksum(std::span<const std::uint8_t> bytes);

/// Accumulates one snapshot payload in memory; finish() frames it with the
/// header and trailing checksum. All integers little-endian; doubles are the
/// IEEE-754 bit pattern written as u64 (docs/FORMATS.md §1).
class SnapshotWriter {
 public:
  explicit SnapshotWriter(SnapshotType type) : type_(type) {}

  void u8(std::uint8_t v) { payload_.push_back(v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void bytes(const void* data, std::size_t len) { raw(data, len); }

  /// Length-prefixed (u64 count) arrays of fixed-width scalars.
  void u32_array(std::span<const std::uint32_t> values) {
    u64(values.size());
    raw(values.data(), values.size() * sizeof(std::uint32_t));
  }
  void u64_array(std::span<const std::uint64_t> values) {
    u64(values.size());
    raw(values.data(), values.size() * sizeof(std::uint64_t));
  }
  void f64_array(std::span<const double> values) {
    u64(values.size());
    raw(values.data(), values.size() * sizeof(double));
  }

  /// Opens a tagged section; the byte length is patched in end_section().
  /// Sections may nest (a sketch section contains the substrate sections).
  void begin_section(std::uint32_t tag);
  void end_section();

  /// Frames header + payload + checksum into one byte image. No open
  /// sections may remain.
  std::vector<std::uint8_t> finish() const;

  /// finish() straight to a file. False (with *error set when non-null) on
  /// I/O failure; the file is written via a temp-and-rename so a crash never
  /// leaves a torn snapshot at `path`.
  bool write_file(const std::string& path, std::string* error = nullptr) const;

 private:
  void raw(const void* data, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    payload_.insert(payload_.end(), p, p + len);
  }

  SnapshotType type_;
  std::vector<std::uint8_t> payload_;
  std::vector<std::size_t> open_sections_;  // offsets of length fields
};

/// Parses one framed snapshot image with bounds-checked reads. Construction
/// verifies the frame; every later failure sets the error state and makes
/// all subsequent reads return zero, so loaders check ok() once at the end.
class SnapshotReader {
 public:
  /// Verifies magic, version, endianness, object type, payload length, and
  /// checksum, in that order (the error names the first mismatch).
  explicit SnapshotReader(std::vector<std::uint8_t> image);

  /// Slurps `path` and parses it. A missing/unreadable file is an error
  /// state, not an abort.
  static SnapshotReader from_file(const std::string& path);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  SnapshotType type() const { return type_; }

  /// Records the first failure (later calls keep the original message).
  /// Always returns false so loaders can `return reader.fail(...)`-style.
  bool fail(const std::string& message);

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64() { return std::bit_cast<double>(u64()); }
  bool bytes(void* out, std::size_t len);

  /// Length-prefixed arrays; `max_count` guards against hostile counts
  /// (the implied byte length is also bounds-checked against the payload).
  bool u32_array(std::vector<std::uint32_t>& out, std::uint64_t max_count);
  bool u64_array(std::vector<std::uint64_t>& out, std::uint64_t max_count);
  bool f64_array(std::vector<double>& out, std::uint64_t max_count);

  /// Enters a section: checks the tag and that the recorded length fits the
  /// enclosing scope. end_section() checks the section was consumed exactly.
  bool begin_section(std::uint32_t expected_tag);
  bool end_section();

  /// True once the whole payload has been consumed (load functions call this
  /// last; trailing garbage is a format error).
  bool at_end() const { return !ok() || cursor_ == limit_; }

  /// Bytes left in the current scope (innermost open section, else the
  /// payload). Loaders use it to reject file-supplied counts BEFORE
  /// allocating: a forged count must fail the reader, not trigger a huge
  /// resize or an overflowing multiplication.
  std::size_t remaining() const {
    if (!ok()) return 0;
    const std::size_t scope =
        section_limits_.empty() ? limit_ : section_limits_.back();
    return scope - cursor_;
  }

 private:
  bool need(std::size_t len);

  std::vector<std::uint8_t> image_;
  SnapshotType type_{};
  std::size_t cursor_ = 0;
  std::size_t limit_ = 0;  // payload end (checksum excluded)
  std::vector<std::size_t> section_limits_;
  std::string error_;
};

/// Admission keys are either raw 64-bit hashes or exponential clocks
/// (doubles); both serialize as one u64 word (doubles via their IEEE-754 bit
/// pattern), so the wire format is key-type agnostic (docs/FORMATS.md §1).
inline void snapshot_write_key(SnapshotWriter& writer, std::uint64_t key) {
  writer.u64(key);
}
inline void snapshot_write_key(SnapshotWriter& writer, double key) {
  writer.f64(key);
}
inline void snapshot_read_key(SnapshotReader& reader, std::uint64_t& key) {
  key = reader.u64();
}
inline void snapshot_read_key(SnapshotReader& reader, double& key) {
  key = reader.f64();
}

/// Saves any object exposing `kSnapshotType` and `save(SnapshotWriter&)`.
template <typename T>
bool save_snapshot(const T& object, const std::string& path,
                   std::string* error = nullptr) {
  SnapshotWriter writer(T::kSnapshotType);
  object.save(writer);
  return writer.write_file(path, error);
}

/// Loads any object exposing `kSnapshotType` and a static
/// `load_snapshot(SnapshotReader&) -> std::optional<T>`. Returns nullopt
/// (with *error set when non-null) on any frame, type, or invariant failure.
template <typename T>
std::optional<T> load_snapshot(const std::string& path,
                               std::string* error = nullptr) {
  SnapshotReader reader = SnapshotReader::from_file(path);
  if (reader.ok() && reader.type() != T::kSnapshotType) {
    reader.fail("snapshot holds a different object type");
  }
  std::optional<T> loaded;
  if (reader.ok()) loaded = T::load_snapshot(reader);
  if (loaded && !reader.at_end()) {
    reader.fail("trailing bytes after the object payload");
    loaded.reset();
  }
  if (!reader.ok()) {
    if (error != nullptr) *error = reader.error();
    loaded.reset();
  }
  return loaded;
}

}  // namespace covstream
