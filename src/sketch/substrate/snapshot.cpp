#include "sketch/substrate/snapshot.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "util/fault_injection.hpp"

namespace covstream {
namespace {

constexpr std::size_t kHeaderBytes = 32;
constexpr std::size_t kChecksumBytes = 8;
constexpr std::size_t kSectionHeaderBytes = 12;  // u32 tag + u64 length

std::uint64_t read_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

std::uint64_t snapshot_checksum(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;  // FNV prime
  }
  return hash;
}

// ------------------------------------------------------------------ writer ----

void SnapshotWriter::begin_section(std::uint32_t tag) {
  u32(tag);
  open_sections_.push_back(payload_.size());
  u64(0);  // length, patched by end_section()
}

void SnapshotWriter::end_section() {
  COVSTREAM_CHECK(!open_sections_.empty());
  const std::size_t at = open_sections_.back();
  open_sections_.pop_back();
  const std::uint64_t length = payload_.size() - (at + sizeof(std::uint64_t));
  std::memcpy(payload_.data() + at, &length, sizeof length);
}

std::vector<std::uint8_t> SnapshotWriter::finish() const {
  COVSTREAM_CHECK(open_sections_.empty());
  std::vector<std::uint8_t> image(kHeaderBytes + payload_.size() +
                                  kChecksumBytes);
  const auto put_u32 = [&image](std::size_t at, std::uint32_t v) {
    std::memcpy(image.data() + at, &v, sizeof v);
  };
  const auto put_u64 = [&image](std::size_t at, std::uint64_t v) {
    std::memcpy(image.data() + at, &v, sizeof v);
  };
  std::memcpy(image.data(), kSnapshotMagic, sizeof kSnapshotMagic);
  put_u32(8, kSnapshotVersion);
  put_u32(12, kSnapshotEndianMarker);
  put_u32(16, static_cast<std::uint32_t>(type_));
  put_u32(20, 0);  // reserved
  put_u64(24, payload_.size());
  if (!payload_.empty()) {
    std::memcpy(image.data() + kHeaderBytes, payload_.data(), payload_.size());
  }
  put_u64(kHeaderBytes + payload_.size(),
          snapshot_checksum(std::span<const std::uint8_t>(
              image.data(), kHeaderBytes + payload_.size())));
  return image;
}

bool SnapshotWriter::write_file(const std::string& path,
                                std::string* error) const {
  const std::vector<std::uint8_t> image = finish();
  // Unique temp name per write: concurrent writers to one destination (the
  // serve transport's `save` racing a periodic checkpoint) must not truncate
  // each other's half-written temp and publish a torn image — whichever
  // rename lands last must still be a complete snapshot.
  static std::atomic<unsigned> temp_counter{0};
  const std::string temp =
      path + ".tmp." + std::to_string(temp_counter.fetch_add(1)) + "." +
      std::to_string(static_cast<unsigned long>(
#if defined(__unix__) || defined(__APPLE__)
          ::getpid()
#else
          0
#endif
          ));
  FaultInjector& faults = FaultInjector::instance();
  const auto set_error = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };

  if (faults.evaluate("snapshot.open").action != FaultAction::kNone) {
    return set_error("cannot open " + temp + " for writing");
  }
  std::FILE* file = std::fopen(temp.c_str(), "wb");
  if (file == nullptr) {
    return set_error("cannot open " + temp + " for writing");
  }
  // Unbuffered, chunked writes: every chunk is one write(2), so an
  // `abort`-at-Nth-write failpoint leaves exactly the first N-1 chunks on
  // disk — a genuinely torn temp file, which the reboot sweep must handle.
  std::setvbuf(file, nullptr, _IONBF, 0);
  constexpr std::size_t kChunkBytes = 4096;
  bool wrote = true;
  int write_errno = 0;
  for (std::size_t at = 0; at < image.size(); at += kChunkBytes) {
    const std::size_t len = std::min(kChunkBytes, image.size() - at);
    const FaultHit hit = faults.evaluate("snapshot.write");
    if (hit.action != FaultAction::kNone) {
      // A short write lands part of the chunk before failing, like a disk
      // that filled mid-write; `fail`/`enospc` land nothing.
      if (hit.action == FaultAction::kShort && len > 1) {
        (void)std::fwrite(image.data() + at, 1, len / 2, file);
      }
      wrote = false;
      write_errno = hit.fault_errno;
      break;
    }
    if (std::fwrite(image.data() + at, 1, len, file) != len) {
      wrote = false;
      write_errno = errno;
      break;
    }
  }
#if defined(__unix__) || defined(__APPLE__)
  // The data must be durable BEFORE the rename publishes it, or a power
  // loss can commit the rename metadata ahead of the data blocks and leave
  // a torn file at `path` — the exact crash checkpoints exist to survive.
  if (wrote) {
    if (faults.evaluate("snapshot.fsync").action != FaultAction::kNone) {
      wrote = false;
      write_errno = EIO;
    } else {
      wrote = std::fflush(file) == 0 && ::fsync(::fileno(file)) == 0;
      if (!wrote) write_errno = errno;
    }
  }
#endif
  const bool closed = std::fclose(file) == 0;
  if (!wrote || !closed) {
    // Never leak the temp: a failed write must leave the spill dir exactly
    // as it was (tests pin this; the boot scan sweeps crash leftovers).
    std::remove(temp.c_str());
    std::string detail =
        write_errno != 0 ? std::string(std::strerror(write_errno)) : "";
    return set_error("short write to " + temp +
                     (detail.empty() ? "" : " (" + detail + ")"));
  }
  if (faults.evaluate("snapshot.rename").action != FaultAction::kNone ||
      std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    return set_error("cannot rename " + temp + " to " + path);
  }
#if defined(__unix__)
  // Persist the rename itself (directory entry). A failure here leaves a
  // valid file at `path` that may revert to the previous snapshot after a
  // power loss, so it is reported as a failure — callers that must be
  // durable (fleet flush) retry; callers that can tolerate a rollback see
  // exactly what happened in the error string.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  bool dir_synced = false;
  if (faults.evaluate("snapshot.dirsync").action == FaultAction::kNone) {
    const int dir_fd = ::open(dir.c_str(), O_RDONLY);
    if (dir_fd >= 0) {
      dir_synced = ::fsync(dir_fd) == 0;
      ::close(dir_fd);
    }
  }
  if (!dir_synced) {
    return set_error("directory fsync failed for " + dir + " (" + path +
                     " was renamed into place but the rename may not survive "
                     "a power loss)");
  }
#endif
  return true;
}

// ------------------------------------------------------------------ reader ----

SnapshotReader::SnapshotReader(std::vector<std::uint8_t> image)
    : image_(std::move(image)) {
  if (image_.size() < kHeaderBytes + kChecksumBytes) {
    fail("snapshot truncated: shorter than header + checksum");
    return;
  }
  if (std::memcmp(image_.data(), kSnapshotMagic, sizeof kSnapshotMagic) != 0) {
    fail("bad magic: not a covstream snapshot");
    return;
  }
  const std::uint32_t version = read_u32(image_.data() + 8);
  if (version != kSnapshotVersion) {
    fail("unsupported snapshot version " + std::to_string(version) +
         " (this build reads version " + std::to_string(kSnapshotVersion) + ")");
    return;
  }
  if (read_u32(image_.data() + 12) != kSnapshotEndianMarker) {
    fail("endianness mismatch: snapshot written on an incompatible host");
    return;
  }
  type_ = static_cast<SnapshotType>(read_u32(image_.data() + 16));
  const std::uint64_t payload_len = read_u64(image_.data() + 24);
  if (payload_len != image_.size() - kHeaderBytes - kChecksumBytes) {
    fail("snapshot truncated: payload length does not match file size");
    return;
  }
  const std::uint64_t stored =
      read_u64(image_.data() + image_.size() - kChecksumBytes);
  const std::uint64_t computed = snapshot_checksum(
      std::span<const std::uint8_t>(image_.data(), image_.size() - kChecksumBytes));
  if (stored != computed) {
    fail("checksum mismatch: snapshot corrupted");
    return;
  }
  cursor_ = kHeaderBytes;
  limit_ = image_.size() - kChecksumBytes;
}

SnapshotReader SnapshotReader::from_file(const std::string& path) {
  std::vector<std::uint8_t> image;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file != nullptr) {
    std::uint8_t block[1 << 16];
    for (;;) {
      const std::size_t got = std::fread(block, 1, sizeof block, file);
      if (got == 0) break;
      image.insert(image.end(), block, block + got);
    }
    std::fclose(file);
    return SnapshotReader(std::move(image));
  }
  SnapshotReader reader(std::move(image));
  reader.error_ = "cannot open snapshot " + path;
  return reader;
}

bool SnapshotReader::fail(const std::string& message) {
  if (error_.empty()) error_ = message;
  cursor_ = limit_;  // poison: no further reads
  return false;
}

bool SnapshotReader::need(std::size_t len) {
  if (!ok()) return false;
  const std::size_t scope =
      section_limits_.empty() ? limit_ : section_limits_.back();
  if (cursor_ + len > scope) {
    return fail("snapshot truncated: read past " +
                std::string(section_limits_.empty() ? "payload" : "section") +
                " end");
  }
  return true;
}

std::uint8_t SnapshotReader::u8() {
  if (!need(1)) return 0;
  return image_[cursor_++];
}

std::uint32_t SnapshotReader::u32() {
  if (!need(4)) return 0;
  const std::uint32_t v = read_u32(image_.data() + cursor_);
  cursor_ += 4;
  return v;
}

std::uint64_t SnapshotReader::u64() {
  if (!need(8)) return 0;
  const std::uint64_t v = read_u64(image_.data() + cursor_);
  cursor_ += 8;
  return v;
}

bool SnapshotReader::bytes(void* out, std::size_t len) {
  if (!need(len)) return false;
  // len == 0 short-circuits: `out` may be a null data() pointer from an
  // empty vector, and memcpy's arguments are declared nonnull even for a
  // zero count (an empty tenant sketch snapshots empty arrays).
  if (len > 0) std::memcpy(out, image_.data() + cursor_, len);
  cursor_ += len;
  return true;
}

template <typename T>
static bool read_array(SnapshotReader& reader, std::vector<T>& out,
                       std::uint64_t max_count) {
  const std::uint64_t count = reader.u64();
  if (!reader.ok()) return false;
  // Check the implied byte length against the remaining scope BEFORE
  // resizing (division, so a forged count can neither overflow the
  // multiplication nor provoke a terabyte allocation), then the caller's
  // semantic bound.
  if (count > reader.remaining() / sizeof(T)) {
    return reader.fail("array count " + std::to_string(count) +
                       " overruns the section payload");
  }
  if (count > max_count) {
    return reader.fail("array count " + std::to_string(count) +
                       " exceeds bound " + std::to_string(max_count));
  }
  out.resize(static_cast<std::size_t>(count));
  return reader.bytes(out.data(), out.size() * sizeof(T));
}

bool SnapshotReader::u32_array(std::vector<std::uint32_t>& out,
                               std::uint64_t max_count) {
  return read_array(*this, out, max_count);
}

bool SnapshotReader::u64_array(std::vector<std::uint64_t>& out,
                               std::uint64_t max_count) {
  return read_array(*this, out, max_count);
}

bool SnapshotReader::f64_array(std::vector<double>& out,
                               std::uint64_t max_count) {
  return read_array(*this, out, max_count);
}

bool SnapshotReader::begin_section(std::uint32_t expected_tag) {
  if (!need(kSectionHeaderBytes)) return false;
  const std::uint32_t tag = u32();
  const std::uint64_t length = u64();
  if (tag != expected_tag) {
    const char want[5] = {static_cast<char>(expected_tag & 0xFF),
                          static_cast<char>((expected_tag >> 8) & 0xFF),
                          static_cast<char>((expected_tag >> 16) & 0xFF),
                          static_cast<char>((expected_tag >> 24) & 0xFF), '\0'};
    return fail(std::string("section tag mismatch: expected '") + want + "'");
  }
  const std::size_t scope =
      section_limits_.empty() ? limit_ : section_limits_.back();
  if (length > scope - cursor_) {
    return fail("section length overruns its enclosing scope");
  }
  section_limits_.push_back(cursor_ + static_cast<std::size_t>(length));
  return true;
}

bool SnapshotReader::end_section() {
  if (!ok()) return false;
  COVSTREAM_CHECK(!section_limits_.empty());
  const std::size_t expected_end = section_limits_.back();
  section_limits_.pop_back();
  if (cursor_ != expected_end) {
    return fail("section not fully consumed: trailing bytes");
  }
  return true;
}

}  // namespace covstream
