// Fault-injected snapshot writes (DESIGN.md §5.13).
//
// SnapshotWriter::write_file claims temp-and-rename atomicity; these tests
// make the claim falsifiable by injecting every failure the path can hit
// (ENOSPC, short write, failed fsync, failed rename, failed directory fsync)
// and pinning the contract:
//  * a failed write returns false with an error naming the cause;
//  * no `.tmp.*` file survives any failure (the spill dir is left exactly as
//    it was — the fleet boot sweep only ever has to clean up after crashes,
//    not after errors);
//  * a pre-existing snapshot at the destination is untouched, byte for byte;
//  * a directory-fsync failure is reported as a failure even though the
//    renamed file itself is valid — callers that need durability must see it.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sketch/substrate/snapshot.hpp"
#include "util/fault_injection.hpp"
#include "scratch_dir.hpp"

namespace covstream {
namespace {

namespace fs = std::filesystem;

class SnapshotFaultTest : public testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::instance().clear();
    dir_ = fs::path(scratch_dir()) /
           ("covstream_snapfault_" +
            std::string(testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::instance().clear();
    fs::remove_all(dir_);
  }

  // A writer whose payload spans several 4096-byte write chunks, so the
  // chunked-write failpoints have more than one boundary to land on.
  static SnapshotWriter multi_chunk_writer(std::uint8_t fill) {
    SnapshotWriter writer(SnapshotType::kSubsampleSketch);
    writer.begin_section(snapshot_tag('T', 'E', 'S', 'T'));
    const std::vector<std::uint8_t> blob(20000, fill);
    writer.bytes(blob.data(), blob.size());
    writer.end_section();
    return writer;
  }

  std::vector<fs::path> entries() const {
    std::vector<fs::path> found;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      found.push_back(entry.path());
    }
    return found;
  }

  static std::vector<char> slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
  }

  fs::path dir_;
};

TEST_F(SnapshotFaultTest, EnospcFailsWithoutLeavingTemp) {
  ASSERT_TRUE(FaultInjector::instance().configure("snapshot.write=enospc"));
  const SnapshotWriter writer = multi_chunk_writer(0x5A);
  std::string error;
  EXPECT_FALSE(writer.write_file((dir_ / "out.snap").string(), &error));
  EXPECT_NE(error.find("No space left on device"), std::string::npos) << error;
  EXPECT_TRUE(entries().empty()) << "failed write left files behind";
}

TEST_F(SnapshotFaultTest, ShortWriteMidFileFailsWithoutLeavingTemp) {
  // Fail the third chunk with a partial write: bytes really land in the temp
  // before the error, so removal (not just close) is what keeps the dir clean.
  ASSERT_TRUE(FaultInjector::instance().configure("snapshot.write=short@3"));
  const SnapshotWriter writer = multi_chunk_writer(0x5A);
  std::string error;
  EXPECT_FALSE(writer.write_file((dir_ / "out.snap").string(), &error));
  EXPECT_NE(error.find("short write"), std::string::npos) << error;
  EXPECT_TRUE(entries().empty()) << "failed write left files behind";
}

TEST_F(SnapshotFaultTest, FsyncFailureFailsWithoutLeavingTemp) {
  ASSERT_TRUE(FaultInjector::instance().configure("snapshot.fsync=fail"));
  const SnapshotWriter writer = multi_chunk_writer(0x5A);
  std::string error;
  EXPECT_FALSE(writer.write_file((dir_ / "out.snap").string(), &error));
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(entries().empty()) << "failed write left files behind";
}

TEST_F(SnapshotFaultTest, RenameFailureFailsWithoutLeavingTemp) {
  ASSERT_TRUE(FaultInjector::instance().configure("snapshot.rename=fail"));
  const SnapshotWriter writer = multi_chunk_writer(0x5A);
  std::string error;
  EXPECT_FALSE(writer.write_file((dir_ / "out.snap").string(), &error));
  EXPECT_NE(error.find("rename"), std::string::npos) << error;
  EXPECT_TRUE(entries().empty()) << "failed rename left files behind";
}

TEST_F(SnapshotFaultTest, FailedRewriteLeavesExistingSnapshotUntouched) {
  const std::string path = (dir_ / "out.snap").string();
  ASSERT_TRUE(multi_chunk_writer(0x11).write_file(path));
  const std::vector<char> before = slurp(path);
  ASSERT_FALSE(before.empty());

  for (const char* spec : {"snapshot.open=fail", "snapshot.write=enospc",
                           "snapshot.write=short@2", "snapshot.fsync=fail",
                           "snapshot.rename=fail"}) {
    ASSERT_TRUE(FaultInjector::instance().configure(spec));
    EXPECT_FALSE(multi_chunk_writer(0x22).write_file(path)) << spec;
    EXPECT_EQ(slurp(path), before) << spec << " touched the old snapshot";
    EXPECT_EQ(entries().size(), 1u) << spec << " left extra files";
  }
  FaultInjector::instance().clear();
  // And the survivor still parses.
  EXPECT_TRUE(SnapshotReader::from_file(path).ok());
}

#if defined(__unix__)
TEST_F(SnapshotFaultTest, DirectoryFsyncFailureIsReportedNotSwallowed) {
  // The rename has already landed when the directory fsync fails, so the
  // file at `path` is complete and readable — but the caller is told the
  // rename may not survive a power loss, because durable callers (fleet
  // flush) must retry rather than assume the snapshot is safe.
  ASSERT_TRUE(FaultInjector::instance().configure("snapshot.dirsync=fail"));
  const std::string path = (dir_ / "out.snap").string();
  std::string error;
  EXPECT_FALSE(multi_chunk_writer(0x33).write_file(path, &error));
  EXPECT_NE(error.find("directory fsync"), std::string::npos) << error;
  ASSERT_TRUE(fs::exists(path));
  EXPECT_TRUE(SnapshotReader::from_file(path).ok());
  EXPECT_EQ(entries().size(), 1u) << "dirsync failure left temp files";
}
#endif

}  // namespace
}  // namespace covstream
