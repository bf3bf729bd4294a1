// Input generation for file_kcover and its exact-coverage oracle.
//
// The generator draws make_zipf's instance (see ZipfSets) one set at a
// time and puts it in random arrival order with a two-pass bucket shuffle:
// each edge goes to a random one of kBuckets temp files, then each bucket
// is shuffled in memory and appended to the output. That is a uniformly
// random order at 1/kBuckets of the memory; the library's --cmd=generate
// builds the whole instance in memory, which cost 8x the k-cover run it fed.
// The oracle parses the file itself rather than through BinaryFileStream,
// so a bug in the stream layer cannot hide in the check.
#include <cstring>
#include <memory>

#include "tool.hpp"

namespace perfbench {
namespace {

constexpr char kMagic[8] = {'c', 'o', 'v', 's', 'b', 'i', 'n', '1'};
constexpr std::size_t kRecordBytes = 12;  // u32 set, u64 elem, little endian
constexpr std::size_t kBuckets = 16;
constexpr std::size_t kBlockRecords = 1 << 15;

struct Record {
  unsigned char bytes[kRecordBytes];
};

struct FileCloser {
  void operator()(std::FILE* file) const { std::fclose(file); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

File open_or_die(const std::string& path, const char* mode) {
  File file(std::fopen(path.c_str(), mode));
  if (!file) die("cannot open " + path);
  return file;
}

void write_or_die(const void* data, std::size_t size, std::size_t count,
                  std::FILE* file) {
  if (std::fwrite(data, size, count, file) != count) die("short write");
}

}  // namespace

KCoverWorkload kcover_workload(const std::string& scale) {
  KCoverWorkload w;
  if (scale == "full") {
    // About 6M distinct pairs: make_zipf with --n=5000 --m=2000000
    // --min_size=1000 --max_size=10000 and the default alphas. Small enough
    // for 20+ jobs at each thread count in one run, so the job-time tail
    // rests on enough samples, and still about 3x the sketch's edge budget.
    w.shape = {5000, 2'000'000, 1000, 10'000, 0.8, 1.1};
    w.k = 50;
  } else if (scale == "tiny") {
    w.shape = {500, 200'000, 100, 1000, 0.8, 1.1};
    w.k = 10;
  } else {
    die("--scale must be full or tiny");
  }
  return w;
}

int cmd_gen(Flags& flags) {
  const std::string out = flags.str("out");
  const KCoverWorkload w = kcover_workload(flags.str("scale"));
  const std::uint64_t seed = flags.u64("seed");
  flags.finish();

  const std::int64_t start = now_ns();
  // Pass 1: draw the instance set by set; deal every edge to a bucket.
  std::vector<File> buckets;
  std::vector<std::vector<Record>> blocks(kBuckets);
  for (std::size_t b = 0; b < kBuckets; ++b) {
    buckets.push_back(open_or_die(out + ".bucket" + std::to_string(b), "w+b"));
    blocks[b].reserve(kBlockRecords);
  }
  ZipfSets sets(w.shape, mix64(seed ^ 0xf11ef11eULL));
  SeededRng deal(mix64(seed ^ 0xdea1dea1ULL));
  std::vector<bool> seen(static_cast<std::size_t>(w.shape.num_elems), false);
  std::uint64_t edges = 0;
  std::uint64_t distinct_elems = 0;
  SetId set = 0;
  std::vector<ElemId> elems;
  while (sets.next_set(&set, &elems)) {
    for (const ElemId elem : elems) {
      if (!seen[elem]) {
        seen[elem] = true;
        ++distinct_elems;
      }
      std::vector<Record>& block = blocks[deal.below(kBuckets)];
      block.emplace_back();
      std::memcpy(block.back().bytes, &set, 4);
      std::memcpy(block.back().bytes + 4, &elem, 8);
      if (block.size() == kBlockRecords) {
        write_or_die(block.data(), kRecordBytes, block.size(),
                     buckets[&block - blocks.data()].get());
        block.clear();
      }
    }
    edges += elems.size();
  }
  // Pass 2: shuffle each bucket in memory and append it to the output.
  File file = open_or_die(out, "wb");
  write_or_die(kMagic, 1, 8, file.get());
  write_or_die(&edges, sizeof edges, 1, file.get());
  std::vector<Record> records;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    std::FILE* bucket = buckets[b].get();
    write_or_die(blocks[b].data(), kRecordBytes, blocks[b].size(), bucket);
    records.resize(static_cast<std::size_t>(std::ftell(bucket)) / kRecordBytes);
    std::rewind(bucket);
    if (std::fread(records.data(), kRecordBytes, records.size(), bucket) !=
        records.size()) {
      die("short read of a bucket");
    }
    buckets[b].reset();
    std::remove((out + ".bucket" + std::to_string(b)).c_str());
    shuffle(records, deal);
    write_or_die(records.data(), kRecordBytes, records.size(), file.get());
  }
  if (std::fflush(file.get()) != 0) die("short write to " + out);
  file.reset();
  std::printf(
      "%s\n",
      JsonOut()
          .num("edges", static_cast<double>(edges))
          .num("n", w.shape.num_sets)
          .num("k", w.k)
          .num("eps", w.eps)
          .num("pooled_threads", static_cast<double>(w.pooled_threads))
          .num("draws", static_cast<double>(sets.draws()))
          .num("distinct_elems", static_cast<double>(distinct_elems))
          .num("seconds", static_cast<double>(now_ns() - start) * 1e-9)
          .done()
          .c_str());
  return 0;
}

/// Exact coverage of each family in --sets (families separated by '/',
/// set ids by ','), all in one pass over the file.
int cmd_exact(Flags& flags) {
  const std::string input = flags.str("input");
  const std::string sets = flags.str("sets");
  const std::uint64_t n = kcover_workload(flags.str("scale")).shape.num_sets;
  flags.finish();

  std::vector<std::vector<std::uint32_t>> families_of(n);  // set -> families
  std::uint32_t families = 1;
  for (std::size_t pos = 0; pos < sets.size();) {
    const std::size_t end = std::min(sets.find_first_of(",/", pos), sets.size());
    const std::uint64_t id = std::stoull(sets.substr(pos, end - pos));
    if (id >= n) die("set id out of range in --sets");
    families_of[id].push_back(families - 1);
    if (end < sets.size() && sets[end] == '/') ++families;
    pos = end + 1;
  }
  File file = open_or_die(input, "rb");
  char magic[8];
  std::uint64_t count = 0;
  if (std::fread(magic, 1, 8, file.get()) != 8 ||
      std::memcmp(magic, kMagic, 8) != 0 ||
      std::fread(&count, sizeof count, 1, file.get()) != 1) {
    die("not a covstream binary edge file: " + input);
  }
  std::vector<std::vector<ElemId>> covered(families);
  std::vector<unsigned char> block((1 << 16) * kRecordBytes);
  std::uint64_t seen = 0;
  for (;;) {
    const std::size_t got = std::fread(block.data(), kRecordBytes,
                                       block.size() / kRecordBytes, file.get());
    if (got == 0) break;
    for (std::size_t i = 0; i < got; ++i) {
      std::uint32_t set = 0;
      ElemId elem = 0;
      std::memcpy(&set, block.data() + i * kRecordBytes, 4);
      std::memcpy(&elem, block.data() + i * kRecordBytes + 4, 8);
      if (set >= n) die("set id out of range in " + input);
      for (const std::uint32_t f : families_of[set]) covered[f].push_back(elem);
    }
    seen += got;
  }
  if (seen != count) die("edge count mismatch in " + input);
  std::string coverage = "[";
  for (std::vector<ElemId>& elems : covered) {
    std::sort(elems.begin(), elems.end());
    const auto distinct = std::unique(elems.begin(), elems.end()) - elems.begin();
    coverage += (coverage.size() > 1 ? ", " : "") + std::to_string(distinct);
  }
  std::printf("%s\n", JsonOut()
                          .raw("coverage", coverage + "]")
                          .num("edges", static_cast<double>(seen))
                          .done()
                          .c_str());
  return 0;
}

}  // namespace perfbench
