// Golden test for covstream_cli's --cmd=help output.
//
// The help text used to live as an untested printf in the tool and drifted
// from the flags the commands actually read (--threads/--batch were
// undocumented for a PR). It now lives in tools/covstream_help.hpp, printed
// verbatim by the binary; this test pins it two ways:
//  1. a structural pass — every flag any command reads must be mentioned,
//     and every command must appear with a usage line;
//  2. a golden hash of the full text — any edit to the help must touch this
//     test too, which is the moment to check the flags tables still match
//     the code (see tools/covstream_cli.cpp's arg reads).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "covstream_help.hpp"

namespace covstream {
namespace {

const std::string kHelp = cli_help_text();

TEST(CliHelp, EveryCommandIsDocumented) {
  for (const char* cmd : {"generate", "stats", "convert", "kcover", "outliers",
                          "setcover", "ingest", "query", "solve", "serve",
                          "worker", "coordinator"}) {
    EXPECT_NE(kHelp.find(std::string("  ") + cmd), std::string::npos)
        << "command missing from help: " << cmd;
  }
}

TEST(CliHelp, EveryFlagTheCommandsReadIsDocumented) {
  // Kept in sync with the args.get_* calls in tools/covstream_cli.cpp; a
  // flag read there but absent here is the drift this test exists to catch.
  for (const char* flag :
       {"--cmd", "--family", "--n", "--m", "--seed", "--out", "--order",
        "--set_size", "--min_size", "--max_size", "--alpha_sets",
        "--alpha_elems", "--k", "--kstar", "--block", "--decoy", "--groups",
        "--cross", "--input", "--eps", "--lambda", "--rounds",
        "--threads", "--batch", "--checkpoint", "--checkpoint-every",
        "--resume", "--snapshot", "--sets", "--strategy", "--isa", "--port",
        "--tenants-budget", "--spill-dir", "--persist", "--idle-timeout-ms",
        "--deadline-ms", "--max-connections", "--batch-window-us", "--shard",
        "--shards", "--snapshots", "--shard-dir", "--expect", "--wait-ms",
        "--fan-in"}) {
    EXPECT_NE(kHelp.find(flag), std::string::npos)
        << "flag missing from help: " << flag;
  }
}

TEST(CliHelp, ServeReplCommandsAreDocumented) {
  // The stdin transport: wire requests against its fixed tenant, plus its
  // own wait/quit.
  for (const char* line : {"estimate input", "solve input", "stats input",
                           "save input", "wait [<ms>]", "quit"}) {
    EXPECT_NE(kHelp.find(line), std::string::npos)
        << "stdin transport command missing from help: " << line;
  }
  // The fleet protocol commands.
  for (const char* fleet : {"create", "evict", "drop", "flush"}) {
    EXPECT_NE(kHelp.find(fleet), std::string::npos)
        << "fleet protocol command missing from help: " << fleet;
  }
}

TEST(CliHelp, GoldenTextUnchanged) {
  // FNV-1a over the exact help text. If this fails you edited the help —
  // re-verify the flag tables against tools/covstream_cli.cpp (and the stdin
  // transport's commands against cmd_serve_stdin), then update the constant
  // below.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : kHelp) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  EXPECT_EQ(hash, 0xa0b34bd3d1137675ULL)
      << "help text changed; review tools/covstream_help.hpp against the "
         "flags the commands read, then update this golden hash";
}

}  // namespace
}  // namespace covstream
