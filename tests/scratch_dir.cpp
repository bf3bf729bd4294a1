#include "scratch_dir.hpp"

#include <gtest/gtest.h>
#include <stdlib.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>

namespace covstream {
namespace {

// Never freed: the exit handler reads it after static destructors may have
// run.
const std::string* made_dir = nullptr;
pid_t maker = 0;

void remove_scratch_dir() {
  // A forked child (a death test) can exit through here too; only the
  // process that made the directory removes it.
  if (getpid() != maker) return;
  std::error_code ignored;
  std::filesystem::remove_all(*made_dir, ignored);
}

}  // namespace

const std::string& scratch_dir() {
  static const std::string& dir = []() -> const std::string& {
    std::string pattern = testing::TempDir() + "covstream_tests_XXXXXX";
    if (mkdtemp(pattern.data()) == nullptr) {
      std::perror(("mkdtemp " + pattern).c_str());
      std::abort();
    }
    made_dir = new std::string(pattern);
    maker = getpid();
    std::atexit(remove_scratch_dir);
    return *made_dir;
  }();
  return dir;
}

std::string scratch_path(const std::string& name) {
  return scratch_dir() + "/" + name;
}

}  // namespace covstream
