// One scratch directory per test process, for the tests that write files.
#pragma once

#include <string>

namespace covstream {

/// This process's own directory under testing::TempDir(), made by mkdtemp
/// on first use and removed with everything in it when the process exits.
/// Test binaries run side by side (a sanitizer build beside another, or two
/// checkouts) never share a path under it.
const std::string& scratch_dir();

/// scratch_dir() + "/" + name.
std::string scratch_path(const std::string& name);

}  // namespace covstream
