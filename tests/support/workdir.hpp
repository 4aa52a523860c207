// A fresh working directory for a test that writes files.
//
// The name carries the test process's pid, and pids repeat: a directory an
// earlier test process left under the same name must not leak into this
// one.  run_supervised in particular restores the matching block dumps it
// finds as a continuation, so a reused directory would resume an old run.
#pragma once

#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

namespace subsonic::test {

/// TempDir()/<name>_<pid>, emptied: removed with everything in it, then
/// created again.
inline std::string fresh_workdir(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name +
                          "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace subsonic::test
