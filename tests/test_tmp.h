// test_tmp.h - Per-process scratch paths for tests that touch the file
// system.
//
// Several test sources are compiled into more than one binary (the full
// suite and the standalone *_smoke binaries), and ctest runs those
// binaries concurrently.  Fixed names under TempDir() therefore race
// across processes: one binary truncates the ledger or unlinks the socket
// another is still using.  temp_path() gives every process its own
// directory, removed again when the process exits.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace sddd::test {

/// `name` inside a directory private to this process.
inline std::filesystem::path temp_path(const std::string& name) {
  struct ScratchDir {
    std::filesystem::path path;
    ScratchDir()
        : path(std::filesystem::path(::testing::TempDir()) /
               ("sddd_test." + std::to_string(::getpid()))) {
      std::filesystem::create_directories(path);
    }
    ~ScratchDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const ScratchDir dir;
  return dir.path / name;
}

}  // namespace sddd::test
