// The strict integer parser every SUBSONIC_* integer variable reads
// through: the whole text must be a number inside the variable's range,
// and the error names the variable.
#include "src/util/env_int.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "src/decomp/block_decomposition.hpp"
#include "src/runtime/liveness.hpp"
#include "src/util/worker_pool.hpp"

namespace subsonic {
namespace {

/// The message parse_int throws for `text`, or "" when it parses.
std::string error_of(const std::string& text, int lo, int hi) {
  try {
    parse_int("SUBSONIC_X", text, lo, hi);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(EnvInt, ParsesTheWholeTextInsideTheRange) {
  EXPECT_EQ(parse_int("SUBSONIC_X", "42", 1, 100), 42);
  EXPECT_EQ(parse_int("SUBSONIC_X", "-7", -10, 10), -7);
  EXPECT_EQ(parse_int("SUBSONIC_X", "1", 1, 1), 1);
  EXPECT_EQ(parse_int("SUBSONIC_X", "2147483647", 0, 2147483647),
            2147483647);
}

TEST(EnvInt, RejectsMalformedText) {
  for (const char* text : {"2x", "", " 5", "5 ", "x", "+", "-", "0x10",
                           "1e3", "3.0"})
    EXPECT_NE(error_of(text, -100, 100), "") << '"' << text << '"';
}

TEST(EnvInt, RejectsOverflowAndOutOfRange) {
  EXPECT_NE(error_of("99999999999999999999", -100, 100), "");
  EXPECT_NE(error_of("-99999999999999999999", -100, 100), "");
  EXPECT_NE(error_of("2147483648", 0, 2147483647), "");
  EXPECT_NE(error_of("101", -100, 100), "");
  EXPECT_NE(error_of("-101", -100, 100), "");
}

TEST(EnvInt, TheMessageNamesTheVariableAndTheText) {
  const std::string what = error_of("2x", 1, 9);
  EXPECT_NE(what.find("SUBSONIC_X"), std::string::npos) << what;
  EXPECT_NE(what.find("\"2x\""), std::string::npos) << what;
  EXPECT_NE(what.find("[1, 9]"), std::string::npos) << what;
}

TEST(EnvInt, ThreadsAreBoundedByKMaxThreads) {
  // Parser only: no pool is built from these values.
  EXPECT_EQ(parse_int("SUBSONIC_THREADS", "256", 1, kMaxThreads), 256);
  EXPECT_THROW(parse_int("SUBSONIC_THREADS", "257", 1, kMaxThreads),
               std::invalid_argument);
  EXPECT_THROW(parse_int("SUBSONIC_THREADS", "0", 1, kMaxThreads),
               std::invalid_argument);
}

TEST(EnvInt, UnsetOrEmptyFallsBack) {
  ::unsetenv("SUBSONIC_X");
  EXPECT_EQ(env_int("SUBSONIC_X", 16, 1, 100), 16);
  ::setenv("SUBSONIC_X", "", 1);
  EXPECT_EQ(env_int("SUBSONIC_X", 16, 1, 100), 16);
  ::setenv("SUBSONIC_X", "32", 1);
  EXPECT_EQ(env_int("SUBSONIC_X", 16, 1, 100), 32);
  ::setenv("SUBSONIC_X", "2x", 1);
  EXPECT_THROW(env_int("SUBSONIC_X", 16, 1, 100), std::invalid_argument);
  ::unsetenv("SUBSONIC_X");
}

/// Expects `resolve` to throw std::invalid_argument naming `var` when the
/// variable holds "2x".
template <typename Fn>
void expect_rejects_trailing_garbage(const char* var, Fn resolve) {
  ::setenv(var, "2x", 1);
  try {
    resolve();
    ADD_FAILURE() << var << "=2x was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(var), std::string::npos)
        << e.what();
  }
  ::unsetenv(var);
}

TEST(EnvInt, ResolversRejectTrailingGarbage) {
  expect_rejects_trailing_garbage("SUBSONIC_THREADS",
                                  [] { return resolve_threads(0); });
  expect_rejects_trailing_garbage("SUBSONIC_HEARTBEAT_MS", [] {
    return liveness::resolve_floor_ms(LivenessOptions{});
  });
  expect_rejects_trailing_garbage("SUBSONIC_BLOCKS",
                                  [] { return block_side_from_env(32); });
}

}  // namespace
}  // namespace subsonic
