#include "src/util/provenance.hpp"

#include <gtest/gtest.h>

namespace subsonic {
namespace {

TEST(Provenance, CollectFillsEveryField) {
  const Provenance p = collect_provenance();
  EXPECT_FALSE(p.cpu_model.empty());
  EXPECT_GE(p.hardware_threads, 1);
  EXPECT_FALSE(p.compiler.empty());
  EXPECT_FALSE(p.build_type.empty());
  // The solver's line is the build's flags plus its own options.
  EXPECT_EQ(p.solver_flags.rfind(p.flags, 0), 0u) << p.solver_flags;
}

TEST(Provenance, JsonIsAnObjectWithTheExpectedKeys) {
  Provenance p;
  p.cpu_model = "Test CPU";
  p.hardware_threads = 4;
  p.compiler = "gcc 13";
  p.flags = "-O2 -g";
  p.solver_flags = "-O2 -g -O3";
  p.build_type = "Release";
  const std::string j = provenance_json(p);
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  EXPECT_NE(j.find("\"cpu_model\": \"Test CPU\""), std::string::npos);
  EXPECT_NE(j.find("\"hardware_threads\": 4"), std::string::npos);
  EXPECT_NE(j.find("\"compiler\": \"gcc 13\""), std::string::npos);
  EXPECT_NE(j.find("\"flags\": \"-O2 -g\""), std::string::npos);
  EXPECT_NE(j.find("\"solver_flags\": \"-O2 -g -O3\""), std::string::npos);
  EXPECT_NE(j.find("\"build_type\": \"Release\""), std::string::npos);
}

TEST(Provenance, JsonEscapesQuotesAndBackslashes) {
  Provenance p;
  p.cpu_model = "weird \"quoted\" \\ model";
  const std::string j = provenance_json(p);
  EXPECT_NE(j.find("weird \\\"quoted\\\" \\\\ model"), std::string::npos);
}

}  // namespace
}  // namespace subsonic
