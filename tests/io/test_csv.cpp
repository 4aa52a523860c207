#include "src/io/csv.hpp"

#include "src/util/stopwatch.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

namespace subsonic {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Csv, HeaderAndRows) {
  const std::string path = std::string(::testing::TempDir()) + "/t.csv";
  {
    CsvWriter csv(path);
    csv.header({"P", "efficiency"});
    csv.row({4.0, 0.96});
    csv.row({20.0, 0.8});
  }
  EXPECT_EQ(read_file(path), "P,efficiency\n4,0.96\n20,0.8\n");
}

TEST(Csv, EmptyRowAndSingleColumn) {
  const std::string path = std::string(::testing::TempDir()) + "/t2.csv";
  {
    CsvWriter csv(path);
    csv.header({"only"});
    csv.row({1.5});
  }
  EXPECT_EQ(read_file(path), "only\n1.5\n");
}

TEST(Csv, RejectsUnwritablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/out.csv"), contract_error);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 2000000; ++i) sink = sink + i * 0.5;
  const double t1 = sw.seconds();
  EXPECT_GT(t1, 0.0);
  for (int i = 0; i < 2000000; ++i) sink = sink + i * 0.5;
  EXPECT_GT(sw.seconds(), t1);
  sw.reset();
  EXPECT_LT(sw.seconds(), t1 + 1.0);
}

}  // namespace
}  // namespace subsonic
