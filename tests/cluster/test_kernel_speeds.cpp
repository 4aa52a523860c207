#include "src/cluster/kernel_speeds.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "src/cluster/params.hpp"
#include "src/util/check.hpp"

namespace subsonic {
namespace {

/// Writes `text` to a scratch file and removes it on destruction.
class ScratchFile {
 public:
  ScratchFile(const std::string& name, const std::string& text)
      : path_(::testing::TempDir() + name) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << text;
  }
  ~ScratchFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

constexpr const char* kBenchJson = R"({
  "provenance": {"cpu_model": "test", "hardware_threads": 1},
  "cases": [
    {"kernel": "fd_velocity", "side": 96, "threads": 1, "ms_per_call": 0.07, "mlups": 132.0},
    {"kernel": "fd_velocity", "side": 192, "threads": 1, "ms_per_call": 0.26, "mlups": 140.0},
    {"kernel": "fd_velocity", "side": 192, "threads": 4, "ms_per_call": 0.30, "mlups": 120.0},
    {"kernel": "fd_density", "side": 192, "threads": 1, "ms_per_call": 0.06, "mlups": 700.0},
    {"kernel": "lb_collide_stream", "side": 192, "threads": 1, "ms_per_call": 0.76, "mlups": 50.0},
    {"kernel": "lb_moments", "side": 192, "threads": 1, "ms_per_call": 0.20, "mlups": 180.0},
    {"kernel": "filter", "side": 192, "threads": 1, "ms_per_call": 0.33, "mlups": 400.0},
    {"kernel": "filter_bc", "side": 192, "threads": 1, "ms_per_call": 0.30, "mlups": 120.0}
  ]
})";

TEST(KernelSpeedTable, LoadsSingleThreadCasesAtTheLargestSide) {
  const ScratchFile f("bench_kernels_ok.json", kBenchJson);
  const auto table = KernelSpeedTable::from_bench_json(f.path());
  ASSERT_FALSE(table.empty());
  // The side-192 single-thread case wins over both the side-96 case and
  // the faster-sounding threads == 4 case.
  EXPECT_DOUBLE_EQ(table.mlups("fd_velocity").value(), 140.0);
  EXPECT_DOUBLE_EQ(table.mlups("fd_density").value(), 700.0);
  EXPECT_DOUBLE_EQ(table.mlups("lb_collide_stream").value(), 50.0);
  EXPECT_DOUBLE_EQ(table.mlups("lb_moments").value(), 180.0);
  EXPECT_DOUBLE_EQ(table.mlups("filter").value(), 400.0);
  EXPECT_DOUBLE_EQ(table.mlups("filter_bc").value(), 120.0);
  EXPECT_FALSE(table.mlups("no_such_kernel").has_value());
}

TEST(KernelSpeedTable, NodeRateComposesTheMethodsPasses) {
  KernelSpeedTable t;
  t.set("fd_velocity", 100.0);
  t.set("fd_density", 400.0);
  t.set("lb_collide_stream", 50.0);
  t.set("lb_moments", 150.0);
  t.set("filter_bc", 200.0);
  t.set("filter", 1000.0);  // the bare filter is not a schedule phase
  // One step = every compute phase of make_schedule<2> once; times add,
  // so rates compose harmonically.
  const double fd = 1e6 / (1.0 / 100.0 + 1.0 / 400.0 + 1.0 / 200.0);
  const double lb = 1e6 / (1.0 / 50.0 + 1.0 / 150.0 + 1.0 / 200.0);
  EXPECT_DOUBLE_EQ(t.node_rate(Method::kFiniteDifference).value(), fd);
  EXPECT_DOUBLE_EQ(t.node_rate(Method::kLatticeBoltzmann).value(), lb);
}

TEST(KernelSpeedTable, NodeRateRequiresTheCoreKernels) {
  KernelSpeedTable t;
  t.set("fd_velocity", 100.0);  // fd_density missing
  EXPECT_FALSE(t.node_rate(Method::kFiniteDifference).has_value());
  EXPECT_FALSE(t.node_rate(Method::kLatticeBoltzmann).has_value());
  // Collide-stream alone does not price an LB step: moments and the
  // filter + boundary pass run every step too.
  t.set("lb_collide_stream", 50.0);
  t.set("filter", 200.0);
  EXPECT_FALSE(t.node_rate(Method::kLatticeBoltzmann).has_value());
  t.set("lb_moments", 150.0);
  EXPECT_FALSE(t.node_rate(Method::kLatticeBoltzmann).has_value());
  t.set("filter_bc", 200.0);
  EXPECT_DOUBLE_EQ(t.node_rate(Method::kLatticeBoltzmann).value(),
                   1e6 / (1.0 / 50.0 + 1.0 / 150.0 + 1.0 / 200.0));
}

TEST(KernelSpeedTable, RejectsMissingAndUselessFiles) {
  EXPECT_THROW(KernelSpeedTable::from_bench_json("/no/such/file.json"),
               contract_error);
  const ScratchFile empty("bench_kernels_empty.json",
                          R"({"cases": []})");
  EXPECT_THROW(KernelSpeedTable::from_bench_json(empty.path()),
               contract_error);
  // threads == 1 cases are required; multithreaded-only files are useless.
  const ScratchFile mt(
      "bench_kernels_mt.json",
      R"({"cases": [{"kernel": "filter", "side": 96, "threads": 4, "mlups": 288.0}]})");
  EXPECT_THROW(KernelSpeedTable::from_bench_json(mt.path()), contract_error);
}

TEST(KernelSpeedTable, VariantNamesFallBackThroughBaseToScalarEntry) {
  // Full chain: exact variant -> unsuffixed base -> base_scalar.
  KernelSpeedTable t;
  t.set("lb_collide_stream_avx2", 170.0);
  t.set("lb_collide_stream", 150.0);
  t.set("lb_collide_stream_scalar", 140.0);
  EXPECT_EQ(t.mlups("lb_collide_stream_avx2"), 170.0);  // exact hit

  KernelSpeedTable base_only;
  base_only.set("lb_collide_stream", 150.0);
  // A pre-SIMD-split bench file prices both variants at the base row.
  EXPECT_EQ(base_only.mlups("lb_collide_stream_avx2"), 150.0);
  EXPECT_EQ(base_only.mlups("lb_collide_stream_scalar"), 150.0);

  KernelSpeedTable scalar_only;
  scalar_only.set("lb_collide_stream_scalar", 140.0);
  // No exact or base entry: a variant resolves to the scalar row...
  EXPECT_EQ(scalar_only.mlups("lb_collide_stream_avx2"), 140.0);
  // ...but the unsuffixed base name itself does not (it is not a
  // variant, so it must not silently alias a pinned measurement).
  EXPECT_FALSE(scalar_only.mlups("lb_collide_stream").has_value());

  // Unknown kernels and unknown suffixes stay misses.
  EXPECT_FALSE(base_only.mlups("lb_collide_stream_sse9").has_value());
  EXPECT_FALSE(base_only.mlups("no_such_kernel").has_value());
}

TEST(KernelSpeedTable, NodeRateResolvesVariantsPerPass) {
  KernelSpeedTable t;
  t.set("lb_collide_stream", 150.0);
  t.set("lb_collide_stream_avx2", 300.0);
  t.set("lb_moments", 400.0);
  t.set("filter_bc", 200.0);
  // Variant-qualified rate: the collide-stream pass uses the avx2 row;
  // moments and filter_bc have no avx2 row and fall back to their base
  // entries.
  const double avx2 = *t.node_rate(Method::kLatticeBoltzmann, "avx2");
  EXPECT_DOUBLE_EQ(avx2, 1e6 / (1.0 / 300.0 + 1.0 / 400.0 + 1.0 / 200.0));
  // Unqualified rate keeps the auto-dispatched production rows.
  const double base = *t.node_rate(Method::kLatticeBoltzmann);
  EXPECT_DOUBLE_EQ(base, 1e6 / (1.0 / 150.0 + 1.0 / 400.0 + 1.0 / 200.0));
  // The scalar variant falls back to the base rows here (no _scalar
  // entries), pricing the same as unqualified.
  EXPECT_DOUBLE_EQ(*t.node_rate(Method::kLatticeBoltzmann, "scalar"), base);
  // FD passes ride the same chain.
  t.set("fd_velocity", 400.0);
  t.set("fd_density", 600.0);
  EXPECT_DOUBLE_EQ(
      *t.node_rate(Method::kFiniteDifference, "avx2"),
      1e6 / (1.0 / 400.0 + 1.0 / 600.0 + 1.0 / 200.0));
}

TEST(ClusterParams, NodeRateUsesMeasuredKernelsWithScalarFallback) {
  ClusterParams p;
  const double scalar_lb2 =
      p.base_node_rate *
      host_speed_factor(HostModel::k715, Method::kLatticeBoltzmann, 2);
  // Empty table: the paper's scalar calibration.
  EXPECT_DOUBLE_EQ(p.node_rate(HostModel::k715, Method::kLatticeBoltzmann, 2),
                   scalar_lb2);

  p.kernel_speeds.set("lb_collide_stream", 50.0);
  p.kernel_speeds.set("lb_moments", 150.0);
  p.kernel_speeds.set("filter_bc", 150.0);
  // Measured 2D rate (the three LB phases compose to 30 MLUPS), still
  // scaled by the relative host factor.
  EXPECT_DOUBLE_EQ(
      p.node_rate(HostModel::k710, Method::kLatticeBoltzmann, 2),
      1e6 / (1.0 / 50.0 + 1.0 / 150.0 + 1.0 / 150.0) *
          host_speed_factor(HostModel::k710, Method::kLatticeBoltzmann, 2));
  // The bench suite measures 2D kernels; 3D keeps the scalar path.
  EXPECT_DOUBLE_EQ(
      p.node_rate(HostModel::k715, Method::kLatticeBoltzmann, 3),
      p.base_node_rate *
          host_speed_factor(HostModel::k715, Method::kLatticeBoltzmann, 3));
  // A method whose kernels are not covered also falls back.
  EXPECT_DOUBLE_EQ(
      p.node_rate(HostModel::k715, Method::kFiniteDifference, 2),
      p.base_node_rate *
          host_speed_factor(HostModel::k715, Method::kFiniteDifference, 2));
}

}  // namespace
}  // namespace subsonic
