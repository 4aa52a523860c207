// Appendix B: the shared-file synchronization algorithm, both in
// isolation and driving the threaded runtime to a common stop step.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <sys/stat.h>
#include <unistd.h>

#include "src/geometry/flue_pipe.hpp"
#include "src/runtime/blocked_driver.hpp"
#include "src/runtime/serial_driver.hpp"
#include "src/runtime/sync_file.hpp"

namespace subsonic {
namespace {

std::string tmp_sync(const char* name) {
  return std::string(::testing::TempDir()) + "/sync_" + name + "_" +
         std::to_string(::getpid());
}

TEST(SyncFile, AnnounceAndReadBack) {
  SyncFile f(tmp_sync("basic"));
  f.clear();
  f.announce(0, 100);
  f.announce(3, 104);
  f.announce(1, 99);
  const auto records = f.read_all();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], (std::pair<int, long>{0, 100}));
  EXPECT_EQ(records[2], (std::pair<int, long>{1, 99}));
  f.clear();
}

TEST(SyncFile, SyncStepIsMaxPlusOne) {
  SyncFile f(tmp_sync("maxplus"));
  f.clear();
  f.announce(0, 7);
  EXPECT_EQ(f.sync_step(/*expected=*/2), -1);  // still waiting for rank 1
  f.announce(1, 9);
  EXPECT_EQ(f.sync_step(2), 10);  // appendix B: T_max + 1
  f.clear();
}

TEST(SyncFile, ConcurrentAnnouncementsDoNotInterleave) {
  SyncFile f(tmp_sync("concurrent"));
  f.clear();
  const int n = 16;
  std::vector<std::thread> threads;
  for (int r = 0; r < n; ++r)
    threads.emplace_back([&f, r] { f.announce(r, 1000 + r); });
  for (auto& t : threads) t.join();
  const auto records = f.read_all();
  ASSERT_EQ(records.size(), size_t(n));  // no torn/merged lines
  long sum = 0;
  for (const auto& [rank, step] : records) {
    EXPECT_EQ(step, 1000 + rank);
    sum += rank;
  }
  EXPECT_EQ(sum, n * (n - 1) / 2);  // every rank exactly once
  EXPECT_EQ(f.sync_step(n), 1000 + n - 1 + 1);
  f.clear();
}

TEST(SyncFile, ClearRemovesState) {
  SyncFile f(tmp_sync("clear"));
  f.announce(0, 5);
  f.clear();
  EXPECT_TRUE(f.read_all().empty());
}

TEST(RunUntilSync, StopsEveryWorkerAtTheSameStep) {
  Mask2D mask(Extents2{48, 32}, 1);
  FluidParams p;
  p.dt = 1.0;
  mask.fill_box({0, 0, 48, 1}, NodeType::kWall);
  mask.fill_box({0, 31, 48, 32}, NodeType::kWall);
  mask.fill_box({0, 0, 1, 32}, NodeType::kWall);
  mask.fill_box({47, 0, 48, 32}, NodeType::kWall);

  BlockedDriver<2> drv(mask, p, Method::kLatticeBoltzmann,
                       GridShape{3, 2, 1}, 0);
  SyncFile sync(tmp_sync("drv"));
  sync.clear();
  std::atomic<bool> request{false};

  std::thread trigger([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    request.store(true);
  });
  const int ran = drv.run_until_sync(100000, request, sync);
  trigger.join();

  EXPECT_GT(ran, 0);
  EXPECT_LT(ran, 100000);  // the request actually cut the run short
  // All subdomains paused at the same integration step.
  long step0 = -1;
  for (int r = 0; r < drv.blocks().block_count(); ++r) {
    if (!drv.blocks().block_active(r)) continue;
    if (step0 < 0) step0 = drv.block_domain(r).step();
    EXPECT_EQ(drv.block_domain(r).step(), step0);
  }
  sync.clear();
}

TEST(RunUntilSync, WithoutRequestRunsToCompletion) {
  Mask2D mask(Extents2{24, 24}, 1);
  FluidParams p;
  p.dt = 1.0;
  p.periodic_x = p.periodic_y = true;
  BlockedDriver<2> drv(mask, p, Method::kLatticeBoltzmann,
                       GridShape{2, 2, 1}, 0);
  SyncFile sync(tmp_sync("none"));
  sync.clear();
  std::atomic<bool> request{false};
  EXPECT_EQ(drv.run_until_sync(25, request, sync), 25);
  sync.clear();
}

TEST(RunUntilSync, StaleSyncFileRecordsDoNotWedgeAFreshRun) {
  // Records left by a crashed or aborted earlier round must not poison a
  // fresh synchronization: without start-of-round hygiene the first
  // announcer computes an ancient agreed step that no worker can honour
  // consistently.  run_until_sync clears the file at entry.
  Mask2D mask(Extents2{24, 24}, 1);
  FluidParams p;
  p.dt = 1.0;
  p.periodic_x = p.periodic_y = true;
  BlockedDriver<2> drv(mask, p, Method::kLatticeBoltzmann,
                       GridShape{2, 2, 1}, 0);
  SyncFile sync(tmp_sync("stale"));
  sync.clear();
  sync.announce(0, 3);  // a full stale quorum from a previous round
  sync.announce(1, 5);
  sync.announce(2, 4);
  sync.announce(3, 2);
  std::atomic<bool> request{false};
  std::thread trigger([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    request.store(true);
  });
  const int ran = drv.run_until_sync(100000, request, sync);
  trigger.join();
  EXPECT_GT(ran, 0);
  EXPECT_LT(ran, 100000);
  long step0 = -1;
  for (int r = 0; r < drv.blocks().block_count(); ++r) {
    if (!drv.blocks().block_active(r)) continue;
    if (step0 < 0) step0 = drv.block_domain(r).step();
    EXPECT_EQ(drv.block_domain(r).step(), step0);
  }
  sync.clear();
}

/// A smooth density perturbation in global coordinates, so every layout
/// starts from the same state.
void seed(Domain2D& d, Box2 box) {
  for (int y = 0; y < d.ny(); ++y)
    for (int x = 0; x < d.nx(); ++x)
      d.rho()(x, y) =
          1.0 + 0.02 * std::sin(0.3 * (box.x0 + x) + 0.2 * (box.y0 + y));
}

TEST(RunUntilSync, MigrationSequenceMatchesUninterruptedRun) {
  // The full appendix-B + section-5 sequence at the functional level:
  // run, receive a migration signal, synchronize, save state, "restart"
  // on a fresh driver (new hosts), continue — bit-identical to a run that
  // was never interrupted.
  Mask2D mask(Extents2{36, 24}, 1);
  FluidParams p;
  p.dt = 1.0;
  p.periodic_x = p.periodic_y = true;

  BlockedDriver<2> straight(mask, p, Method::kLatticeBoltzmann,
                            GridShape{2, 2, 1}, 0);
  for (int r = 0; r < 4; ++r)
    seed(straight.block_domain(r), straight.blocks().box(r));
  straight.reinitialize();

  BlockedDriver<2> before(mask, p, Method::kLatticeBoltzmann,
                          GridShape{2, 2, 1}, 0);
  for (int r = 0; r < 4; ++r)
    seed(before.block_domain(r), before.blocks().box(r));
  before.reinitialize();

  SyncFile sync(tmp_sync("mig"));
  sync.clear();
  std::atomic<bool> request{false};
  std::thread trigger([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    request.store(true);
  });
  const int ran = before.run_until_sync(100000, request, sync);
  trigger.join();

  // A directory of its own: other suites, which ctest may run at the
  // same time, checkpoint block_<b>.dump files into TempDir() too.
  const std::string dir = tmp_sync("mig_ckpt");
  ::mkdir(dir.c_str(), 0755);
  before.save_blocks(dir);
  BlockedDriver<2> after(mask, p, Method::kLatticeBoltzmann,
                         GridShape{2, 2, 1}, 0);
  after.restore_blocks(dir);

  const int total = ran + 40;
  straight.run(total);
  after.run(40);

  const auto a = straight.gather(FieldId::kRho);
  const auto b = after.gather(FieldId::kRho);
  for (int y = 0; y < 24; ++y)
    for (int x = 0; x < 36; ++x) ASSERT_EQ(a(x, y), b(x, y));
  sync.clear();
}

TEST(RunUntilSync, SeveralBlocksPerRankStopTogetherAndResumeBitwise) {
  // Appendix B on an over-decomposed layout: the blocks of both ranks
  // stop at one step, and the save + restore on a fresh driver continues
  // bit-identically to an uninterrupted run.
  Mask2D mask(Extents2{36, 24}, 1);
  mask.fill_box({10, 8, 14, 12}, NodeType::kWall);
  FluidParams p;
  p.dt = 1.0;
  p.periodic_x = p.periodic_y = true;
  const GridShape grid{2, 1, 1};
  const int side = 8;

  BlockedDriver<2> straight(mask, p, Method::kLatticeBoltzmann, grid, side);
  BlockedDriver<2> before(mask, p, Method::kLatticeBoltzmann, grid, side);
  ASSERT_GE(before.blocks().blocks_of(0).size(), 4u);
  ASSERT_GE(before.blocks().blocks_of(1).size(), 4u);
  for (BlockedDriver<2>* drv : {&straight, &before}) {
    for (int b = 0; b < drv->blocks().block_count(); ++b)
      if (drv->blocks().block_active(b))
        seed(drv->block_domain(b), drv->blocks().box(b));
    drv->reinitialize();
  }

  SyncFile sync(tmp_sync("blocked"));
  std::atomic<bool> request{false};
  std::thread trigger([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    request.store(true);
  });
  const int ran = before.run_until_sync(100000, request, sync);
  trigger.join();
  EXPECT_GT(ran, 0);
  EXPECT_LT(ran, 100000);
  for (int b = 0; b < before.blocks().block_count(); ++b) {
    if (!before.blocks().block_active(b)) continue;
    EXPECT_EQ(before.block_domain(b).step(), ran) << "block " << b;
  }

  const std::string dir = tmp_sync("blocked_ckpt");
  ::mkdir(dir.c_str(), 0755);
  before.save_blocks(dir);
  BlockedDriver<2> after(mask, p, Method::kLatticeBoltzmann, grid, side);
  after.restore_blocks(dir);
  straight.run(ran + 20);
  after.run(20);

  for (FieldId id : {FieldId::kRho, FieldId::kVx, FieldId::kVy}) {
    const auto a = straight.gather(id);
    const auto b = after.gather(id);
    for (int y = 0; y < 24; ++y)
      for (int x = 0; x < 36; ++x) ASSERT_EQ(a(x, y), b(x, y));
  }
  sync.clear();
}

TEST(RunUntilSync3D, StopsEveryWorkerAtTheSameStep) {
  Mask3D mask(Extents3{16, 12, 10}, 1);
  FluidParams p;
  p.dt = 1.0;
  p.periodic_x = p.periodic_y = p.periodic_z = true;
  BlockedDriver<3> drv(mask, p, Method::kLatticeBoltzmann,
                       GridShape{2, 2, 1}, 0);
  SyncFile sync(tmp_sync("drv3d"));
  sync.clear();
  std::atomic<bool> request{false};
  std::thread trigger([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    request.store(true);
  });
  const int ran = drv.run_until_sync(1000000, request, sync);
  trigger.join();
  EXPECT_GT(ran, 0);
  EXPECT_LT(ran, 1000000);
  long step0 = -1;
  for (int r = 0; r < drv.blocks().block_count(); ++r) {
    if (step0 < 0) step0 = drv.block_domain(r).step();
    EXPECT_EQ(drv.block_domain(r).step(), step0);
  }
  sync.clear();
}

TEST(RunUntilSync3D, WithoutRequestRunsToCompletion) {
  Mask3D mask(Extents3{10, 10, 8}, 1);
  FluidParams p;
  p.dt = 0.3;
  p.periodic_x = p.periodic_y = p.periodic_z = true;
  BlockedDriver<3> drv(mask, p, Method::kFiniteDifference,
                       GridShape{2, 1, 2}, 0);
  SyncFile sync(tmp_sync("none3d"));
  sync.clear();
  std::atomic<bool> request{false};
  EXPECT_EQ(drv.run_until_sync(15, request, sync), 15);
  sync.clear();
}

}  // namespace
}  // namespace subsonic
