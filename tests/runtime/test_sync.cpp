// Appendix B: the shared-file synchronization algorithm, both in
// isolation and driving the threaded runtime to a common stop step.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <sys/stat.h>
#include <unistd.h>

#include "src/geometry/flue_pipe.hpp"
#include "src/runtime/parallel2d.hpp"
#include "src/runtime/parallel3d.hpp"
#include "src/runtime/serial2d.hpp"
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

  ParallelDriver2D drv(mask, p, Method::kLatticeBoltzmann, 3, 2);
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
  for (int r = 0; r < drv.decomposition().rank_count(); ++r) {
    if (!drv.is_active(r)) continue;
    if (step0 < 0) step0 = drv.subdomain(r).step();
    EXPECT_EQ(drv.subdomain(r).step(), step0);
  }
  sync.clear();
}

TEST(RunUntilSync, WithoutRequestRunsToCompletion) {
  Mask2D mask(Extents2{24, 24}, 1);
  FluidParams p;
  p.dt = 1.0;
  p.periodic_x = p.periodic_y = true;
  ParallelDriver2D drv(mask, p, Method::kLatticeBoltzmann, 2, 2);
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
  ParallelDriver2D drv(mask, p, Method::kLatticeBoltzmann, 2, 2);
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
  for (int r = 0; r < drv.decomposition().rank_count(); ++r) {
    if (!drv.is_active(r)) continue;
    if (step0 < 0) step0 = drv.subdomain(r).step();
    EXPECT_EQ(drv.subdomain(r).step(), step0);
  }
  sync.clear();
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

  auto seed = [](Domain2D& d, Box2 box) {
    for (int y = 0; y < d.ny(); ++y)
      for (int x = 0; x < d.nx(); ++x)
        d.rho()(x, y) =
            1.0 + 0.02 * std::sin(0.3 * (box.x0 + x) + 0.2 * (box.y0 + y));
  };

  ParallelDriver2D straight(mask, p, Method::kLatticeBoltzmann, 2, 2);
  for (int r = 0; r < 4; ++r)
    seed(straight.subdomain(r), straight.decomposition().box(r));
  straight.reinitialize();

  ParallelDriver2D before(mask, p, Method::kLatticeBoltzmann, 2, 2);
  for (int r = 0; r < 4; ++r)
    seed(before.subdomain(r), before.decomposition().box(r));
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
  // same time, checkpoint rank_<r>.dump files into TempDir() too.
  const std::string dir = tmp_sync("mig_ckpt");
  ::mkdir(dir.c_str(), 0755);
  before.save_checkpoint(dir);
  ParallelDriver2D after(mask, p, Method::kLatticeBoltzmann, 2, 2);
  after.restore_checkpoint(dir);

  const int total = ran + 40;
  straight.run(total);
  after.run(40);

  const auto a = straight.gather(FieldId::kRho);
  const auto b = after.gather(FieldId::kRho);
  for (int y = 0; y < 24; ++y)
    for (int x = 0; x < 36; ++x) ASSERT_EQ(a(x, y), b(x, y));
  sync.clear();
}

TEST(RunUntilSync3D, StopsEveryWorkerAtTheSameStep) {
  Mask3D mask(Extents3{16, 12, 10}, 1);
  FluidParams p;
  p.dt = 1.0;
  p.periodic_x = p.periodic_y = p.periodic_z = true;
  ParallelDriver3D drv(mask, p, Method::kLatticeBoltzmann, 2, 2, 1);
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
  for (int r = 0; r < drv.decomposition().rank_count(); ++r) {
    if (step0 < 0) step0 = drv.subdomain(r).step();
    EXPECT_EQ(drv.subdomain(r).step(), step0);
  }
  sync.clear();
}

TEST(RunUntilSync3D, WithoutRequestRunsToCompletion) {
  Mask3D mask(Extents3{10, 10, 8}, 1);
  FluidParams p;
  p.dt = 0.3;
  p.periodic_x = p.periodic_y = p.periodic_z = true;
  ParallelDriver3D drv(mask, p, Method::kFiniteDifference, 2, 1, 2);
  SyncFile sync(tmp_sync("none3d"));
  sync.clear();
  std::atomic<bool> request{false};
  EXPECT_EQ(drv.run_until_sync(15, request, sync), 15);
  sync.clear();
}

}  // namespace
}  // namespace subsonic
