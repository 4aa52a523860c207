// The paper's four system modules (section 4.1), run end to end:
//
//   1. the INITIALIZATION program produces the initial state of the
//      problem as if there were only one workstation;
//   2. the DECOMPOSITION program splits it into subregions and saves one
//      dump file per subregion — "all the information that is needed by a
//      workstation to participate in a distributed computation";
//   3. the JOB-SUBMIT program starts a parallel subprocess per subregion,
//      each fed its dump file;
//   4. the MONITORING program periodically checkpoints the run (the
//      paper saved state every 10-20 minutes to recover from failures)
//      and triggers migration when a host gets busy.
//
// Here stages are in-process (our "workstations" are threads), but every
// byte of state flows through real dump files, and stage 4 exercises the
// appendix-B synchronization before the checkpoint.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "src/core/subsonic.hpp"
#include "src/runtime/sync_file.hpp"

int main() {
  using namespace subsonic;
  namespace fs = std::filesystem;

  const fs::path workdir = fs::temp_directory_path() / "subsonic_workflow";
  fs::create_directories(workdir);

  // --- 1. initialization: the serial problem definition ----------------
  const Geometry2D geo =
      build_flue_pipe(Extents2{200, 125}, FluePipeVariant::kBasic, 3);
  FluidParams params;
  params.dt = 1.0;
  params.nu = 0.01;
  params.filter_eps = 0.1;
  params.inlet_vx = geo.inlet_speed;
  std::printf("[init]      %dx%d flue pipe, jet speed %.3f\n", 200, 125,
              geo.inlet_speed);

  // --- 2. decomposition: write one dump file per subregion -------------
  {
    BlockedDriver<2> decomposer(geo.mask, params, Method::kLatticeBoltzmann,
                                GridShape{4, 3, 1}, 0);
    decomposer.save_blocks(workdir.string());
    std::printf("[decompose] (4x3) = %d subregions -> %d dump files in %s\n",
                decomposer.blocks().block_count(),
                decomposer.active_count(), workdir.c_str());
  }

  // --- 3. job submit: fresh "workstations" load the dumps and run ------
  BlockedDriver<2> sim(geo.mask, params, Method::kLatticeBoltzmann,
                       GridShape{4, 3, 1}, 0);
  sim.restore_blocks(workdir.string());
  std::printf("[submit]    %d parallel subprocesses started\n",
              sim.active_count());

  // --- 4. monitor: run in bursts, checkpointing after a global sync ----
  SyncFile sync((workdir / "syncfile").string());
  for (int burst = 1; burst <= 3; ++burst) {
    sync.clear();
    std::atomic<bool> checkpoint_request{false};
    std::thread monitor([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      checkpoint_request.store(true);  // the paper's periodic state save
    });
    const int ran = sim.run_until_sync(1000000, checkpoint_request, sync);
    monitor.join();
    sim.save_blocks(workdir.string());
    std::printf("[monitor]   burst %d: synchronized after %d steps at step "
                "%ld, state saved\n",
                burst, ran, sim.step());
  }

  const auto w = vorticity_of_gathered(sim);
  std::printf("[result]    step %ld, max |vorticity| = %.4g\n",
              sim.step(), max_abs(w));
  std::printf("dump files kept in %s\n", workdir.c_str());
  return 0;
}
