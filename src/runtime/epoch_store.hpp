// The one state store of the supervised process runtime: the paper's dump
// files, which serve the staggered saving of state, the restart after a
// failure and the gathering of results (section 4.1).  Every
// `checkpoint_interval` steps, and at its cohort's target step, each rank
// writes block_<b>.epoch_<e>.dump for every block it owns (atomically —
// tmp + fsync + rename).  The supervisor commits an epoch by atomically
// rewriting the MANIFEST once it has verified a durable, CRC-clean dump of
// *every* active block, so a restart, a continuation call and a gather
// read the newest complete epoch.  A run's final state is its last one.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/io/checkpoint.hpp"

namespace subsonic {

namespace epoch {

/// "block_<b>.epoch_<e>.dump" in `workdir`.  Block dumps are keyed by
/// block id, never by owning rank, which is what lets a restart resume
/// under a rewritten owner map (each block restores its own state wherever
/// it now lives).
std::string block_dump_path(const std::string& workdir, int block, long e);

struct Manifest {
  long epoch = -1;          ///< newest complete epoch
  long step = 0;            ///< step counter all its dumps carry
  std::vector<int> blocks;  ///< active blocks whose dumps were verified
};

/// Commits `m`: atomically (re)writes the MANIFEST, then deletes the
/// dumps of m.blocks' older epochs, which can never be restored again.
void commit(const std::string& workdir, const Manifest& m);

/// Reads the MANIFEST; nullopt when absent or unparsable (a torn or
/// foreign file counts as "no committed epoch", never as an error).
std::optional<Manifest> read_manifest(const std::string& workdir);

/// The dumps of `blocks` at epoch `e`, in order.
std::vector<std::string> dump_paths(const std::string& workdir,
                                    const std::vector<int>& blocks, long e);

/// Fully verifies (size and CRC32, as inspect_checkpoint does) the dumps
/// at `paths`, concurrently, in threads that all finish before it
/// returns.  Entry i holds dump i's header facts, or nothing when dump i
/// is missing or corrupt.
std::vector<std::optional<CheckpointInfo>> verify(
    const std::vector<std::string>& paths);

/// Start-of-run hygiene: removes every block dump in `workdir` but
/// `keep`'s epoch's dumps of its blocks, the MANIFEST unless `keep` is
/// given, every rank_<r> dump, metrics snapshot and trace, and every .tmp
/// straggler — so state left by another run, or by a crash past the last
/// commit, can neither wedge nor corrupt this one.
void clear_run_state(const std::string& workdir,
                     const std::optional<Manifest>& keep);

}  // namespace epoch

}  // namespace subsonic
