// Checkpoint-epoch bookkeeping for the supervised process runtime (the
// paper's "orderly staggered saving of state", section 4.1).  Every
// `checkpoint_interval` steps each rank writes block_<b>.epoch_<e>.dump
// for every block it owns into the working directory (atomically — tmp +
// fsync + rename).  The supervisor commits an epoch by atomically
// rewriting the MANIFEST file once it has verified a durable, CRC-clean
// dump of *every* active block, so a restart always resumes from the
// newest epoch whose dumps are known-complete — never from a half-saved
// one.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace subsonic {

namespace epoch {

/// "MANIFEST" in `workdir`: the supervisor's commit record.
std::string manifest_path(const std::string& workdir);

/// "block_<b>.epoch_<e>.dump" in `workdir`.  Block dumps are keyed by
/// block id, never by owning rank, which is what lets a restart resume
/// under a rewritten owner map (each block restores its own state wherever
/// it now lives).
std::string block_dump_path(const std::string& workdir, int block, long e);

struct Manifest {
  long epoch = -1;         ///< newest complete epoch
  long step = 0;           ///< step counter all its dumps carry
  std::vector<int> ranks;  ///< active blocks whose dumps were verified
};

/// Atomically (re)writes the MANIFEST.
void commit_manifest(const std::string& workdir, const Manifest& m);

/// Reads the MANIFEST; nullopt when absent or unparsable (a torn or
/// foreign file counts as "no committed epoch", never as an error).
std::optional<Manifest> read_manifest(const std::string& workdir);

/// Deletes epoch dumps older than `keep_from` for the given block ids —
/// once epoch e is committed, epochs < e can never be restored again.
void gc_block_epochs(const std::string& workdir,
                     const std::vector<int>& blocks, long keep_from);

/// Start-of-run hygiene: removes the MANIFEST, every rank_*.epoch_*.dump /
/// block_*.epoch_*.dump and every *.tmp straggler in `workdir`, so state
/// left by a crashed prior run can never wedge or corrupt a fresh one (the
/// checkpoint analogue of the fresh port registry).
void clear_run_state(const std::string& workdir);

}  // namespace epoch

}  // namespace subsonic
