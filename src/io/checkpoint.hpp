// Binary dump files (paper section 4.1): "these files contain all the
// information that is needed by a workstation to participate in a
// distributed computation."  The same files implement the periodic state
// saves the monitoring program falls back to, and the save/restore halves
// of a migration — which the paper notes is "equivalent to stopping the
// computation, saving the entire state on disk, and then restarting."
//
// A checkpoint stores the fields and the step counter of one subregion;
// geometry and parameters are static configuration and are revalidated
// (not rebuilt) at restore time via a fingerprint in the header.
//
// Format (v3): fields are serialized row by row over the *logical* window
// (interior plus ghost ring), never the raw pitched storage, so a dump is
// portable between builds with different pitch rounding, extra_pitch (the
// Appendix-E experiments), or in-memory distribution layout.  v3 records
// which layout produced the dump in a header tag (kLayoutSoaSlab for the
// row-interleaved SoA slabs) — provenance for tools, not a restore
// requirement, precisely because the payload is layout-independent.  v2
// dumps (same bytes, tag slot reserved as zero) restore unchanged.  The
// header carries a CRC32 over the payload and the exact payload size;
// writes go through the atomic tmp+fsync+rename protocol, so a file that
// exists under its final name is either complete and verifiable or
// rejected loudly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/solver/domain.hpp"
#include "src/util/check.hpp"

namespace subsonic {

/// Thrown when a checkpoint file itself is unusable — missing, truncated,
/// bit-flipped (CRC mismatch), or not a checkpoint at all.  The message
/// always names the offending path.  Derives from contract_error so
/// callers treating any restore failure uniformly keep working; catch
/// this type to distinguish a corrupt file from a geometry/parameter
/// mismatch (which stays a plain contract_error).
class checkpoint_error : public contract_error {
 public:
  using contract_error::contract_error;
};

/// Distribution-layout tags recorded in v3 dump headers.
constexpr int kLayoutUnspecified = 0;  ///< v2 dumps (reserved slot was 0)
constexpr int kLayoutSoaSlab = 1;      ///< row-interleaved SoA slab planes

/// Everything a supervisor needs to know about a dump without building a
/// Domain: which runtime wrote it, where it belongs, and how far it got.
struct CheckpointInfo {
  int dim = 0;                            ///< 2 or 3
  long step = 0;                          ///< step counter at save time
  std::int32_t box[6] = {0, 0, 0, 0, 0, 0};  ///< x0 y0 z0 x1 y1 z1
  int ghost = 0;
  int method = 0;
  int q = 0;
  int version = 0;  ///< dump format version (2 or 3)
  int layout = 0;   ///< producing layout tag (kLayout*; 0 for v2 dumps)
};

/// Serializes the full state (header + logical-layout fields, in
/// Domain::state_fields() order) into a buffer — the exact bytes
/// save_domain writes.  Exposed so the process runtime can snapshot
/// cheaply at a checkpoint step and defer (stagger) the disk write, and so
/// the fault harness can tear a write.
template <int Dim>
std::vector<char> serialize_domain(const Domain<Dim>& d);

/// Writes the full state of a subregion atomically (tmp + fsync + rename).
template <int Dim>
void save_domain(const Domain<Dim>& d, const std::string& path);

/// Restores state saved by save_domain into a domain constructed with the
/// same geometry, method, ghost width and parameters.  Throws
/// checkpoint_error when the file is corrupt (truncated / checksum
/// mismatch / wrong format / a payload that does not fill the header's
/// box) and contract_error on any configuration mismatch (wrong
/// subregion, wrong method, changed parameters).
template <int Dim>
void restore_domain(Domain<Dim>& d, const std::string& path);

/// True when a dump header's box (x0 y0 z0 x1 y1 z1) is `b`: its first
/// Dim lower and upper corners match; a 2D header's z entries stay zero.
template <typename Box>
bool box_matches(const std::int32_t (&box)[6], const Box& b) {
  const auto lo = b.lo();
  const auto hi = b.hi();
  for (std::size_t a = 0; a < lo.size(); ++a)
    if (box[a] != lo[a] || box[3 + a] != hi[a]) return false;
  return true;
}

/// True when a dump describes the subregion `b` of a run of b's
/// dimension.
template <typename Box>
bool box_matches(const CheckpointInfo& info, const Box& b) {
  return info.dim == static_cast<int>(b.lo().size()) &&
         box_matches(info.box, b);
}

/// Fully reads and verifies a dump (size and CRC32) and returns its
/// header facts.  Throws checkpoint_error when the file is missing or
/// corrupt.  This is how the supervisor decides a rank's epoch dump is
/// durable before committing the epoch MANIFEST.
CheckpointInfo inspect_checkpoint(const std::string& path);

}  // namespace subsonic
