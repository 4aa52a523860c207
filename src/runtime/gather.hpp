// The process runtime's gather surface: reconstruct the full macroscopic
// fields from the per-block dump files a supervised run leaves behind —
// "these files contain all the information that is needed" (paper section
// 4.1), so the dumps double as the result-gathering mechanism and no
// driver or tool needs per-dimension I/O code.  A gather reads the
// MANIFEST-committed epoch (epoch_store.hpp), which after a supervised
// run is its final state, in both dimensions.
#pragma once

#include <string>

#include "src/geometry/mask.hpp"
#include "src/grid/padded_field.hpp"
#include "src/solver/params.hpp"

namespace subsonic {

/// Global macroscopic fields reassembled from a 2D run's dumps.  Inactive
/// (all-solid) subregions hold the quiescent state, exactly as in
/// BlockedDriver::gather.
struct GatheredFields2D {
  long step = 0;  ///< step counter every dump agreed on
  PaddedField2D<double> rho;
  PaddedField2D<double> vx;
  PaddedField2D<double> vy;
};

/// 3D counterpart of GatheredFields2D.
struct GatheredFields3D {
  long step = 0;
  PaddedField3D<double> rho;
  PaddedField3D<double> vx;
  PaddedField3D<double> vy;
  PaddedField3D<double> vz;
};

/// Reassembles rho/Vx/Vy from the committed epoch of a (jx x jy)
/// supervised run with one block per rank (block_side 0) in `workdir`.
/// The mask, params, method and decomposition must match the run that
/// wrote the dumps; throws contract_error when `workdir` holds no
/// committed epoch, and checkpoint_error / contract_error on corrupt files
/// or any mismatch, including dumps that disagree with the MANIFEST on the
/// step counter.  Dumps of a newer, uncommitted epoch are never read.
GatheredFields2D gather_fields2d(const Mask2D& mask,
                                 const FluidParams& params, Method method,
                                 int jx, int jy, const std::string& workdir);

/// 3D counterpart: reassembles rho/Vx/Vy/Vz from a (jx x jy x jz) run.
GatheredFields3D gather_fields3d(const Mask3D& mask,
                                 const FluidParams& params, Method method,
                                 int jx, int jy, int jz,
                                 const std::string& workdir);

/// The same gather for any block side.  `block_side` must match the run
/// that wrote the dumps and resolves exactly as ProcessRunOptions::
/// block_side does (0: one block per rank, -1: SUBSONIC_BLOCKS or the
/// default).  Owner-map agnostic — block dumps carry no rank identity, so
/// a gather works across any sequence of rebalances.
GatheredFields2D gather_fields2d_blocked(const Mask2D& mask,
                                         const FluidParams& params,
                                         Method method, int jx, int jy,
                                         int block_side,
                                         const std::string& workdir);

/// 3D counterpart of gather_fields2d_blocked.
GatheredFields3D gather_fields3d_blocked(const Mask3D& mask,
                                         const FluidParams& params,
                                         Method method, int jx, int jy, int jz,
                                         int block_side,
                                         const std::string& workdir);

}  // namespace subsonic
