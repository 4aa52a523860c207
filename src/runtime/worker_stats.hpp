// Per-rank timing, read from a rank's telemetry timers: BlockedDriver
// builds it from its live registry, the process runtime from the metrics
// each rank reports.
#pragma once

namespace subsonic {

/// The measured version of the paper's processor utilization
/// g = T_calc / (T_calc + T_com) (section 8, eq. 8).  On a machine with
/// fewer cores than workers the "communication" time also absorbs
/// scheduler wait, so g is a lower bound there.
struct WorkerStats {
  double compute_s = 0;  ///< time inside compute phases
  double comm_s = 0;     ///< time inside exchange phases (incl. waiting)
  /// An idle worker (no time charged at all) reports 0, not 1: averaging
  /// ranks that never ran as "perfectly utilized" would inflate every
  /// summary they appear in.
  double utilization() const {
    const double total = compute_s + comm_s;
    return total > 0 ? compute_s / total : 0.0;
  }
};

}  // namespace subsonic
