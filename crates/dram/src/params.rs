//! DRAM operating parameters: supply voltage and timing.
//!
//! Nominal DDR4 values follow the paper (Section 2.2): `tRCD = 12.5 ns`,
//! `tRAS = 32 ns`, `tRP = 12.5 ns`, `CL = 12.5 ns`, `VDD = 1.35 V` (the value
//! the paper's characterized modules use as nominal in Section 6.5). EDEN
//! reduces `VDD` and `tRCD` below these values, trading reliability for
//! energy and latency.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Nominal DDR4 supply voltage used by the paper's characterization (volts).
pub const NOMINAL_VDD: f32 = 1.35;
/// Nominal DDR4 row-activation latency (nanoseconds).
pub const NOMINAL_TRCD_NS: f32 = 12.5;
/// Nominal DDR4 row-precharge latency (nanoseconds).
pub const NOMINAL_TRP_NS: f32 = 12.5;
/// Nominal DDR4 row-active time (nanoseconds).
pub const NOMINAL_TRAS_NS: f32 = 32.0;
/// Nominal DDR4 CAS latency (nanoseconds); not adjustable in the memory
/// controller (Figure 3 caption).
pub const NOMINAL_CL_NS: f32 = 12.5;
/// Largest supply-voltage reduction EDEN's sweeps consider (volts): the
/// deepest ΔVDD of Table 3 / Figure 5. Mapping normalizes operating-point
/// benefit against this limit.
pub const MAX_VDD_REDUCTION: f32 = 0.35;
/// Largest `tRCD` reduction EDEN's sweeps consider (nanoseconds): the deepest
/// ΔtRCD of Table 3 / Figure 5. Mapping normalizes operating-point benefit
/// against this limit.
pub const MAX_TRCD_REDUCTION_NS: f32 = 6.0;

/// DRAM timing parameters in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingParams {
    /// Row activation latency (ACT → data sensed).
    pub trcd_ns: f32,
    /// Row active time (ACT → PRE allowed).
    pub tras_ns: f32,
    /// Precharge latency (PRE → next ACT allowed).
    pub trp_ns: f32,
    /// CAS latency (READ → data on bus).
    pub cl_ns: f32,
}

impl TimingParams {
    /// Manufacturer-nominal DDR4 timing.
    pub fn nominal() -> Self {
        Self {
            trcd_ns: NOMINAL_TRCD_NS,
            tras_ns: NOMINAL_TRAS_NS,
            trp_ns: NOMINAL_TRP_NS,
            cl_ns: NOMINAL_CL_NS,
        }
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::nominal()
    }
}

/// A DRAM operating point: supply voltage plus timing parameters.
///
/// EDEN explores reduced `vdd` (for energy) and reduced `trcd` (for latency);
/// both reductions increase the bit error rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Supply voltage in volts.
    pub vdd: f32,
    /// Timing parameters.
    pub timing: TimingParams,
}

impl OperatingPoint {
    /// The manufacturer-nominal operating point.
    pub fn nominal() -> Self {
        Self {
            vdd: NOMINAL_VDD,
            timing: TimingParams::nominal(),
        }
    }

    /// Nominal operating point with the supply voltage reduced by `delta_v`
    /// volts.
    ///
    /// # Panics
    ///
    /// Panics if the reduction is negative or produces a non-positive voltage.
    pub fn with_vdd_reduction(delta_v: f32) -> Self {
        assert!(delta_v >= 0.0, "voltage reduction must be non-negative");
        let vdd = NOMINAL_VDD - delta_v;
        assert!(vdd > 0.0, "voltage reduction {delta_v} too large");
        Self {
            vdd,
            timing: TimingParams::nominal(),
        }
    }

    /// Nominal operating point with `tRCD` reduced by `delta_ns` nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if the reduction is negative or produces a non-positive latency.
    pub fn with_trcd_reduction(delta_ns: f32) -> Self {
        assert!(delta_ns >= 0.0, "tRCD reduction must be non-negative");
        let trcd = NOMINAL_TRCD_NS - delta_ns;
        assert!(trcd > 0.0, "tRCD reduction {delta_ns} too large");
        Self {
            vdd: NOMINAL_VDD,
            timing: TimingParams {
                trcd_ns: trcd,
                ..TimingParams::nominal()
            },
        }
    }

    /// Operating point with both reductions applied.
    pub fn with_reductions(delta_v: f32, delta_trcd_ns: f32) -> Self {
        let mut op = Self::with_vdd_reduction(delta_v);
        op.timing.trcd_ns = NOMINAL_TRCD_NS - delta_trcd_ns;
        assert!(op.timing.trcd_ns > 0.0, "tRCD reduction too large");
        op
    }

    /// Voltage reduction below nominal (≥ 0).
    pub fn vdd_reduction(&self) -> f32 {
        (NOMINAL_VDD - self.vdd).max(0.0)
    }

    /// `tRCD` reduction below nominal (≥ 0).
    pub fn trcd_reduction_ns(&self) -> f32 {
        (NOMINAL_TRCD_NS - self.timing.trcd_ns).max(0.0)
    }

    /// Whether this point is within manufacturer specifications (no
    /// reductions applied).
    pub fn is_nominal(&self) -> bool {
        self.vdd_reduction() == 0.0 && self.trcd_reduction_ns() == 0.0
    }
}

impl Default for OperatingPoint {
    fn default() -> Self {
        Self::nominal()
    }
}

impl fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VDD={:.2}V tRCD={:.1}ns", self.vdd, self.timing.trcd_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_matches_paper_values() {
        let op = OperatingPoint::nominal();
        assert_eq!(op.vdd, 1.35);
        assert_eq!(op.timing.trcd_ns, 12.5);
        assert_eq!(op.timing.tras_ns, 32.0);
        assert_eq!(op.timing.trp_ns, 12.5);
        assert!(op.is_nominal());
    }

    #[test]
    fn reductions_are_reported() {
        let op = OperatingPoint::with_reductions(0.30, 5.5);
        assert!((op.vdd - 1.05).abs() < 1e-6);
        assert!((op.timing.trcd_ns - 7.0).abs() < 1e-6);
        assert!((op.vdd_reduction() - 0.30).abs() < 1e-6);
        assert!((op.trcd_reduction_ns() - 5.5).abs() < 1e-6);
        assert!(!op.is_nominal());
    }

    #[test]
    fn sweep_limit_constants_are_valid_operating_points() {
        let op = OperatingPoint::with_reductions(MAX_VDD_REDUCTION, MAX_TRCD_REDUCTION_NS);
        assert!((op.vdd_reduction() - MAX_VDD_REDUCTION).abs() < 1e-6);
        assert!((op.trcd_reduction_ns() - MAX_TRCD_REDUCTION_NS).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn excessive_voltage_reduction_rejected() {
        OperatingPoint::with_vdd_reduction(2.0);
    }

    #[test]
    #[should_panic]
    fn excessive_trcd_reduction_rejected() {
        OperatingPoint::with_trcd_reduction(13.0);
    }
}
