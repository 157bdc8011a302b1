//! The common system-simulator interface and shared plumbing.
//!
//! The paper evaluates EDEN on three kinds of systems — a multi-core CPU
//! (Table 4), a Titan X-class GPU (Table 5) and two systolic accelerators
//! (Table 6) — and every one of its system experiments runs the same loop:
//! per workload, simulate at the nominal operating point, at a reduced-VDD
//! point (energy), and at a reduced-tRCD point (performance). [`SystemSim`]
//! is that loop's interface: the experiment binaries iterate one
//! `Vec<Box<dyn SystemSim>>` instead of copy-pasting per-simulator plumbing,
//! and the traffic/energy helpers here keep the CPU and GPU models from
//! duplicating their cache-filtered DRAM-traffic math.

use crate::accelerator::{AcceleratorConfig, AcceleratorSim};
use crate::cpu::CpuSim;
use crate::gpu::GpuSim;
use crate::result::SystemResult;
use crate::workload::WorkloadProfile;
use eden_dram::system::TrafficShare;
use eden_dram::OperatingPoint;

/// A system-level simulator: runs one DNN inference against DRAM at a given
/// operating point and reports time, traffic and energy.
pub trait SystemSim {
    /// Human-readable system name (used by the evaluation binaries' tables).
    fn name(&self) -> &str;

    /// Peak MAC throughput in MACs per nanosecond.
    fn macs_per_ns(&self) -> f64;

    /// Runs one inference of `workload` with DRAM at `op`.
    fn run(&self, workload: &WorkloadProfile, op: &OperatingPoint) -> SystemResult;

    /// Runs one inference with an idealized zero `tRCD` at nominal voltage
    /// (the "ideal activation latency" bar of Figure 14).
    fn run_ideal_latency(&self, workload: &WorkloadProfile) -> SystemResult;

    /// Fractional DRAM energy saving of running at a `vdd_reduction`-volt
    /// reduced rail versus nominal.
    fn energy_saving(&self, workload: &WorkloadProfile, vdd_reduction: f32) -> f64 {
        let nominal = self.run(workload, &OperatingPoint::nominal());
        self.run(workload, &OperatingPoint::with_vdd_reduction(vdd_reduction))
            .energy_reduction_vs(&nominal)
    }

    /// Speedup of running with `trcd_reduction_ns` shaved off `tRCD` versus
    /// nominal.
    fn trcd_speedup(&self, workload: &WorkloadProfile, trcd_reduction_ns: f32) -> f64 {
        let nominal = self.run(workload, &OperatingPoint::nominal());
        self.run(
            workload,
            &OperatingPoint::with_trcd_reduction(trcd_reduction_ns),
        )
        .speedup_over(&nominal)
    }

    /// Fractional DRAM energy saving of a multi-module placement: each
    /// [`TrafficShare`]'s bytes are served at its own reduced rail, so the
    /// saving is the bytes-weighted mean of the per-share savings. Empty or
    /// zero-byte shares save nothing.
    fn mixed_energy_saving(&self, workload: &WorkloadProfile, shares: &[TrafficShare]) -> f64 {
        let total: u64 = shares.iter().map(|s| s.bytes).sum();
        if total == 0 {
            return 0.0;
        }
        shares
            .iter()
            .filter(|s| s.bytes > 0)
            .map(|s| {
                let saving = if s.vdd_reduction > 0.0 {
                    self.energy_saving(workload, s.vdd_reduction)
                } else {
                    0.0
                };
                saving * s.bytes as f64 / total as f64
            })
            .sum()
    }

    /// Speedup of a multi-module placement: each share's accesses complete at
    /// its own `tRCD`, so the combined speedup is the bytes-weighted
    /// *harmonic* mean of the per-share speedups (time adds, rates do not).
    /// Empty or zero-byte shares leave the speedup at 1.
    fn mixed_trcd_speedup(&self, workload: &WorkloadProfile, shares: &[TrafficShare]) -> f64 {
        let total: u64 = shares.iter().map(|s| s.bytes).sum();
        if total == 0 {
            return 1.0;
        }
        let inverse: f64 = shares
            .iter()
            .filter(|s| s.bytes > 0)
            .map(|s| {
                let speedup = if s.trcd_reduction_ns > 0.0 {
                    self.trcd_speedup(workload, s.trcd_reduction_ns)
                } else {
                    1.0
                };
                (s.bytes as f64 / total as f64) / speedup
            })
            .sum();
        1.0 / inverse
    }
}

/// The four systolic-accelerator configurations of Table 6 (Section 7.2),
/// as a trait-object list — the single source of truth for "every
/// accelerator the paper evaluates".
pub fn accelerator_sims() -> Vec<Box<dyn SystemSim>> {
    [
        AcceleratorConfig::eyeriss_ddr4(),
        AcceleratorConfig::tpu_ddr4(),
        AcceleratorConfig::eyeriss_lpddr3(),
        AcceleratorConfig::tpu_lpddr3(),
    ]
    .into_iter()
    .map(|config| Box::new(AcceleratorSim::new(config)) as Box<dyn SystemSim>)
    .collect()
}

/// Every simulator of the paper's evaluation (Tables 4–6), as one
/// trait-object list: the Table 4 CPU, the Table 5 GPU, and the four
/// accelerator configurations.
pub fn standard_sims() -> Vec<Box<dyn SystemSim>> {
    let mut sims: Vec<Box<dyn SystemSim>> =
        vec![Box::new(CpuSim::table4()), Box::new(GpuSim::table5())];
    sims.extend(accelerator_sims());
    sims
}

/// DRAM cache-line traffic of one inference after cache filtering, shared by
/// the CPU and GPU models (the accelerator model adds SRAM tiling on top and
/// keeps its own accounting).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DramTraffic {
    pub read_bytes: f64,
    pub write_bytes: f64,
    pub reads: u64,
    pub writes: u64,
}

/// Computes the cache-filtered DRAM traffic: weights stream from DRAM (used
/// once per inference), while feature-map traffic is split between reads and
/// writes and filtered by the on-chip hit rate.
pub(crate) fn filtered_traffic(
    workload: &WorkloadProfile,
    feature_map_cache_hit_rate: f64,
) -> DramTraffic {
    let weight_bytes = workload.weight_bytes() as f64;
    let fm_bytes = workload.feature_map_bytes() as f64;
    let read_bytes = weight_bytes + fm_bytes * 0.5 * (1.0 - feature_map_cache_hit_rate);
    let write_bytes = fm_bytes * 0.5 * (1.0 - feature_map_cache_hit_rate);
    DramTraffic {
        read_bytes,
        write_bytes,
        reads: (read_bytes / 64.0).ceil() as u64,
        writes: (write_bytes / 64.0).ceil() as u64,
    }
}

/// Builds an operating point carrying only a voltage reduction (used for
/// energy accounting; timing is handled separately by each model).
pub(crate) fn voltage_only(vdd_reduction: f32) -> OperatingPoint {
    if vdd_reduction <= 0.0 {
        OperatingPoint::nominal()
    } else {
        OperatingPoint::with_vdd_reduction(vdd_reduction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_dnn::zoo::ModelId;
    use eden_tensor::Precision;

    #[test]
    fn every_standard_sim_upholds_the_shared_invariants() {
        let workload = WorkloadProfile::for_model(ModelId::AlexNet, Precision::Int8);
        for sim in standard_sims() {
            let nominal = sim.run(&workload, &OperatingPoint::nominal());
            assert!(nominal.time_ns > 0.0, "{}", sim.name());
            assert!(sim.macs_per_ns() > 0.0, "{}", sim.name());
            // Voltage reduction always saves DRAM energy without slowing
            // anything down.
            let saving = sim.energy_saving(&workload, 0.30);
            assert!(
                saving > 0.1 && saving < 0.5,
                "{}: saving {saving}",
                sim.name()
            );
            let reduced = sim.run(&workload, &OperatingPoint::with_vdd_reduction(0.30));
            assert!(
                (reduced.time_ns - nominal.time_ns).abs() < 1e-6,
                "{}",
                sim.name()
            );
            // tRCD reductions never hurt, and the ideal-latency run bounds
            // every achievable speedup.
            let speedup = sim.trcd_speedup(&workload, 5.5);
            let ideal = sim.run_ideal_latency(&workload).speedup_over(&nominal);
            assert!(speedup >= 1.0 - 1e-12, "{}: speedup {speedup}", sim.name());
            assert!(
                ideal >= speedup - 1e-12,
                "{}: ideal {ideal} < speedup {speedup}",
                sim.name()
            );
        }
    }

    #[test]
    fn mixed_costs_interpolate_between_pure_operating_points() {
        let workload = WorkloadProfile::for_model(ModelId::AlexNet, Precision::Int8);
        let sim = CpuSim::table4();
        // A single share holding all bytes degenerates to the pure helpers.
        let all = [TrafficShare {
            bytes: 1 << 20,
            vdd_reduction: 0.30,
            trcd_reduction_ns: 5.5,
        }];
        let pure_saving = sim.energy_saving(&workload, 0.30);
        let pure_speedup = sim.trcd_speedup(&workload, 5.5);
        assert!((sim.mixed_energy_saving(&workload, &all) - pure_saving).abs() < 1e-12);
        assert!((sim.mixed_trcd_speedup(&workload, &all) - pure_speedup).abs() < 1e-12);
        // A 50/50 split with nominal halves the saving and lands the
        // harmonic-mean speedup strictly between 1 and the pure speedup.
        let nominal = TrafficShare {
            bytes: 1 << 20,
            vdd_reduction: 0.0,
            trcd_reduction_ns: 0.0,
        };
        let split = [all[0], nominal];
        let mixed_saving = sim.mixed_energy_saving(&workload, &split);
        assert!((mixed_saving - pure_saving / 2.0).abs() < 1e-12);
        let mixed_speedup = sim.mixed_trcd_speedup(&workload, &split);
        assert!(mixed_speedup > 1.0 && mixed_speedup < pure_speedup);
        // All-nominal and empty placements are the identity.
        assert_eq!(sim.mixed_energy_saving(&workload, &[nominal]), 0.0);
        assert_eq!(sim.mixed_trcd_speedup(&workload, &[nominal]), 1.0);
        assert_eq!(sim.mixed_energy_saving(&workload, &[]), 0.0);
        assert_eq!(sim.mixed_trcd_speedup(&workload, &[]), 1.0);
    }

    #[test]
    fn standard_sims_have_distinct_names() {
        let sims = standard_sims();
        let mut names: Vec<&str> = sims.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), sims.len());
    }

    #[test]
    fn filtered_traffic_scales_with_hit_rate() {
        let workload = WorkloadProfile::for_model(ModelId::Vgg16, Precision::Int8);
        let cold = filtered_traffic(&workload, 0.0);
        let warm = filtered_traffic(&workload, 0.9);
        assert!(warm.read_bytes < cold.read_bytes);
        assert!(warm.write_bytes < cold.write_bytes);
        // Weights always stream from DRAM regardless of the hit rate.
        assert!(warm.read_bytes >= workload.weight_bytes() as f64);
        assert_eq!(cold.reads, (cold.read_bytes / 64.0).ceil() as u64);
    }
}
