//! Multi-module memory systems.
//!
//! EDEN's fine-grained mapping (Section 3.4, Figure 12) generalizes beyond a
//! single DRAM module: a real deployment has several modules/channels, each
//! with its own vendor error behaviour, geometry and independently tunable
//! (VDD, tRCD) operating point per partition. [`DramModule`] is one
//! characterized device together with its partitions, candidate operating
//! points and measured per-partition BER table (the "DRAM Error Profile" of
//! Figure 4); [`MemorySystem`] composes several modules and addresses their
//! partitions through flat `(module, partition)` slots. [`TrafficShare`] is
//! the per-slot traffic a placement over the system puts on DRAM, the unit
//! both the mapping search and the system simulators score.

use crate::characterize::{characterize_rows, CharacterizeConfig};
use crate::device::ApproxDramDevice;
use crate::geometry::Partition;
use crate::params::OperatingPoint;
use serde::{Deserialize, Serialize};

/// One DRAM module of a [`MemorySystem`]: a characterized approximate device
/// plus the partitions and candidate operating points mapping may use, and
/// the bit error rate measured for every pair of them.
///
/// The device itself is retained so placement can read real (seeded,
/// reproducible) corruption for any partition at any of the module's
/// operating points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramModule {
    device: ApproxDramDevice,
    /// The module's partitions.
    pub partitions: Vec<Partition>,
    /// Candidate operating points (same order as the inner BER vectors).
    pub operating_points: Vec<OperatingPoint>,
    /// `ber[partition][op]` — measured BER of each partition at each point.
    pub ber: Vec<Vec<f64>>,
}

impl DramModule {
    /// Characterizes `partitions` of `device` at each of `operating_points`
    /// and bundles the measured BER table into a module.
    pub fn characterize(
        device: ApproxDramDevice,
        partitions: &[Partition],
        operating_points: &[OperatingPoint],
        cfg: &CharacterizeConfig,
    ) -> Self {
        let ber = partitions
            .iter()
            .map(|p| {
                let base_row = (p.first_subarray * device.geometry().rows_per_subarray) as u64;
                operating_points
                    .iter()
                    .map(|op| {
                        characterize_rows(&device, p.bank as u64, base_row, op, cfg).observed_ber()
                    })
                    .collect()
            })
            .collect();
        Self {
            device,
            partitions: partitions.to_vec(),
            operating_points: operating_points.to_vec(),
            ber,
        }
    }

    /// The underlying approximate device.
    pub fn device(&self) -> &ApproxDramDevice {
        &self.device
    }
}

/// One slice of DRAM traffic resident on memory running at its own operating
/// point: the bytes a placement puts in one `(module, partition)` slot plus
/// the reductions of that slot's operating point. A plan cost model scores a
/// list of these; the system simulators turn them into mixed energy and
/// latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficShare {
    /// Bytes of DNN data resident in the share.
    pub bytes: u64,
    /// Voltage reduction of the share's operating point (volts).
    pub vdd_reduction: f32,
    /// `tRCD` reduction of the share's operating point (nanoseconds).
    pub trcd_reduction_ns: f32,
}

/// A memory system of one or more [`DramModule`]s.
///
/// Partitions across the whole system are addressed by `(module, partition)`
/// pairs — "slots" — enumerated in deterministic module-major order by
/// [`MemorySystem::slots`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemorySystem {
    modules: Vec<DramModule>,
}

impl MemorySystem {
    /// Builds a system from its modules.
    ///
    /// # Panics
    ///
    /// Panics if `modules` is empty.
    pub fn new(modules: Vec<DramModule>) -> Self {
        assert!(
            !modules.is_empty(),
            "a memory system needs at least one module"
        );
        Self { modules }
    }

    /// The system's modules.
    pub fn modules(&self) -> &[DramModule] {
        &self.modules
    }

    /// Module `m`.
    pub fn module(&self, m: usize) -> &DramModule {
        &self.modules[m]
    }

    /// All `(module, partition)` slots in module-major order — the canonical
    /// iteration order every deterministic search over the system uses.
    pub fn slots(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.modules
            .iter()
            .enumerate()
            .flat_map(|(m, module)| (0..module.partitions.len()).map(move |p| (m, p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{partitions, PartitionGranularity};
    use crate::vendor::Vendor;

    fn tiny_cfg() -> CharacterizeConfig {
        CharacterizeConfig {
            rows_per_pattern: 1,
            bitlines_per_row: 128,
            reads_per_row: 1,
            seed: 5,
        }
    }

    /// A module over the first `banks` bank partitions of a fresh device.
    fn bank_module(vendor: Vendor, seed: u64, banks: usize, ops: &[OperatingPoint]) -> DramModule {
        let device = ApproxDramDevice::new(vendor, seed);
        let parts = partitions(device.geometry(), PartitionGranularity::Bank);
        DramModule::characterize(device, &parts[..banks], ops, &tiny_cfg())
    }

    fn two_module_system() -> MemorySystem {
        let ops_a = vec![
            OperatingPoint::nominal(),
            OperatingPoint::with_vdd_reduction(0.20),
        ];
        let ops_b = vec![
            OperatingPoint::nominal(),
            OperatingPoint::with_trcd_reduction(4.0),
        ];
        MemorySystem::new(vec![
            bank_module(Vendor::A, 11, 2, &ops_a),
            bank_module(Vendor::B, 12, 3, &ops_b),
        ])
    }

    #[test]
    fn slots_enumerate_module_major() {
        let sys = two_module_system();
        let slots: Vec<_> = sys.slots().collect();
        assert_eq!(slots, vec![(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]);
    }

    #[test]
    fn modules_keep_their_own_vendors_and_profiles() {
        let sys = two_module_system();
        assert_eq!(sys.module(0).device().vendor(), Vendor::A);
        assert_eq!(sys.module(1).device().vendor(), Vendor::B);
        assert_eq!(sys.module(0).operating_points.len(), 2);
        // Reduced points produce strictly more errors than nominal on every
        // partition of both modules.
        for module in sys.modules() {
            for row in &module.ber {
                assert_eq!(row[0], 0.0, "nominal point must be error-free");
                assert!(row[1] > 0.0, "reduced point must show errors");
            }
        }
    }

    #[test]
    #[should_panic]
    fn empty_system_rejected() {
        MemorySystem::new(Vec::new());
    }
}
