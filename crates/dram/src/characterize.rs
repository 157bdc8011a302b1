//! Experimental DRAM characterization (Sections 3.4 and 6.2).
//!
//! EDEN obtains the BER characteristics of a device (in aggregate and per
//! partition) by writing known data patterns into rows, reading them back
//! with reduced parameters several times, and recording which cells flipped.
//! The records feed the error-model fitting of [`crate::fit`] and the
//! per-partition BER table of a [`DramModule`](crate::system::DramModule),
//! which DNN→DRAM mapping reads.

use crate::device::ApproxDramDevice;
use crate::params::OperatingPoint;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// The data patterns used by the characterization sweep (Figure 5).
pub const DATA_PATTERNS: [u8; 4] = [0xFF, 0xCC, 0xAA, 0x00];

/// Configuration of a characterization run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CharacterizeConfig {
    /// Rows written per data pattern (each is also written inverted, per the
    /// paper's two-consecutive-rows methodology).
    pub rows_per_pattern: usize,
    /// How many bitlines of each row to test (testing a full 16 Kbit row for
    /// every operating point is unnecessary for stable estimates).
    pub bitlines_per_row: usize,
    /// Repeated reads of each row (weak cells fail probabilistically, so
    /// repeated reads separate the weak-cell fraction `P` from the weak-cell
    /// failure probability `F`).
    pub reads_per_row: usize,
    /// RNG seed for the read process.
    pub seed: u64,
}

impl Default for CharacterizeConfig {
    fn default() -> Self {
        Self {
            rows_per_pattern: 2,
            bitlines_per_row: 2048,
            reads_per_row: 4,
            seed: 0,
        }
    }
}

/// Observations for one cell across repeated reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellRecord {
    /// Row the cell belongs to.
    pub row: u64,
    /// Bitline the cell sits on.
    pub bitline: u64,
    /// The value stored in the cell during the test.
    pub stored_one: bool,
    /// How many of the reads returned a flipped value.
    pub flips: u32,
    /// How many reads were performed.
    pub reads: u32,
}

/// The result of characterizing one bank (or partition) at one operating
/// point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CharacterizationResult {
    /// Operating point under test.
    pub op: OperatingPoint,
    /// Per-cell observations.
    pub cells: Vec<CellRecord>,
}

impl CharacterizationResult {
    /// Total number of single-bit read observations.
    pub fn total_reads(&self) -> u64 {
        self.cells.iter().map(|c| c.reads as u64).sum()
    }

    /// Total number of observed bit flips.
    pub fn total_flips(&self) -> u64 {
        self.cells.iter().map(|c| c.flips as u64).sum()
    }

    /// Observed bit error rate (flips per read bit).
    pub fn observed_ber(&self) -> f64 {
        let reads = self.total_reads();
        if reads == 0 {
            return 0.0;
        }
        self.total_flips() as f64 / reads as f64
    }

    /// Observed BER restricted to cells storing the given value.
    pub fn ber_for_stored(&self, stored_one: bool) -> f64 {
        let (flips, reads) = self
            .cells
            .iter()
            .filter(|c| c.stored_one == stored_one)
            .fold((0u64, 0u64), |(f, r), c| {
                (f + c.flips as u64, r + c.reads as u64)
            });
        if reads == 0 {
            0.0
        } else {
            flips as f64 / reads as f64
        }
    }

    /// Number of distinct cells that flipped at least once (the empirical
    /// weak-cell set).
    pub fn weak_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.flips > 0).count()
    }

    /// Total flips per bitline index.
    pub fn flips_per_bitline(&self) -> Vec<(u64, u64)> {
        aggregate(self.cells.iter().map(|c| (c.bitline, c.flips as u64)))
    }

    /// Total flips per row index.
    pub fn flips_per_row(&self) -> Vec<(u64, u64)> {
        aggregate(self.cells.iter().map(|c| (c.row, c.flips as u64)))
    }
}

fn aggregate(items: impl Iterator<Item = (u64, u64)>) -> Vec<(u64, u64)> {
    let mut map = std::collections::BTreeMap::new();
    for (key, value) in items {
        *map.entry(key).or_insert(0u64) += value;
    }
    map.into_iter().collect()
}

/// Characterizes one bank of a device at one operating point.
pub fn characterize_bank(
    device: &ApproxDramDevice,
    bank: u64,
    op: &OperatingPoint,
    cfg: &CharacterizeConfig,
) -> CharacterizationResult {
    characterize_rows(device, bank, 0, op, cfg)
}

/// Characterizes rows starting at `base_row` of `bank` (used to characterize
/// individual partitions).
pub fn characterize_rows(
    device: &ApproxDramDevice,
    bank: u64,
    base_row: u64,
    op: &OperatingPoint,
    cfg: &CharacterizeConfig,
) -> CharacterizationResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ bank.rotate_left(17) ^ base_row);
    let bitlines = cfg.bitlines_per_row.min(device.geometry().row_bits());
    let mut cells = Vec::new();
    let mut row = base_row;
    for &pattern in &DATA_PATTERNS {
        // The paper populates two consecutive rows with inverted data
        // patterns for worst-case evaluation.
        for row_pattern in [pattern, !pattern] {
            for _ in 0..cfg.rows_per_pattern {
                let mut flips = vec![0u32; bitlines];
                for _ in 0..cfg.reads_per_row {
                    for (bitline, flip_count) in flips.iter_mut().enumerate() {
                        let stored_one = (row_pattern >> (bitline % 8)) & 1 == 1;
                        if device.read_bit_flips(
                            bank,
                            row,
                            bitline as u64,
                            stored_one,
                            op,
                            &mut rng,
                        ) {
                            *flip_count += 1;
                        }
                    }
                }
                for (bitline, &flip_count) in flips.iter().enumerate() {
                    cells.push(CellRecord {
                        row,
                        bitline: bitline as u64,
                        stored_one: (row_pattern >> (bitline % 8)) & 1 == 1,
                        flips: flip_count,
                        reads: cfg.reads_per_row as u32,
                    });
                }
                row += 1;
            }
        }
    }
    CharacterizationResult { op: *op, cells }
}

/// Measures the BER of one data pattern at one operating point (the quantity
/// plotted in Figure 5).
pub fn measured_pattern_ber(
    device: &ApproxDramDevice,
    pattern: u8,
    op: &OperatingPoint,
    cfg: &CharacterizeConfig,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ pattern as u64);
    let bitlines = cfg.bitlines_per_row.min(device.geometry().row_bits());
    let mut flips = 0u64;
    let mut reads = 0u64;
    for row in 0..(cfg.rows_per_pattern as u64 * 2) {
        for _ in 0..cfg.reads_per_row {
            for bitline in 0..bitlines {
                let stored_one = (pattern >> (bitline % 8)) & 1 == 1;
                if device.read_bit_flips(0, row, bitline as u64, stored_one, op, &mut rng) {
                    flips += 1;
                }
                reads += 1;
            }
        }
    }
    flips as f64 / reads.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{partitions, DramGeometry, PartitionGranularity};
    use crate::system::DramModule;
    use crate::vendor::Vendor;

    fn small_cfg() -> CharacterizeConfig {
        CharacterizeConfig {
            rows_per_pattern: 1,
            bitlines_per_row: 512,
            reads_per_row: 3,
            seed: 1,
        }
    }

    #[test]
    fn characterization_ber_tracks_device_expectation() {
        let dev = ApproxDramDevice::new(Vendor::A, 7);
        let op = OperatingPoint::with_vdd_reduction(0.30);
        let result = characterize_bank(&dev, 0, &op, &small_cfg());
        let observed = result.observed_ber();
        let expected = dev.expected_ber(&op);
        assert!(
            (observed - expected).abs() / expected < 0.5,
            "observed {observed} vs expected {expected}"
        );
        assert!(result.weak_cells() > 0);
        assert_eq!(result.total_reads(), result.cells.len() as u64 * 3);
    }

    #[test]
    fn nominal_characterization_sees_no_errors() {
        let dev = ApproxDramDevice::new(Vendor::C, 3);
        let result = characterize_bank(&dev, 0, &OperatingPoint::nominal(), &small_cfg());
        assert_eq!(result.total_flips(), 0);
        assert_eq!(result.observed_ber(), 0.0);
    }

    #[test]
    fn pattern_dependence_is_observable() {
        let dev = ApproxDramDevice::new(Vendor::A, 9);
        let op = OperatingPoint::with_vdd_reduction(0.35);
        let cfg = small_cfg();
        let ones = measured_pattern_ber(&dev, 0xFF, &op, &cfg);
        let zeros = measured_pattern_ber(&dev, 0x00, &op, &cfg);
        assert!(
            ones > zeros,
            "voltage scaling: 0xFF ({ones}) should exceed 0x00 ({zeros})"
        );
    }

    #[test]
    fn stored_value_split_covers_all_cells() {
        let dev = ApproxDramDevice::new(Vendor::B, 2);
        let op = OperatingPoint::with_trcd_reduction(5.0);
        let result = characterize_bank(&dev, 1, &op, &small_cfg());
        let ones = result.cells.iter().filter(|c| c.stored_one).count();
        let zeros = result.cells.len() - ones;
        // The pattern set {0xFF, 0xCC, 0xAA, 0x00} plus inverses is balanced.
        assert_eq!(ones, zeros);
        // tRCD scaling prefers 0→1 flips.
        assert!(result.ber_for_stored(false) > result.ber_for_stored(true));
    }

    #[test]
    fn profile_covers_partitions_and_points() {
        let dev = ApproxDramDevice::new(Vendor::A, 4);
        let parts = partitions(&DramGeometry::ddr4_module(), PartitionGranularity::Bank);
        let ops = vec![
            OperatingPoint::nominal(),
            OperatingPoint::with_vdd_reduction(0.25),
            OperatingPoint::with_vdd_reduction(0.35),
        ];
        let module = DramModule::characterize(dev, &parts[..4], &ops, &small_cfg());
        assert_eq!(module.partitions.len(), 4);
        assert_eq!(module.ber.len(), 4);
        assert_eq!(module.ber[0].len(), 3);
        // BER grows with the aggressiveness of the operating point.
        for row in &module.ber {
            assert!(row[0] <= row[1]);
            assert!(row[1] <= row[2]);
        }
    }

    #[test]
    fn partitions_differ_due_to_spatial_variation() {
        let dev = ApproxDramDevice::new(Vendor::A, 11);
        let parts = partitions(&DramGeometry::ddr4_module(), PartitionGranularity::Bank);
        let ops = vec![OperatingPoint::with_vdd_reduction(0.30)];
        let module = DramModule::characterize(dev, &parts[..6], &ops, &small_cfg());
        let bers: Vec<f64> = module.ber.iter().map(|row| row[0]).collect();
        let min = bers.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = bers.iter().cloned().fold(0.0, f64::max);
        assert!(max > min, "partition BERs should not all be identical");
    }
}
