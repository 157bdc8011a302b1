//! A simulated approximate DRAM device.
//!
//! The paper characterizes real DDR3/DDR4 modules through SoftMC on an FPGA
//! (Section 6.1). This reproduction substitutes a simulated device whose bit
//! flips have the same *statistics*: the overall BER follows the vendor's
//! voltage/latency curves (Figure 5), flips prefer the data-dependent
//! direction of the active mechanism, weak cells are stable across reads, and
//! weakness has mild spatial structure across bitlines and rows (the locality
//! Chang et al. and Lee et al. report, which the paper's Error Models 1 and 2
//! capture). See `DESIGN.md` for the substitution rationale.

use crate::error_model::{flip_threshold, WeakCellMap};
use crate::geometry::{DramGeometry, Partition};
use crate::params::OperatingPoint;
use crate::util::{seed_mix, unit_for};
use crate::vendor::{Vendor, VendorProfile};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Fraction of bitlines that are distinctly weaker than average.
const HOT_BITLINE_FRACTION: f64 = 0.06;
/// Weakness multiplier of a hot bitline.
const HOT_BITLINE_FACTOR: f64 = 2.5;
/// Fraction of rows that are distinctly weaker than average.
const HOT_ROW_FRACTION: f64 = 0.04;
/// Weakness multiplier of a hot row.
const HOT_ROW_FACTOR: f64 = 2.0;

/// A simulated approximate DRAM module of a particular vendor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ApproxDramDevice {
    geometry: DramGeometry,
    vendor: Vendor,
    profile: VendorProfile,
    seed: u64,
}

impl ApproxDramDevice {
    /// Creates a device of the given vendor with the default DDR4 geometry.
    pub fn new(vendor: Vendor, seed: u64) -> Self {
        Self::with_geometry(vendor, DramGeometry::ddr4_module(), seed)
    }

    /// Creates a device with an explicit geometry.
    pub fn with_geometry(vendor: Vendor, geometry: DramGeometry, seed: u64) -> Self {
        Self {
            geometry,
            vendor,
            profile: vendor.profile(),
            seed,
        }
    }

    /// The device vendor.
    pub fn vendor(&self) -> Vendor {
        self.vendor
    }

    /// The device geometry.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// The device seed (identifies this particular module's weak cells).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The vendor BER profile of the device.
    pub fn profile(&self) -> &VendorProfile {
        &self.profile
    }

    /// A stable 64-bit fingerprint of every field of the device: geometry,
    /// vendor, vendor profile and seed. Together with a partition and an
    /// operating point it determines the device's weak cells and failure
    /// probabilities (see [`crate::inject::Injector::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        let g = &self.geometry;
        let p = &self.profile;
        seed_mix(
            0xDE71_CE00,
            &[
                g.banks as u64,
                g.subarrays_per_bank as u64,
                g.rows_per_subarray as u64,
                g.row_bytes as u64,
                self.vendor as u64,
                p.vendor() as u64,
                p.weak_cell_flip_prob.to_bits(),
                p.voltage_one_bias.to_bits(),
                p.trcd_zero_bias.to_bits(),
                self.seed,
            ],
        )
    }

    /// Module-average BER at an operating point (50/50 data).
    pub fn expected_ber(&self, op: &OperatingPoint) -> f64 {
        self.profile.ber(op)
    }

    /// Weakness multiplier of a bitline.
    fn bitline_factor(&self, bank: u64, bitline: u64) -> f64 {
        if unit_for(self.seed ^ 0xB17, bank, bitline, 0) < HOT_BITLINE_FRACTION {
            HOT_BITLINE_FACTOR
        } else {
            (1.0 - HOT_BITLINE_FRACTION * HOT_BITLINE_FACTOR) / (1.0 - HOT_BITLINE_FRACTION)
        }
    }

    /// Weakness multiplier of a row.
    fn row_factor(&self, bank: u64, row: u64) -> f64 {
        if unit_for(self.seed ^ 0x40D, bank, row, 0) < HOT_ROW_FRACTION {
            HOT_ROW_FACTOR
        } else {
            (1.0 - HOT_ROW_FRACTION * HOT_ROW_FACTOR) / (1.0 - HOT_ROW_FRACTION)
        }
    }

    /// Probability that a cell of average spatial weakness is weak at `op`.
    fn base_weak_prob(&self, op: &OperatingPoint) -> f64 {
        self.expected_ber(op) / self.profile.weak_cell_flip_prob
    }

    /// [`ApproxDramDevice::is_weak`] with the operating point reduced to its
    /// base weak-cell probability and the row's factor precomputed.
    fn is_weak_cell(&self, bank: u64, row: u64, bitline: u64, base_p: f64, row_f: f64) -> bool {
        let p = (base_p * (self.bitline_factor(bank, bitline) * row_f)).min(1.0);
        unit_for(self.seed, bank.wrapping_mul(1 << 40) ^ row, bitline, 0xCE11) < p
    }

    /// Whether the cell at `(bank, row, bitline)` is weak at the given
    /// operating point. Weak sets are nested: a cell weak at a mild operating
    /// point stays weak at a more aggressive one.
    pub fn is_weak(&self, bank: u64, row: u64, bitline: u64, op: &OperatingPoint) -> bool {
        let row_f = self.row_factor(bank, row);
        self.is_weak_cell(bank, row, bitline, self.base_weak_prob(op), row_f)
    }

    /// Per-access failure probability of a weak cell storing `stored_one`
    /// at `op`: the vendor's weak-cell flip probability scaled by the ratio
    /// of the per-value BER to the average BER (the direction preference).
    pub fn weak_flip_prob(&self, op: &OperatingPoint, stored_one: bool) -> f64 {
        let avg = self.expected_ber(op).max(1e-18);
        let dir = self.profile.ber_for_stored(op, stored_one) / avg;
        (self.profile.weak_cell_flip_prob * dir).min(1.0)
    }

    /// The `[t_zero, t_one]` draw thresholds
    /// ([`crate::error_model::flip_threshold`]) of a weak cell storing a zero
    /// and a one at `op`.
    pub fn flip_thresholds(&self, op: &OperatingPoint) -> [u64; 2] {
        [false, true].map(|one| flip_threshold(self.weak_flip_prob(op, one)))
    }

    /// Reads one bit: returns `true` if the stored value is corrupted (flips)
    /// on this access.
    pub fn read_bit_flips(
        &self,
        bank: u64,
        row: u64,
        bitline: u64,
        stored_one: bool,
        op: &OperatingPoint,
        rng: &mut StdRng,
    ) -> bool {
        self.is_weak(bank, row, bitline, op)
            && rng.gen::<f64>() < self.weak_flip_prob(op, stored_one)
    }

    /// The weak cells of a `values × bits` tensor placed `row_offset` rows
    /// into `partition` and read at `op`, grouped by injection chunk (see
    /// [`WeakCellMap`]). Rows wrap modulo the partition size (mirroring
    /// [`crate::geometry::bit_address`]), so placements whose combined
    /// footprint exceeds the partition alias earlier rows.
    ///
    /// Whether a cell is weak depends only on its address and the operating
    /// point; only its failure probability depends on the stored bit
    /// ([`ApproxDramDevice::flip_thresholds`]). So the O(total bits) address
    /// scan runs once per placement and every read of it costs O(weak
    /// cells) ([`WeakCellMap::draw`]). A nominal operating point
    /// reads error-free and maps no cell.
    pub fn weak_map(
        &self,
        partition: &Partition,
        row_offset: u64,
        op: &OperatingPoint,
        values: usize,
        bits: u32,
    ) -> WeakCellMap {
        if op.is_nominal() {
            return WeakCellMap::empty(values, bits);
        }
        let base_p = self.base_weak_prob(op);
        let bank = partition.bank as u64;
        let row_bits = self.geometry.row_bits() as u64;
        let partition_rows = (partition.subarrays * self.geometry.rows_per_subarray) as u64;
        let base_row = (partition.first_subarray * self.geometry.rows_per_subarray) as u64;
        // Offsets arrive in ascending order, so the row (and its factor)
        // changes once per `row_bits` offsets.
        let mut cached_row: Option<(u64, f64)> = None;
        WeakCellMap::scan(values, bits, |offset| {
            let row = base_row + (row_offset + offset / row_bits) % partition_rows;
            let row_f = match cached_row {
                Some((r, f)) if r == row => f,
                _ => {
                    let f = self.row_factor(bank, row);
                    cached_row = Some((row, f));
                    f
                }
            };
            self.is_weak_cell(bank, row, offset % row_bits, base_p, row_f)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_model::{reference_scan, INJECT_CHUNK_VALUES};
    use crate::geometry::{partitions, PartitionGranularity};
    use eden_tensor::{Precision, QuantTensor, Tensor};
    use rand::SeedableRng;

    fn stored(n: usize) -> QuantTensor {
        let t = Tensor::from_vec(
            (0..n).map(|i| ((i * 7919) % 255) as f32 - 127.0).collect(),
            &[n],
        );
        QuantTensor::quantize(&t, Precision::Int8)
    }

    fn first_partition() -> Partition {
        partitions(&DramGeometry::ddr4_module(), PartitionGranularity::Bank)[0]
    }

    /// One read of `tensor` placed at the start of the first partition.
    fn read(
        dev: &ApproxDramDevice,
        tensor: &mut QuantTensor,
        op: &OperatingPoint,
        seed: u64,
    ) -> u64 {
        let map = dev.weak_map(
            &first_partition(),
            0,
            op,
            tensor.len(),
            tensor.bits_per_value(),
        );
        map.draw(tensor.stored_mut(), seed, dev.flip_thresholds(op))
    }

    #[test]
    fn nominal_reads_are_error_free() {
        let dev = ApproxDramDevice::new(Vendor::A, 1);
        let clean = stored(4096);
        let mut t = clean.clone();
        let seed = StdRng::seed_from_u64(0).gen();
        let flips = read(&dev, &mut t, &OperatingPoint::nominal(), seed);
        assert_eq!(flips, 0);
        assert_eq!(t, clean);
    }

    #[test]
    fn mapped_reads_match_the_reference_scan() {
        // The mapped in-place read and the mapped overlay must reproduce the
        // reference scan bit for bit — flips, count and RNG order —
        // at nominal, voltage- and tRCD-reduced operating points (tRCD
        // reduction flips 0→1 preferentially, voltage reduction 1→0), on two
        // partitions, at row offsets that wrap the partition, for every
        // precision and for tensors spanning several injection chunks.
        let geometry = DramGeometry {
            banks: 2,
            subarrays_per_bank: 4,
            rows_per_subarray: 16,
            row_bytes: 64,
        };
        let parts = partitions(&geometry, PartitionGranularity::Bank);
        let ops = [
            OperatingPoint::nominal(),
            OperatingPoint::with_vdd_reduction(0.30),
            OperatingPoint::with_trcd_reduction(5.5),
        ];
        let mut flipped = 0;
        for (vendor, seed) in [(Vendor::A, 7), (Vendor::B, 8)] {
            let dev = ApproxDramDevice::with_geometry(vendor, geometry, seed);
            for part in &parts {
                for op in &ops {
                    for (n, precision, row_offset) in [
                        (3 * INJECT_CHUNK_VALUES + 17, Precision::Int8, 3),
                        (INJECT_CHUNK_VALUES + 5, Precision::Int16, 61),
                        (999, Precision::Int4, 0),
                        (700, Precision::Fp32, 200),
                    ] {
                        let t = Tensor::from_vec(
                            (0..n).map(|i| (i as f32 * 0.37).sin() * 3.0).collect(),
                            &[n],
                        );
                        let clean = QuantTensor::quantize(&t, precision);
                        // The reference read tests every bit with
                        // `read_bit_flips`; a nominal read is error-free.
                        let mut scanned = clean.clone();
                        let scan_flips = if op.is_nominal() {
                            0
                        } else {
                            let g = dev.geometry();
                            let row_bits = g.row_bits() as u64;
                            let rows = (part.subarrays * g.rows_per_subarray) as u64;
                            let base_row = (part.first_subarray * g.rows_per_subarray) as u64;
                            let bank = part.bank as u64;
                            let words = scanned.stored_mut();
                            reference_scan(words, precision.bits(), 5, |offset, one, rng| {
                                let row = base_row + (row_offset + offset / row_bits) % rows;
                                dev.read_bit_flips(bank, row, offset % row_bits, one, op, rng)
                            })
                        };
                        let map = dev.weak_map(part, row_offset, op, n, precision.bits());
                        let thresholds = dev.flip_thresholds(op);
                        let mut mapped = clean.clone();
                        let map_flips = map.draw(mapped.stored_mut(), 5, thresholds);
                        let case = format!("{vendor} {op:?} {precision} n={n} row={row_offset}");
                        assert_eq!(map_flips, scan_flips, "{case}: flip count");
                        assert_eq!(mapped, scanned, "{case}: flip pattern");
                        let overlay = map.draw_overlay(clean.stored(), 5, thresholds);
                        assert_eq!(overlay.bit_flips(), scan_flips, "{case}: overlay flips");
                        let mut patched = clean.clone();
                        overlay.apply(&mut patched);
                        assert_eq!(patched, scanned, "{case}: overlay pattern");
                        if op.is_nominal() {
                            assert!(map.is_empty(), "{case}: nominal reads map no cell");
                        }
                        flipped += (scan_flips > 0) as usize;
                    }
                }
            }
        }
        // Every reduced point on every partition and precision flips bits.
        assert_eq!(flipped, 2 * 2 * 2 * 4);
    }

    #[test]
    fn observed_ber_tracks_vendor_curve() {
        let dev = ApproxDramDevice::new(Vendor::A, 2);
        let op = OperatingPoint::with_vdd_reduction(0.30);
        let clean = stored(40_000);
        let mut t = clean.clone();
        let flips = read(&dev, &mut t, &op, StdRng::seed_from_u64(1).gen());
        let observed = flips as f64 / clean.total_bits() as f64;
        let expected = dev.expected_ber(&op);
        assert!(
            (observed - expected).abs() / expected < 0.4,
            "observed {observed:.4} vs expected {expected:.4}"
        );
    }

    #[test]
    fn more_aggressive_operating_points_cause_more_errors() {
        let dev = ApproxDramDevice::new(Vendor::A, 3);
        let count = |dv: f32| {
            let mut t = stored(20_000);
            let seed = StdRng::seed_from_u64(7).gen();
            read(&dev, &mut t, &OperatingPoint::with_vdd_reduction(dv), seed)
        };
        assert!(count(0.35) > count(0.25));
        assert!(count(0.25) > count(0.10));
    }

    #[test]
    fn weak_cells_are_nested_across_operating_points() {
        let dev = ApproxDramDevice::new(Vendor::B, 4);
        let mild = OperatingPoint::with_vdd_reduction(0.20);
        let aggressive = OperatingPoint::with_vdd_reduction(0.35);
        let mut nested = true;
        for row in 0..64u64 {
            for bl in 0..256u64 {
                if dev.is_weak(0, row, bl, &mild) && !dev.is_weak(0, row, bl, &aggressive) {
                    nested = false;
                }
            }
        }
        assert!(
            nested,
            "cells weak at a mild point must stay weak at an aggressive one"
        );
    }

    #[test]
    fn different_devices_have_different_weak_cells() {
        let a = ApproxDramDevice::new(Vendor::A, 10);
        let b = ApproxDramDevice::new(Vendor::A, 11);
        let op = OperatingPoint::with_vdd_reduction(0.30);
        let weak_map = |d: &ApproxDramDevice| {
            (0..64u64)
                .flat_map(|r| (0..64u64).map(move |c| (r, c)))
                .filter(|&(r, c)| d.is_weak(0, r, c, &op))
                .count()
        };
        // Similar counts, but different positions — compare via symmetric difference.
        let mut differing = 0;
        for r in 0..64u64 {
            for c in 0..64u64 {
                if a.is_weak(0, r, c, &op) != b.is_weak(0, r, c, &op) {
                    differing += 1;
                }
            }
        }
        assert!(differing > 0);
        assert!(weak_map(&a) > 0 && weak_map(&b) > 0);
    }

    #[test]
    fn injector_fingerprints_cover_every_map_input() {
        // Sessions share weak maps across memories by injector fingerprint,
        // so any input of the map or the failure probabilities — device
        // seed, vendor, vendor profile, partition, operating point — must
        // change it.
        use crate::inject::Injector;
        let dev = ApproxDramDevice::new(Vendor::A, 10);
        let parts = partitions(&DramGeometry::ddr4_module(), PartitionGranularity::Bank);
        let op = OperatingPoint::with_vdd_reduction(0.30);
        let fp = |d: ApproxDramDevice, p: Partition, o: OperatingPoint| {
            Injector::from_device(d, p, o).fingerprint()
        };
        let base = fp(dev, parts[0], op);
        assert_eq!(base, fp(ApproxDramDevice::new(Vendor::A, 10), parts[0], op));
        let mut leakier = dev;
        leakier.profile.weak_cell_flip_prob = 0.5;
        let mut biased = dev;
        biased.profile.voltage_one_bias = 2.0;
        for (what, other) in [
            (
                "seed",
                fp(ApproxDramDevice::new(Vendor::A, 11), parts[0], op),
            ),
            (
                "vendor",
                fp(ApproxDramDevice::new(Vendor::B, 10), parts[0], op),
            ),
            ("profile flip prob", fp(leakier, parts[0], op)),
            ("profile bias", fp(biased, parts[0], op)),
            ("partition", fp(dev, parts[1], op)),
            (
                "vdd",
                fp(dev, parts[0], OperatingPoint::with_vdd_reduction(0.25)),
            ),
            (
                "tRCD",
                fp(dev, parts[0], OperatingPoint::with_trcd_reduction(3.0)),
            ),
        ] {
            assert_ne!(base, other, "{what} must change the fingerprint");
        }
    }

    #[test]
    fn pattern_rows_show_data_dependence() {
        // Under voltage scaling all-ones rows fail more than all-zeros rows.
        let dev = ApproxDramDevice::new(Vendor::A, 5);
        let op = OperatingPoint::with_vdd_reduction(0.35);
        let mut rng = StdRng::seed_from_u64(3);
        // Reads a row written with a repeating byte `pattern`, counting the
        // bitlines whose value flipped.
        let mut read_row = |row: u64, pattern: u8| {
            (0..dev.geometry().row_bits() as u64)
                .filter(|&bl| {
                    let stored_one = (pattern >> (bl % 8)) & 1 == 1;
                    dev.read_bit_flips(0, row, bl, stored_one, &op, &mut rng)
                })
                .count()
        };
        let mut ones = 0usize;
        let mut zeros = 0usize;
        for row in 0..32 {
            ones += read_row(row, 0xFF);
            zeros += read_row(row, 0x00);
        }
        assert!(
            ones > zeros,
            "0xFF flips ({ones}) should exceed 0x00 flips ({zeros})"
        );
    }

    #[test]
    fn vendor_b_is_leakier_than_vendor_c() {
        let op = OperatingPoint::with_vdd_reduction(0.25);
        let flips = |v: Vendor| {
            let dev = ApproxDramDevice::new(v, 6);
            let mut t = stored(20_000);
            read(&dev, &mut t, &op, StdRng::seed_from_u64(9).gen())
        };
        assert!(flips(Vendor::B) > flips(Vendor::C));
    }
}
