//! Error injection sources shared by retraining and inference.
//!
//! An [`Injector`] corrupts stored tensors either through a fitted
//! probabilistic [`ErrorModel`] (the fast path used for EDEN "offloading",
//! Section 4) or through the simulated [`ApproxDramDevice`] itself (the
//! "real device" path used for validation, Section 6.2). Both sources draw
//! through the same [`WeakCellMap`] kernel: a placement's weak cells are
//! mapped once ([`Injector::weak_map`]) and every load costs O(weak cells). An
//! [`AddressAllocator`] hands out non-overlapping DRAM placements so that
//! different DNN data types occupy different rows, as they would in a real
//! module.

use crate::device::ApproxDramDevice;
use crate::error_model::{ErrorModel, Layout, WeakCellMap};
use crate::geometry::Partition;
use crate::params::OperatingPoint;
use crate::util::seed_mix;
use eden_tensor::{CorruptionOverlay, QuantTensor};

/// Where injected errors come from.
#[derive(Debug, Clone)]
pub enum Injector {
    /// A probabilistic error model (Error Models 0–3).
    Model(ErrorModel),
    /// The simulated approximate DRAM device read at a given operating point.
    Device {
        /// The device.
        device: ApproxDramDevice,
        /// Partition holding the data.
        partition: Partition,
        /// Operating point of the partition.
        op: OperatingPoint,
    },
}

impl Injector {
    /// Creates an injector backed by an error model.
    pub fn from_model(model: ErrorModel) -> Self {
        Injector::Model(model)
    }

    /// Creates an injector backed by the simulated device.
    pub fn from_device(device: ApproxDramDevice, partition: Partition, op: OperatingPoint) -> Self {
        Injector::Device {
            device,
            partition,
            op,
        }
    }

    /// Expected bit error rate of this injector.
    pub fn expected_ber(&self) -> f64 {
        match self {
            Injector::Model(model) => model.expected_ber(),
            Injector::Device { device, op, .. } => device.expected_ber(op),
        }
    }

    /// Whether this injector can be proven never to flip a bit.
    ///
    /// An expected BER of exactly 0 implies a weak-cell probability of 0
    /// under every error source: a rescaled model draws no weak cells, and a
    /// device whose vendor curve reports 0 for the operating point marks no
    /// cell weak (`base_p = 0` ⇒ every spatially-scaled probability is 0).
    /// Such an injector is an exact no-op on every load — the property the
    /// incremental-evaluation layer uses to decide that a data site cannot
    /// dirty the forward pass. The converse does not hold: a *negligible*
    /// but nonzero BER is treated as dirty.
    pub fn is_provably_clean(&self) -> bool {
        self.expected_ber() == 0.0
    }

    /// A stable 64-bit fingerprint of everything that determines this
    /// injector's *placed* draws: the error model's parameters, or the
    /// device ([`ApproxDramDevice::fingerprint`]), partition and operating
    /// point.
    ///
    /// A [`WeakCellMap`] is a pure function of `(fingerprint, placement,
    /// tensor geometry)`, which is how evaluation sessions share maps
    /// across memories and probes.
    pub fn fingerprint(&self) -> u64 {
        match self {
            Injector::Model(model) => seed_mix(0x5E55_10F1, &[0, model.fingerprint()]),
            Injector::Device {
                device,
                partition,
                op,
            } => seed_mix(
                0x5E55_10F1,
                &[
                    1,
                    device.fingerprint(),
                    partition.bank as u64,
                    partition.first_subarray as u64,
                    partition.subarrays as u64,
                    op.vdd.to_bits() as u64,
                    op.timing.trcd_ns.to_bits() as u64,
                ],
            ),
        }
    }

    /// The weak cells of a `values × bits` tensor placed according to
    /// `layout`. A model injector uses the layout directly; a device
    /// injector places the tensor `layout.base_row` rows into its partition.
    /// This is what lets an allocator give each DNN data type its own DRAM
    /// rows under either error source. Placements are disjoint as long as
    /// the combined footprint fits the partition; past its capacity, device
    /// rows wrap modulo the partition and later sites alias earlier ones,
    /// exactly as physical re-use of the partition would.
    pub fn weak_map(&self, values: usize, bits: u32, layout: &Layout) -> WeakCellMap {
        match self {
            Injector::Model(model) => model.weak_map(values, bits, layout),
            Injector::Device {
                device,
                partition,
                op,
            } => device.weak_map(partition, layout.base_row as u64, op, values, bits),
        }
    }

    /// The `[t_zero, t_one]` draw thresholds of a weak cell storing a zero
    /// and a one (see [`crate::error_model::flip_threshold`]).
    pub fn flip_thresholds(&self) -> [u64; 2] {
        match self {
            Injector::Model(model) => model.flip_thresholds(),
            Injector::Device { device, op, .. } => device.flip_thresholds(op),
        }
    }

    /// One load of a placement through its precomputed [`WeakCellMap`]
    /// ([`Injector::weak_map`]): corrupts `tensor` in place at O(weak
    /// cells) and returns the number of flipped bits.
    ///
    /// Every per-access failure is drawn from RNG streams derived from
    /// `stream_seed` alone, never from a shared RNG: the flip set is a pure
    /// function of `(injector, placement, stored bits, stream_seed)`, so
    /// concurrent loads of different tensors cannot perturb each other and
    /// the result is the same on any thread.
    ///
    /// # Panics
    ///
    /// Panics if `map` was computed for a different tensor geometry.
    pub fn corrupt_mapped(
        &self,
        tensor: &mut QuantTensor,
        stream_seed: u64,
        map: &WeakCellMap,
    ) -> u64 {
        assert_eq!(
            map.bits_per_value(),
            tensor.bits_per_value(),
            "weak map geometry (bits)"
        );
        map.draw(tensor.stored_mut(), stream_seed, self.flip_thresholds())
    }

    /// The sparse-overlay form of [`Injector::corrupt_mapped`]: the
    /// [`CorruptionOverlay`] the load would produce on `clean` instead of
    /// mutating it, with identical RNG stream consumption (applying the
    /// overlay to `clean` is bit-identical to corrupting it). O(weak cells)
    /// to produce, O(flips) to apply and revert — for model- and
    /// device-backed injectors alike.
    ///
    /// # Panics
    ///
    /// Panics if `map` was computed for a different tensor geometry.
    pub fn overlay_mapped(
        &self,
        clean: &QuantTensor,
        stream_seed: u64,
        map: &WeakCellMap,
    ) -> CorruptionOverlay {
        assert_eq!(
            map.bits_per_value(),
            clean.bits_per_value(),
            "weak map geometry (bits)"
        );
        map.draw_overlay(clean.stored(), stream_seed, self.flip_thresholds())
    }
}

/// Allocates consecutive, non-overlapping row ranges for DNN data types.
#[derive(Debug, Clone)]
pub struct AddressAllocator {
    row_bits: usize,
    next_row: usize,
}

impl AddressAllocator {
    /// Creates an allocator for rows of `row_bits` bits each.
    pub fn new(row_bits: usize) -> Self {
        Self {
            row_bits,
            next_row: 0,
        }
    }

    /// Allocates rows for a tensor of `total_bits` bits and returns the
    /// layout describing its placement.
    pub fn allocate(&mut self, total_bits: u64) -> Layout {
        let layout = Layout::new(self.row_bits, self.next_row);
        let rows = (total_bits as usize).div_ceil(self.row_bits).max(1);
        self.next_row += rows;
        layout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{partitions, DramGeometry, PartitionGranularity};
    use crate::vendor::Vendor;
    use eden_tensor::{Precision, Tensor};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn stored(n: usize) -> QuantTensor {
        QuantTensor::quantize(
            &Tensor::from_vec((0..n).map(|i| (i as f32 * 0.3).cos()).collect(), &[n]),
            Precision::Int8,
        )
    }

    /// One load of `tensor` at the injector's default placement.
    fn load(inj: &Injector, tensor: &mut QuantTensor, stream_seed: u64) -> u64 {
        let map = inj.weak_map(tensor.len(), tensor.bits_per_value(), &Layout::default());
        inj.corrupt_mapped(tensor, stream_seed, &map)
    }

    #[test]
    fn model_injector_corrupts_at_expected_rate() {
        let inj = Injector::from_model(ErrorModel::uniform(0.01, 0.5, 1));
        let clean = stored(20_000);
        let mut t = clean.clone();
        let flips = load(&inj, &mut t, StdRng::seed_from_u64(0).gen());
        let observed = flips as f64 / clean.total_bits() as f64;
        assert!((observed - inj.expected_ber()).abs() / inj.expected_ber() < 0.4);
    }

    #[test]
    fn device_injector_matches_device_behaviour() {
        let dev = ApproxDramDevice::new(Vendor::A, 3);
        let part = partitions(&DramGeometry::ddr4_module(), PartitionGranularity::Bank)[0];
        let op = OperatingPoint::with_vdd_reduction(0.30);
        let inj = Injector::from_device(dev, part, op);
        let mut t = stored(20_000);
        let flips = load(&inj, &mut t, StdRng::seed_from_u64(1).gen());
        assert!(flips > 0);
        assert!((inj.expected_ber() - dev.expected_ber(&op)).abs() < 1e-12);
    }

    #[test]
    fn seeded_corruption_is_thread_count_invariant() {
        // A load draws only from streams derived from its stream seed and
        // keeps no state in the injector, so the same seed must produce the
        // same flip set whether 1, 2 or 8 threads load at once, and on
        // whichever thread each load runs.
        let clean = stored(3 * 4096 + 17); // straddles chunk boundaries
        let layout = Layout::new(1024, 3);
        for inj in [
            Injector::from_model(ErrorModel::uniform(0.01, 0.5, 7)),
            Injector::from_device(
                ApproxDramDevice::new(Vendor::B, 4),
                partitions(&DramGeometry::ddr4_module(), PartitionGranularity::Bank)[0],
                OperatingPoint::with_vdd_reduction(0.30),
            ),
        ] {
            let map = inj.weak_map(clean.len(), clean.bits_per_value(), &layout);
            let seeded_load = || {
                let mut t = clean.clone();
                let flips = inj.corrupt_mapped(&mut t, 99, &map);
                (t, flips)
            };
            let reference = seeded_load();
            assert!(reference.1 > 0, "injector must flip something");
            for threads in [1usize, 2, 8] {
                let loads: Vec<(QuantTensor, u64)> = std::thread::scope(|s| {
                    let workers: Vec<_> = (0..threads).map(|_| s.spawn(seeded_load)).collect();
                    workers.into_iter().map(|w| w.join().unwrap()).collect()
                });
                for load in &loads {
                    assert_eq!(load, &reference, "{threads} concurrent threads");
                }
            }
        }
    }

    #[test]
    fn injector_overlay_matches_in_place_corruption() {
        // For both injector kinds, the overlay applied to the clean image
        // must equal the in-place mapped corruption bit for bit.
        let clean = stored(3 * 4096 + 17);
        let layout = Layout::new(1024, 3);
        for inj in [
            Injector::from_model(ErrorModel::uniform(0.01, 0.5, 7)),
            Injector::from_model(ErrorModel::data_dependent(0.02, 0.8, 0.1, 2)),
            Injector::from_device(
                ApproxDramDevice::new(Vendor::B, 4),
                partitions(&DramGeometry::ddr4_module(), PartitionGranularity::Bank)[0],
                OperatingPoint::with_vdd_reduction(0.30),
            ),
        ] {
            let map = inj.weak_map(clean.len(), clean.bits_per_value(), &layout);
            let mut corrupted = clean.clone();
            let flips = inj.corrupt_mapped(&mut corrupted, 99, &map);
            assert!(flips > 0, "injector must flip something");
            let overlay = inj.overlay_mapped(&clean, 99, &map);
            assert_eq!(overlay.bit_flips(), flips);
            let mut patched = clean.clone();
            overlay.apply(&mut patched);
            assert_eq!(patched, corrupted);
            overlay.revert(&mut patched);
            assert_eq!(patched, clean);
        }
    }

    #[test]
    fn error_free_injector_skips_corruption_without_stat_churn() {
        // A zero-BER source maps no weak cell, so a load returns 0 flips and
        // leaves the tensor untouched (no RNG streams constructed).
        let clean = stored(5_000);
        let layout = Layout::new(1024, 0);
        // A model rescaled to BER 0 is provably clean…
        let zero_ber = Injector::from_model(ErrorModel::uniform(0.05, 0.5, 3).with_ber(0.0));
        assert_eq!(zero_ber.expected_ber(), 0.0);
        // …while a device at its nominal operating point (whose vendor curve
        // is merely *negligible*, not exactly zero) relies on the device's
        // own nominal-read early return. Both must be exact no-ops.
        let nominal = Injector::from_device(
            ApproxDramDevice::new(Vendor::A, 1),
            partitions(&DramGeometry::ddr4_module(), PartitionGranularity::Bank)[0],
            OperatingPoint::nominal(),
        );
        assert!(
            !Injector::from_model(ErrorModel::uniform(0.05, 0.5, 3)).is_provably_clean(),
            "a nonzero-BER model must not be provably clean"
        );
        for inj in [zero_ber, nominal] {
            assert_eq!(inj.is_provably_clean(), inj.expected_ber() == 0.0);
            let map = inj.weak_map(clean.len(), clean.bits_per_value(), &layout);
            assert!(map.is_empty(), "error-free injector maps no weak cell");
            let mut t = clean.clone();
            assert_eq!(inj.corrupt_mapped(&mut t, 42, &map), 0);
            assert_eq!(t, clean, "error-free injector must not touch the tensor");
            assert!(inj.overlay_mapped(&clean, 42, &map).is_empty());
        }
    }

    #[test]
    fn allocator_hands_out_disjoint_rows() {
        let mut alloc = AddressAllocator::new(1024);
        let a = alloc.allocate(4096);
        let b = alloc.allocate(100);
        let c = alloc.allocate(3000);
        assert_eq!(a.base_row, 0);
        assert_eq!(b.base_row, 4); // 4096 bits / 1024 bits-per-row
        assert_eq!(c.base_row, 5);
        assert_eq!(alloc.allocate(1).base_row, 8);
    }

    #[test]
    fn tensors_at_different_addresses_see_different_weak_cells() {
        let model = ErrorModel::uniform(0.02, 1.0, 5);
        let mut alloc = AddressAllocator::new(2048);
        let clean = stored(2048);
        let la = alloc.allocate(clean.total_bits());
        let lb = alloc.allocate(clean.total_bits());
        let mut a = clean.clone();
        let mut b = clean.clone();
        let mut rng = StdRng::seed_from_u64(2);
        for (t, layout) in [(&mut a, &la), (&mut b, &lb)] {
            let map = model.weak_map(t.len(), t.bits_per_value(), layout);
            map.draw(t.stored_mut(), rng.gen(), model.flip_thresholds());
        }
        // Same data, same model, different addresses → different flip sets.
        assert_ne!(a, b);
    }
}
