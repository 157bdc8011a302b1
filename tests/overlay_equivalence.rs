//! Overlay equivalence: the evaluation session — which serves every weight
//! refetch as sparse corruption overlays and runs samples in
//! weight-stationary groups — pinned bit for bit against a test-local
//! reference of the seed evaluation protocol that reloads full weight images
//! and runs every sample on its own, plus the `apply ∘ revert = identity`
//! property the patch-and-restore pools rely on.
//!
//! The session reuses persistent corrupted copies across probes — reverting
//! the previous draw's deltas and applying the next — so the interesting
//! property is that a whole probe *sequence* (with bounding corrections
//! folded sparsely into the overlays) never differs from the reference in a
//! single accuracy bit or injection statistic, across both execution
//! backends, every precision, and 1/2/8 worker threads — on LeNet, and on
//! `resnet_mini`, whose residual blocks and channel norms run on f32 under
//! both backends.

use eden::core::bounding::{BoundingLogic, CorrectionPolicy};
use eden::core::characterize::{fine_characterize_session, FineCharacterization, FineConfig};
use eden::core::faults::{ApproximateMemory, MemoryStats};
use eden::core::inference::InferenceBackend;
use eden::core::session::{EvalSession, WEIGHT_REFETCH_PERIOD};
use eden::dnn::network::WeightImage;
use eden::dnn::qexec::{NativeWeights, QuantScratch};
use eden::dnn::train::{TrainConfig, Trainer};
use eden::dnn::{data::SyntheticVision, zoo, DataKind, DataSite, Dataset, FaultHook, Network};
use eden::dram::device::ApproxDramDevice;
use eden::dram::geometry::{partitions, DramGeometry, PartitionGranularity};
use eden::dram::inject::Injector;
use eden::dram::util::seed_mix;
use eden::dram::{ErrorModel, OperatingPoint, Vendor};
use eden::tensor::{CorruptionOverlay, Precision, QuantTensor, Tensor};
use eden_par::ThreadPool;
use proptest::prelude::*;

fn trained_lenet(seed: u64) -> (Network, SyntheticVision) {
    let dataset = SyntheticVision::tiny(seed);
    let mut net = zoo::lenet(&dataset.spec(), seed);
    Trainer::new(TrainConfig {
        epochs: 3,
        ..TrainConfig::default()
    })
    .train(&mut net, &dataset);
    (net, dataset)
}

/// The deepest IFM site of the network — dirtying it leaves the longest
/// clean prefix, so checkpoint resume has the most to skip.
fn deepest_ifm(net: &Network) -> DataSite {
    net.data_sites()
        .into_iter()
        .filter(|info| info.site.kind == DataKind::Ifm)
        .max_by_key(|info| info.site.layer_index)
        .expect("network has IFM sites")
        .site
}

/// Samples per window of the seed protocol: at most 16 refetch slots are
/// resident at once.
const WINDOW: usize = 16 * WEIGHT_REFETCH_PERIOD;

/// The corrupted weights of one refetch slot of the reference: a network
/// copy holding them in f32, plus their integer panels on the native
/// backend.
enum ReferenceWeights {
    Simulated(Network),
    Native(NativeWeights, Network),
}

/// The seed evaluation protocol, written out independently of the session:
/// every site's DRAM placement is pinned up front; per window, each
/// 16-sample refetch slot's weights are re-loaded from the parent memory by
/// full image reload ([`reference_slot`]), in slot order; then every sample runs alone
/// on its slot's weights with its own lane `memory.fork(global index)`
/// ([`Network::forward_with_ifm_hook`], or [`reference_logits`]' layer walk
/// on the native backend), and the lanes' statistics merge back in sample order. Returns
/// the accuracy bits and the memory's final statistics.
fn reference_evaluate(
    net: &Network,
    samples: &[(Tensor, usize)],
    precision: Precision,
    backend: InferenceBackend,
    memory: &mut ApproximateMemory,
) -> (u32, MemoryStats) {
    memory.preallocate(net, precision);
    let images = net.weight_images(precision);
    // FP32 has no integer representation: it always runs simulated.
    let native = backend == InferenceBackend::NativeInt && precision.is_integer();
    let mut correct = 0usize;
    for (w, window) in samples.chunks(WINDOW).enumerate() {
        let slots: Vec<ReferenceWeights> = window
            .chunks(WEIGHT_REFETCH_PERIOD)
            .map(|_| reference_slot(net, &images, native, memory))
            .collect();
        for (i, (x, label)) in window.iter().enumerate() {
            let mut lane = memory.fork((w * WINDOW + i) as u64);
            let slot = &slots[i / WEIGHT_REFETCH_PERIOD];
            if reference_logits(net, slot, x, precision, &mut lane).argmax() == *label {
                correct += 1;
            }
            memory.merge_stats(lane.stats());
        }
    }
    (
        (correct as f32 / samples.len() as f32).to_bits(),
        memory.stats(),
    )
}

/// One refetch slot of the reference: a copy of every weight image's clean
/// bits corrupted by `memory` in image order, and loaded whole into a
/// network copy (and the native slot's integer panels).
fn reference_slot(
    net: &Network,
    images: &[WeightImage],
    native: bool,
    memory: &mut ApproximateMemory,
) -> ReferenceWeights {
    let images = corrupted_images(images, memory);
    let mut copy = net.clone();
    copy.load_clean_weights(&images);
    if native {
        let mut weights = NativeWeights::prepare(net);
        weights.refresh_clean(&images);
        ReferenceWeights::Native(weights, copy)
    } else {
        ReferenceWeights::Simulated(copy)
    }
}

/// A copy of every weight image's clean bits, corrupted by `hook` in image
/// order: a whole weight load from approximate memory.
fn corrupted_images(images: &[WeightImage], hook: &mut dyn FaultHook) -> Vec<WeightImage> {
    images
        .iter()
        .map(|img| {
            let mut img = img.clone();
            hook.corrupt(&img.site, &mut img.clean);
            img
        })
        .collect()
}

/// One sample's logits on a reference slot, with `lane` serving its IFM
/// loads. On the native backend a plain layer walk: each IFM is quantized
/// and corrupted, then a layer with integer panels runs its native form, a
/// layer with a quantized-domain activation runs that, and every other
/// layer runs the slot's f32 copy on the dequantized IFM.
fn reference_logits(
    net: &Network,
    slot: &ReferenceWeights,
    x: &Tensor,
    precision: Precision,
    lane: &mut ApproximateMemory,
) -> Tensor {
    let (weights, copy) = match slot {
        ReferenceWeights::Simulated(copy) => {
            return copy.forward_with_ifm_hook(x, precision, lane);
        }
        ReferenceWeights::Native(weights, copy) => (weights, copy),
    };
    let mut x = x.clone();
    for (i, layer) in net.layers().iter().enumerate() {
        let mut q = QuantTensor::quantize(&x, precision);
        lane.corrupt(&DataSite::new(i, layer.name(), DataKind::Ifm), &mut q);
        x = match weights.native_params(i) {
            Some(params) => layer
                .quant_forward_batch(&[&q], params, &mut QuantScratch::new())
                .expect("native layer")
                .remove(0),
            None => layer
                .quant_forward_activation(&q)
                .unwrap_or_else(|| copy.layers()[i].forward(&q.dequantize())),
        };
    }
    x
}

/// The probe operating points: revisiting one makes the session's
/// persistent pools go through revert → re-apply cycles.
const PROBE_BERS: [f64; 4] = [1e-3, 1e-2, 1e-3, 5e-2];

/// A fresh model-backed memory for one probe.
fn probe_memory(
    template: &ErrorModel,
    ber: f64,
    bounding: Option<BoundingLogic>,
    seed: u64,
) -> ApproximateMemory {
    let memory = ApproximateMemory::from_model(template.with_ber(ber), seed);
    match bounding {
        Some(b) => memory.with_bounding(b),
        None => memory,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn overlay_refetch_is_bit_identical_to_image_reload(
        seed in 0u64..100,
        precision_idx in 0usize..4,
        backend_sel in 0u8..2,
        threads_idx in 0usize..3,
        bounding_sel in 0u8..2,
    ) {
        let precision =
            [Precision::Int4, Precision::Int8, Precision::Int16, Precision::Fp32][precision_idx];
        let backend = if backend_sel == 0 {
            InferenceBackend::SimulatedF32
        } else {
            InferenceBackend::NativeInt
        };
        let threads = [1usize, 2, 8][threads_idx];
        let (net, dataset) = trained_lenet(seed % 4);
        let samples = &dataset.test()[..20];
        let template = ErrorModel::uniform(0.02, 0.5, seed ^ 0x0E71);
        // Bounding exercises the sparse correction fold of the overlay path.
        let with_bounding = bounding_sel == 1;
        let bounding =
            with_bounding.then(|| BoundingLogic::new(-6.0, 6.0, CorrectionPolicy::Zero));

        let pool = ThreadPool::new(threads);
        let via_session: Vec<(u32, MemoryStats)> = pool.install(|| {
            let session = EvalSession::new(&net, precision, backend);
            PROBE_BERS
                .iter()
                .map(|&ber| {
                    let mut memory = probe_memory(&template, ber, bounding, seed);
                    let acc = session.evaluate_with_faults(samples, &mut memory);
                    (acc.to_bits(), memory.stats())
                })
                .collect()
        });
        let via_reference: Vec<(u32, MemoryStats)> = PROBE_BERS
            .iter()
            .map(|&ber| {
                let mut memory = probe_memory(&template, ber, bounding, seed);
                reference_evaluate(&net, samples, precision, backend, &mut memory)
            })
            .collect();
        prop_assert_eq!(
            via_session, via_reference,
            "{} {} {} threads bounding={}", precision, backend, threads, with_bounding
        );
    }

    #[test]
    fn checkpointed_resume_is_bit_identical_to_the_full_forward(
        seed in 0u64..100,
        precision_idx in 0usize..4,
        backend_sel in 0u8..2,
        threads_idx in 0usize..3,
        cold_sel in 0u8..2,
    ) {
        let precision =
            [Precision::Int4, Precision::Int8, Precision::Int16, Precision::Fp32][precision_idx];
        let backend = if backend_sel == 0 {
            InferenceBackend::SimulatedF32
        } else {
            InferenceBackend::NativeInt
        };
        let threads = [1usize, 2, 8][threads_idx];
        // A 64-byte budget forces every harvest to evict: the store stays
        // effectively empty and each probe runs the cold (full-forward) path
        // through the checkpointing code — still bit-identical.
        let cold = cold_sel == 1;
        let (net, dataset) = trained_lenet(seed % 4);
        let samples = &dataset.test()[..20];
        let template = ErrorModel::uniform(0.02, 0.5, seed ^ 0x51CE);
        // The deepest IFM site leaves the longest clean prefix to resume
        // over, and IFM corruption exercises the per-lane forked streams
        // (activations reload per sample, unlike weights).
        let site = deepest_ifm(&net);

        let pool = ThreadPool::new(threads);
        let run = |checkpoints: bool| {
            let mut session = EvalSession::new(&net, precision, backend)
                .with_checkpoints(checkpoints);
            if checkpoints && cold {
                session = session.with_checkpoint_budget(64);
            }
            let out: Vec<(u32, MemoryStats)> = pool.install(|| {
                PROBE_BERS
                    .iter()
                    .map(|&ber| {
                        let mut memory = ApproximateMemory::reliable(seed);
                        memory.assign_site(
                            site.clone(),
                            Injector::from_model(template.with_ber(ber)),
                        );
                        let acc = session.evaluate_with_faults(samples, &mut memory);
                        (acc.to_bits(), memory.stats())
                    })
                    .collect()
            });
            let counters = session.checkpoint_counters();
            (out, counters)
        };
        let (resumed, counters) = run(true);
        let (full, _) = run(false);
        prop_assert_eq!(
            resumed, full,
            "{} {} {} threads cold={}", precision, backend, threads, cold
        );
        if cold {
            prop_assert!(counters.evictions > 0, "tiny budget must evict");
        } else {
            prop_assert!(counters.hits > 0, "later probes must resume from checkpoints");
        }
        prop_assert!(counters.misses > 0, "the first probe is always cold");
    }

    #[test]
    fn apply_revert_is_the_identity_on_random_overlays(
        seed in 0u64..1000,
        precision_idx in 0usize..4,
        len in 1usize..600,
    ) {
        let precision =
            [Precision::Int4, Precision::Int8, Precision::Int16, Precision::Fp32][precision_idx];
        let clean = QuantTensor::quantize(
            &Tensor::from_vec(
                (0..len).map(|i| ((i as u64 + seed) as f32 * 0.137).sin()).collect(),
                &[len],
            ),
            precision,
        );
        // A pseudo-random sparse overlay within the tensor's geometry.
        let mask_limit = if precision.bits() == 32 {
            u32::MAX
        } else {
            (1u32 << precision.bits()) - 1
        };
        let mut deltas = Vec::new();
        let mut w = (seed % 5) as u32;
        while (w as usize) < len {
            let mask = (seed_mix(seed, &[w as u64]) as u32) & mask_limit;
            if mask != 0 {
                deltas.push((w, mask));
            }
            w += 1 + (w % 11);
        }
        let flips = deltas.iter().map(|&(_, m)| m.count_ones() as u64).sum();
        let overlay =
            CorruptionOverlay::new(len, precision.bits(), deltas, flips, 0);
        let mut t = clean.clone();
        overlay.apply(&mut t);
        if !overlay.is_empty() {
            // A non-empty overlay must change the image.
            prop_assert_ne!(&t, &clean);
        }
        overlay.revert(&mut t);
        // apply∘revert must restore the image exactly.
        prop_assert_eq!(&t, &clean);
    }
}

#[test]
fn overlay_refetch_matches_reload_under_a_device_backed_memory() {
    // Device-backed injectors draw overlays from device weak maps whose
    // failure thresholds depend on the stored bit. The evaluation results
    // must still be bit-identical to the image-reload reference.
    let (net, dataset) = trained_lenet(1);
    let samples = &dataset.test()[..16];
    let device = ApproxDramDevice::new(Vendor::B, 9);
    let partition = partitions(&DramGeometry::ddr4_module(), PartitionGranularity::Bank)[0];
    let injector =
        Injector::from_device(device, partition, OperatingPoint::with_vdd_reduction(0.3));
    for backend in [InferenceBackend::SimulatedF32, InferenceBackend::NativeInt] {
        let session = EvalSession::new(&net, Precision::Int8, backend);
        let mut a = ApproximateMemory::from_injector(injector.clone(), 5);
        let mut b = ApproximateMemory::from_injector(injector.clone(), 5);
        let via_session = session.evaluate_with_faults(samples, &mut a);
        let via_reference = reference_evaluate(&net, samples, Precision::Int8, backend, &mut b);
        assert_eq!(
            (via_session.to_bits(), a.stats()),
            via_reference,
            "{backend}"
        );
        assert!(a.stats().bit_flips > 0);
    }
}

#[test]
fn overlay_refetch_matches_reload_on_resnet_under_both_backends() {
    // Residual blocks and channel norms have no native form: they run on
    // f32 under both plans (every layer does under the simulated one), over
    // the slot's weight-refreshed network copy. Besides the accuracy of the
    // probe sequence, one sample's logits are compared bit for bit: an
    // untrained network's argmax hides most weight errors, its logits none.
    let dataset = SyntheticVision::tiny(5);
    let net = zoo::resnet_mini(&dataset.spec(), 5);
    let samples = &dataset.test()[..20];
    let images = net.weight_images(Precision::Int8);
    let template = ErrorModel::uniform(0.02, 0.5, 0x7E5);
    let bounding = Some(BoundingLogic::new(-6.0, 6.0, CorrectionPolicy::Zero));
    for backend in [InferenceBackend::SimulatedF32, InferenceBackend::NativeInt] {
        let native = backend == InferenceBackend::NativeInt;
        let session = EvalSession::new(&net, Precision::Int8, backend);
        for ber in PROBE_BERS {
            let mut a = probe_memory(&template, ber, bounding, 3);
            let mut b = probe_memory(&template, ber, bounding, 3);
            let via_session = session.evaluate_with_faults(samples, &mut a);
            let via_reference = reference_evaluate(&net, samples, Precision::Int8, backend, &mut b);
            assert_eq!(
                (via_session.to_bits(), a.stats()),
                via_reference,
                "{backend} {ber}"
            );

            let x = &samples[0].0;
            let mut a = probe_memory(&template, ber, bounding, 4);
            let mut b = probe_memory(&template, ber, bounding, 4);
            let via_session = session.forward_with_faults(x, &mut a);
            let slot = reference_slot(&net, &images, native, &mut b);
            let via_reference = reference_logits(&net, &slot, x, Precision::Int8, &mut b);
            assert_eq!(
                (via_session, a.stats()),
                (via_reference, b.stats()),
                "{backend} {ber} logits"
            );
        }
    }
}

/// The Figure 11 probe loop of [`fine_characterize_session`], written out
/// over [`reference_evaluate`]: per round, every still-active site is probed
/// alone (reliable memory elsewhere) at its stepped BER from its own
/// `(seed, round, site)` stream, and a site whose accuracy falls below the
/// floor leaves the sweep.
fn reference_fine_characterize(
    net: &Network,
    dataset: &SyntheticVision,
    template: &ErrorModel,
    bounding: Option<BoundingLogic>,
    cfg: &FineConfig,
) -> FineCharacterization {
    let samples = &dataset.test()[..cfg.eval_samples.min(dataset.test().len())];
    let evaluate = |memory: &mut ApproximateMemory| {
        let (bits, _) = reference_evaluate(net, samples, Precision::Int8, cfg.backend, memory);
        f32::from_bits(bits)
    };
    let baseline = evaluate(&mut ApproximateMemory::reliable(0));
    let floor = baseline - cfg.accuracy_drop;
    let sites = net.data_sites();
    let mut tolerances = vec![cfg.bootstrap_ber; sites.len()];
    let mut active = vec![true; sites.len()];
    for round in 0..cfg.max_rounds {
        // Each probe depends only on its own site's tolerance, so probing
        // the round's sites one after another equals the session's fan-out.
        let probes: Vec<usize> = (0..sites.len()).filter(|&i| active[i]).collect();
        for i in probes {
            let ber = tolerances[i] * cfg.step_factor;
            let mut memory =
                ApproximateMemory::reliable(seed_mix(cfg.seed, &[round as u64, i as u64]));
            memory.assign_site(
                sites[i].site.clone(),
                Injector::from_model(template.with_ber(ber)),
            );
            if let Some(b) = bounding {
                memory = memory.with_bounding(b);
            }
            if evaluate(&mut memory) >= floor {
                tolerances[i] = ber;
            } else {
                active[i] = false;
            }
        }
    }
    FineCharacterization {
        baseline_accuracy: baseline,
        accuracy_floor: floor,
        tolerances: sites.into_iter().zip(tolerances).collect(),
    }
}

#[test]
fn characterizations_are_identical_under_both_refetch_modes() {
    // The fine-grained probe loop — the workload the overlay path exists
    // for — must produce the exact same tolerances through the session as
    // through the image-reload reference.
    let (net, dataset) = trained_lenet(2);
    let template = ErrorModel::uniform(0.01, 0.5, 3);
    let bounding =
        BoundingLogic::calibrated(&net, &dataset.train()[..16], 1.5, CorrectionPolicy::Zero);
    let cfg = FineConfig {
        eval_samples: 16,
        max_rounds: 2,
        bootstrap_ber: 5e-4,
        ..FineConfig::default()
    };
    let mut session = EvalSession::new(&net, Precision::Int8, cfg.backend);
    assert_eq!(
        fine_characterize_session(&mut session, &dataset, &template, Some(bounding), &cfg),
        reference_fine_characterize(&net, &dataset, &template, Some(bounding), &cfg)
    );
}
