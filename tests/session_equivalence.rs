//! Session equivalence: [`eden::core::session::EvalSession`] reuse against
//! one-shot calls — a fresh session per call — pinned bit for bit.
//!
//! The session is the only evaluation API, so the property pinned here is
//! that *reuse* — the same session serving a whole probe sequence, with its
//! cached weight images, corrupted-weight pools, reliable baselines and
//! shared weak-cell maps — never changes a single bit of any accuracy, sweep
//! point or injection statistic relative to a throwaway session per call,
//! across both execution backends, every precision, and 1/2/8 worker
//! threads.

use eden::core::faults::ApproximateMemory;
use eden::core::inference::InferenceBackend;
use eden::core::session::EvalSession;
use eden::dnn::train::{TrainConfig, Trainer};
use eden::dnn::{data::SyntheticVision, zoo, Dataset, Network};
use eden::dram::ErrorModel;
use eden::tensor::{Precision, Tensor};
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

/// One probe outcome: accuracy bits plus the memory's injection statistics.
type Probe = (u32, eden::core::faults::MemoryStats);

/// Runs the probe sequence through one reused session.
fn probes_via_session(
    net: &Network,
    samples: &[(Tensor, usize)],
    precision: Precision,
    backend: InferenceBackend,
    template: &ErrorModel,
    bers: &[f64],
    seed: u64,
) -> (Vec<Probe>, u32, Vec<(u64, u32)>) {
    let mut session = EvalSession::new(net, precision, backend);
    let probes = bers
        .iter()
        .map(|&ber| {
            let mut memory = ApproximateMemory::from_model(template.with_ber(ber), seed);
            let acc = session.evaluate_with_faults(samples, &mut memory);
            (acc.to_bits(), memory.stats())
        })
        .collect();
    let reliable = session.evaluate_reliable(samples).to_bits();
    let sweep = session
        .accuracy_vs_ber(samples, template, bers, None, seed)
        .into_iter()
        .map(|(b, a)| (b.to_bits(), a.to_bits()))
        .collect();
    (probes, reliable, sweep)
}

/// Runs the same probe sequence with a fresh session per call.
fn probes_via_oneshot(
    net: &Network,
    samples: &[(Tensor, usize)],
    precision: Precision,
    backend: InferenceBackend,
    template: &ErrorModel,
    bers: &[f64],
    seed: u64,
) -> (Vec<Probe>, u32, Vec<(u64, u32)>) {
    let fresh = || EvalSession::new(net, precision, backend);
    let probes = bers
        .iter()
        .map(|&ber| {
            let mut memory = ApproximateMemory::from_model(template.with_ber(ber), seed);
            let acc = fresh().evaluate_with_faults(samples, &mut memory);
            (acc.to_bits(), memory.stats())
        })
        .collect();
    let reliable = fresh().evaluate_reliable(samples).to_bits();
    let sweep = fresh()
        .accuracy_vs_ber(samples, template, bers, None, seed)
        .into_iter()
        .map(|(b, a)| (b.to_bits(), a.to_bits()))
        .collect();
    (probes, reliable, sweep)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn session_reuse_is_bit_identical_to_one_shot_calls(
        seed in 0u64..100,
        precision_idx in 0usize..4,
        backend_sel in 0u8..2,
        threads_idx in 0usize..3,
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
        let template = ErrorModel::uniform(0.02, 0.5, seed ^ 0x5E55);
        // A probe schedule that revisits operating points, like the
        // characterization loops do.
        let bers = [1e-3, 1e-2, 1e-3, 5e-2];

        let pool = ThreadPool::new(threads);
        let via_session = pool.install(|| {
            probes_via_session(&net, samples, precision, backend, &template, &bers, seed)
        });
        let via_oneshot = pool.install(|| {
            probes_via_oneshot(&net, samples, precision, backend, &template, &bers, seed)
        });
        prop_assert_eq!(via_session, via_oneshot, "{} {} {} threads", precision, backend, threads);
    }
}

#[test]
fn forward_with_faults_matches_one_shot_forward() {
    let (net, dataset) = trained_lenet(0);
    let template = ErrorModel::uniform(0.02, 0.5, 9);
    for backend in [InferenceBackend::SimulatedF32, InferenceBackend::NativeInt] {
        for precision in [Precision::Int4, Precision::Int8, Precision::Fp32] {
            let session = EvalSession::new(&net, precision, backend);
            for (i, (x, _)) in dataset.test()[..4].iter().enumerate() {
                let mut a = ApproximateMemory::from_model(template.with_ber(1e-3), i as u64);
                let mut b = a.clone();
                let via_session = session.forward_with_faults(x, &mut a);
                let via_oneshot =
                    EvalSession::new(&net, precision, backend).forward_with_faults(x, &mut b);
                // Compare bit patterns: FP32 corruption without bounding can
                // produce NaN logits, and NaN != NaN under float equality.
                let session_bits: Vec<u32> =
                    via_session.data().iter().map(|v| v.to_bits()).collect();
                let oneshot_bits: Vec<u32> =
                    via_oneshot.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(via_session.shape(), via_oneshot.shape());
                assert_eq!(
                    session_bits, oneshot_bits,
                    "{precision} {backend} sample {i}"
                );
                assert_eq!(a.stats(), b.stats(), "{precision} {backend} sample {i}");
            }
        }
    }
}

#[test]
fn shared_weak_map_cache_does_not_change_results() {
    // The same memory evaluated with and without an attached shared cache
    // must corrupt identically — maps are pure functions of their key.
    let (net, dataset) = trained_lenet(1);
    let samples = &dataset.test()[..16];
    let template = ErrorModel::bitline(0.02, 0.5, 0.8, 3);
    let mut with_cache = ApproximateMemory::from_model(template.with_ber(5e-3), 7);
    let session = EvalSession::new(&net, Precision::Int8, InferenceBackend::SimulatedF32);
    with_cache.attach_weak_map_cache(session.weak_map_cache());
    let mut without_cache = ApproximateMemory::from_model(template.with_ber(5e-3), 7);
    let fresh = || EvalSession::new(&net, Precision::Int8, InferenceBackend::SimulatedF32);
    let a = fresh().evaluate_with_faults(samples, &mut with_cache);
    let b = fresh().evaluate_with_faults(samples, &mut without_cache);
    assert_eq!(a.to_bits(), b.to_bits());
    assert_eq!(with_cache.stats(), without_cache.stats());
    assert!(with_cache.stats().bit_flips > 0);
}
