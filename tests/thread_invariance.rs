//! Thread-count invariance: every parallel code path derives its randomness
//! from per-work-item streams, so running on 1, 2 or 8 worker threads — in
//! whatever interleaving those pools produce — must yield bit-identical
//! results for a fixed seed. This is the contract that lets CI validate
//! numerics on any runner while production saturates every core.

use eden::core::characterize::CoarseConfig;
use eden::core::curricular::CurricularConfig;
use eden::core::faults::ApproximateMemory;
use eden::core::inference::InferenceBackend;
use eden::core::session::EvalSession;
use eden::core::{EdenConfig, EdenPipeline};
use eden::dnn::train::{TrainConfig, Trainer};
use eden::dnn::{data::SyntheticVision, zoo, Dataset, Network};
use eden::dram::characterize::CharacterizeConfig;
use eden::dram::error_model::Layout;
use eden::dram::inject::Injector;
use eden::dram::{ApproxDramDevice, ErrorModel, Vendor};
use eden::tensor::{Precision, QuantTensor, Tensor};
use eden_par::ThreadPool;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

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

/// Runs `f` once per thread count, asserts all results are identical and
/// returns the first.
fn assert_invariant<R: PartialEq + std::fmt::Debug>(f: impl Fn() -> R) -> R {
    let mut results: Vec<(usize, R)> = THREAD_COUNTS
        .iter()
        .map(|&threads| (threads, ThreadPool::new(threads).install(&f)))
        .collect();
    for (threads, result) in &results[1..] {
        assert_eq!(
            &results[0].1, result,
            "result differs between {} and {threads} threads",
            results[0].0
        );
    }
    results.swap_remove(0).1
}

#[test]
fn injector_corrupt_placed_is_thread_count_invariant() {
    // A load at a placement (`weak_map` + `corrupt_mapped`, and its
    // `overlay_mapped` form) draws only from streams derived from its stream
    // seed, so its flips must not depend on the pool it runs under — for
    // model and device injectors, at placements that straddle
    // injection-chunk boundaries.
    let part = eden::dram::geometry::partitions(
        &eden::dram::geometry::DramGeometry::ddr4_module(),
        eden::dram::geometry::PartitionGranularity::Bank,
    )[0];
    let vdd = eden::dram::OperatingPoint::with_vdd_reduction;
    let stored = |n: usize, value: fn(f32) -> f32| {
        let values = Tensor::from_vec((0..n).map(|i| value(i as f32)).collect(), &[n]);
        QuantTensor::quantize(&values, Precision::Int8)
    };
    let cases = [
        (
            Injector::from_model(ErrorModel::bitline(0.02, 0.5, 0.8, 5)),
            stored(20_000, |x| (x * 0.11).sin()),
            Layout::new(2048, 7),
            42,
        ),
        (
            Injector::from_device(ApproxDramDevice::new(Vendor::C, 11), part, vdd(0.25)),
            stored(20_000, |x| (x * 0.11).sin()),
            Layout::new(2048, 7),
            43,
        ),
        (
            Injector::from_model(ErrorModel::uniform(0.01, 0.5, 7)),
            stored(3 * 4096 + 17, |x| (x * 0.3).cos()),
            Layout::new(1024, 3),
            99,
        ),
        (
            Injector::from_device(ApproxDramDevice::new(Vendor::B, 4), part, vdd(0.30)),
            stored(3 * 4096 + 17, |x| (x * 0.3).cos()),
            Layout::new(1024, 3),
            99,
        ),
    ];
    for (inj, clean, layout, stream_seed) in cases {
        let (_, flips, _) = assert_invariant(|| {
            let map = inj.weak_map(clean.len(), clean.bits_per_value(), &layout);
            let mut t = clean.clone();
            let flips = inj.corrupt_mapped(&mut t, stream_seed, &map);
            (t, flips, inj.overlay_mapped(&clean, stream_seed, &map))
        });
        assert!(flips > 0, "injector must flip something");
    }
}

#[test]
fn batch_evaluation_is_thread_count_invariant() {
    let (net, dataset) = trained_lenet(31);
    let samples = &dataset.test()[..40];
    assert_invariant(|| {
        let mut memory = ApproximateMemory::from_model(ErrorModel::uniform(0.02, 0.5, 3), 17);
        let acc = EvalSession::new(&net, Precision::Int8, InferenceBackend::SimulatedF32)
            .evaluate_with_faults(samples, &mut memory);
        // Accuracy bits AND the injection statistics must match exactly.
        (acc.to_bits(), memory.stats())
    });
}

#[test]
fn native_backend_evaluation_is_thread_count_invariant() {
    // The native integer engine accumulates exactly, so its batch accuracy
    // AND injection statistics must be bit-identical for any worker count —
    // same contract as the simulated path, pinned per precision.
    let (net, dataset) = trained_lenet(35);
    let samples = &dataset.test()[..40];
    for precision in [Precision::Int4, Precision::Int8, Precision::Int16] {
        assert_invariant(|| {
            let mut memory = ApproximateMemory::from_model(ErrorModel::uniform(0.02, 0.5, 3), 19);
            let acc = EvalSession::new(&net, precision, InferenceBackend::NativeInt)
                .evaluate_with_faults(samples, &mut memory);
            (acc.to_bits(), memory.stats())
        });
    }
}

#[test]
fn session_probe_sequence_is_thread_count_invariant() {
    // A reused EvalSession — warm pools, cached baseline, shared weak-map
    // cache — must stay bit-identical across worker counts for a whole
    // probe sequence, exactly like a fresh session per probe.
    let (net, dataset) = trained_lenet(36);
    let samples = &dataset.test()[..32];
    let template = ErrorModel::uniform(0.02, 0.5, 6);
    for backend in [InferenceBackend::SimulatedF32, InferenceBackend::NativeInt] {
        assert_invariant(|| {
            let mut session = EvalSession::new(&net, Precision::Int8, backend);
            let mut outcomes = Vec::new();
            for ber in [1e-3, 1e-2, 1e-3] {
                let mut memory = ApproximateMemory::from_model(template.with_ber(ber), 21);
                let acc = session.evaluate_with_faults(samples, &mut memory);
                outcomes.push((acc.to_bits(), memory.stats()));
            }
            let reliable = session.evaluate_reliable(samples).to_bits();
            let sweep: Vec<(u64, u32)> = session
                .accuracy_vs_ber(samples, &template, &[1e-4, 1e-2], None, 23)
                .into_iter()
                .map(|(b, a)| (b.to_bits(), a.to_bits()))
                .collect();
            (outcomes, reliable, sweep)
        });
    }
}

#[test]
fn fine_characterization_is_thread_count_invariant() {
    // Fine characterization fans each round's site probes out across the
    // worker pool (Jacobi rounds). Every probe owns a `probe_seed(seed,
    // round, site)` stream and acceptances fold in site order after the
    // fan-out, so the full tolerance table — and the baseline/floor pair —
    // must be bit-identical at any worker count.
    use eden::core::characterize::{fine_characterize_session, FineConfig};
    let (net, dataset) = trained_lenet(37);
    let template = ErrorModel::uniform(0.02, 0.5, 5);
    let cfg = FineConfig {
        eval_samples: 24,
        max_rounds: 2,
        bootstrap_ber: 5e-4,
        ..FineConfig::default()
    };
    assert_invariant(|| {
        let mut session = EvalSession::new(&net, Precision::Int8, cfg.backend);
        let fine = fine_characterize_session(&mut session, &dataset, &template, None, &cfg);
        let tolerances: Vec<(String, u64)> = fine
            .tolerances
            .iter()
            .map(|(info, ber)| (format!("{:?}", info.site), ber.to_bits()))
            .collect();
        (
            fine.baseline_accuracy.to_bits(),
            fine.accuracy_floor.to_bits(),
            tolerances,
        )
    });
}

#[test]
fn ber_sweep_is_thread_count_invariant() {
    let (net, dataset) = trained_lenet(32);
    let samples = &dataset.test()[..24];
    let template = ErrorModel::uniform(0.02, 0.5, 4);
    assert_invariant(|| {
        let curve = EvalSession::new(&net, Precision::Int8, InferenceBackend::SimulatedF32)
            .accuracy_vs_ber(samples, &template, &[1e-4, 1e-3, 1e-2, 5e-2], None, 23);
        curve
            .into_iter()
            .map(|(ber, acc)| (ber.to_bits(), acc.to_bits()))
            .collect::<Vec<_>>()
    });
}

#[test]
fn eden_pipeline_is_thread_count_invariant() {
    let (net, dataset) = trained_lenet(33);
    let device = ApproxDramDevice::new(Vendor::A, 9);
    let config = EdenConfig {
        retraining: CurricularConfig {
            epochs: 2,
            step_epochs: 1,
            ..CurricularConfig::default()
        },
        characterization: CoarseConfig {
            eval_samples: 24,
            iterations: 4,
            ..CoarseConfig::default()
        },
        dram_characterization: CharacterizeConfig {
            rows_per_pattern: 1,
            bitlines_per_row: 256,
            reads_per_row: 2,
            seed: 7,
        },
        iterations: 1,
        accuracy_drop: 0.03,
        seed: 7,
        ..EdenConfig::default()
    };

    let reference: Vec<_> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            ThreadPool::new(threads).install(|| {
                let mut boosted = net.clone();
                let outcome = EdenPipeline::new(config).run(&mut boosted, &dataset, &device);
                let logits: Vec<Tensor> = dataset
                    .test()
                    .iter()
                    .map(|(x, _)| boosted.forward(x))
                    .collect();
                (outcome, logits)
            })
        })
        .collect();
    assert_eq!(reference[0].0, reference[1].0, "outcome: 1 vs 2 threads");
    assert_eq!(reference[0].0, reference[2].0, "outcome: 1 vs 8 threads");
    assert_eq!(
        reference[0].1, reference[1].1,
        "boosted net: 1 vs 2 threads"
    );
    assert_eq!(
        reference[0].1, reference[2].1,
        "boosted net: 1 vs 8 threads"
    );
}
