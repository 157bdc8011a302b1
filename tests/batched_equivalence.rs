//! Batched-execution equivalence: overlay-grouped multi-sample batching
//! ([`EvalSession::evaluate_concurrent_batched`]) against groups of one
//! (`batch == 1`), pinned bit for bit.
//!
//! Both backends run through one group executor
//! (`qexec::forward_native_batch_observed`) and differ only in the
//! per-layer plan: the native plan packs every sample of a group into one
//! weight-stationary integer GEMM per dense/conv layer, the simulated plan
//! runs each layer on f32 over the group's dequantized IFMs (one
//! `forward_batch` GEMM for a dense layer, a per-sample implicit-GEMM conv).
//! The properties here assert the strongest contract the implementation
//! claims: for any backend, integer precision, worker-thread
//! count and batch cap, the accuracy bits AND the memory's injection
//! statistics are exactly those of running every sample alone — including
//! when groups split at sample-varying corruption overlays and when samples
//! resume mid-network from clean-activation checkpoints. (The single-sample
//! path itself is pinned against an independent per-sample reference in
//! `overlay_equivalence.rs`.)

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

/// One evaluation outcome: accuracy bits plus the memory's injection
/// statistics (flip counts, refetch accounting) — both must match exactly.
type Outcome = (u32, eden::core::faults::MemoryStats);

/// Evaluates `samples` through a fresh session at the given batch cap.
#[allow(clippy::too_many_arguments)]
fn eval_at_cap(
    net: &Network,
    samples: &[(Tensor, usize)],
    precision: Precision,
    backend: InferenceBackend,
    template: &ErrorModel,
    ber: f64,
    batch: usize,
    seed: u64,
) -> Outcome {
    let session = EvalSession::new(net, precision, backend);
    let mut memory = ApproximateMemory::from_model(template.with_ber(ber), seed);
    let acc = session.evaluate_concurrent_batched(samples, &mut memory, batch);
    (acc.to_bits(), memory.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The core contract: any batch cap is bit-identical to groups of one
    /// across backends × precisions × thread counts. `batch` covers a non-divisor of the window (3), a whole
    /// refetch slot (16) and the full window (N).
    #[test]
    fn batched_evaluation_is_bit_identical_to_per_sample(
        seed in 0u64..64,
        precision_idx in 0usize..3,
        backend_sel in 0u8..2,
        threads_idx in 0usize..3,
        batch_idx in 0usize..3,
    ) {
        let precision = [Precision::Int4, Precision::Int8, Precision::Int16][precision_idx];
        let backend = if backend_sel == 0 {
            InferenceBackend::SimulatedF32
        } else {
            InferenceBackend::NativeInt
        };
        let threads = [1usize, 2, 8][threads_idx];
        let (net, dataset) = trained_lenet(seed % 4);
        let samples = &dataset.test()[..24];
        let batch = [3usize, 16, samples.len()][batch_idx];
        let template = ErrorModel::uniform(0.02, 0.5, seed ^ 0xBA7C);

        let pool = ThreadPool::new(threads);
        let reference = pool.install(|| {
            eval_at_cap(&net, samples, precision, backend, &template, 1e-2, 1, seed)
        });
        let batched = pool.install(|| {
            eval_at_cap(&net, samples, precision, backend, &template, 1e-2, batch, seed)
        });
        prop_assert_eq!(
            batched, reference,
            "{} {} {} threads batch {}", precision, backend, threads, batch
        );
    }

    /// Mixed overlay-sharing: at a low BER many refetch slots draw zero
    /// flips (equal, mergeable overlays) while others draw distinct ones,
    /// so the grouping logic exercises merged groups, split groups and
    /// groups of one in one window — still bit-identical, and with
    /// every sample accounted for exactly once in the batch counters.
    #[test]
    fn mixed_overlay_sharing_groups_stay_bit_identical(
        seed in 0u64..64,
        backend_sel in 0u8..2,
        ber_idx in 0usize..3,
    ) {
        let backend = if backend_sel == 0 {
            InferenceBackend::SimulatedF32
        } else {
            InferenceBackend::NativeInt
        };
        let ber = [0.0, 1e-4, 1e-2][ber_idx];
        let (net, dataset) = trained_lenet(seed % 4);
        let samples = &dataset.test()[..24];
        let template = ErrorModel::uniform(0.02, 0.5, seed ^ 0x0E4A);

        let reference = eval_at_cap(
            &net, samples, Precision::Int8, backend, &template, ber, 1, seed,
        );
        let session = EvalSession::new(&net, Precision::Int8, backend);
        let mut memory = ApproximateMemory::from_model(template.with_ber(ber), seed);
        let acc = session.evaluate_concurrent_batched(samples, &mut memory, 8);
        let counters = session.batch_counters();
        prop_assert_eq!((acc.to_bits(), memory.stats()), reference);
        prop_assert_eq!(
            counters.batched_samples + counters.fallback_samples,
            samples.len() as u64,
            "every sample is either batched or a group of one"
        );
    }

    /// Checkpoint resume inside a batch: a second probe through the same
    /// session resumes samples from their clean-activation checkpoints at
    /// the first corrupted layer, so groups mix full passes with
    /// mid-network resumes — the probe sequence must stay bit-identical to
    /// a groups-of-one session doing the same resumes.
    #[test]
    fn checkpoint_resume_inside_batch_is_bit_identical(
        seed in 0u64..64,
        backend_sel in 0u8..2,
        threads_idx in 0usize..3,
    ) {
        let backend = if backend_sel == 0 {
            InferenceBackend::SimulatedF32
        } else {
            InferenceBackend::NativeInt
        };
        let threads = [1usize, 2, 8][threads_idx];
        let (net, dataset) = trained_lenet(seed % 4);
        let samples = &dataset.test()[..24];
        let template = ErrorModel::uniform(0.02, 0.5, seed ^ 0xC4EC);
        // Revisit operating points so later probes hit warm checkpoints.
        let bers = [1e-3, 1e-2, 1e-3, 0.0];

        let probe_sequence = |batch: usize| {
            let session = EvalSession::new(&net, Precision::Int8, backend)
                .with_checkpoints(true);
            bers.iter()
                .map(|&ber| {
                    let mut memory =
                        ApproximateMemory::from_model(template.with_ber(ber), seed);
                    let acc = session.evaluate_concurrent_batched(samples, &mut memory, batch);
                    (acc.to_bits(), memory.stats())
                })
                .collect::<Vec<Outcome>>()
        };

        let pool = ThreadPool::new(threads);
        let reference = pool.install(|| probe_sequence(1));
        let batched = pool.install(|| probe_sequence(16));
        prop_assert_eq!(batched, reference, "{} {} threads", backend, threads);
    }
}
