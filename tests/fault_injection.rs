//! Integration tests for the fault-injection path: `ApproximateMemory` +
//! `EvalSession::evaluate_with_faults` across bit error rates.

use eden::core::faults::ApproximateMemory;
use eden::core::inference::InferenceBackend;
use eden::core::EvalSession;
use eden::dnn::train::{TrainConfig, Trainer};
use eden::dnn::{data::SyntheticVision, zoo, Dataset, Network};
use eden::dram::ErrorModel;
use eden::tensor::Precision;

fn trained_lenet(seed: u64) -> (Network, SyntheticVision) {
    let dataset = SyntheticVision::tiny(seed);
    let mut net = zoo::lenet(&dataset.spec(), seed);
    Trainer::new(TrainConfig {
        epochs: 4,
        ..TrainConfig::default()
    })
    .train(&mut net, &dataset);
    (net, dataset)
}

#[test]
fn accuracy_is_a_probability_at_every_bit_error_rate() {
    let (net, dataset) = trained_lenet(11);
    let samples = &dataset.test()[..24];
    let template = ErrorModel::uniform(0.01, 0.5, 7);

    for precision in [Precision::Int8, Precision::Fp32] {
        let session = EvalSession::new(&net, precision, InferenceBackend::SimulatedF32);
        for ber in [0.0, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.4] {
            let mut memory = ApproximateMemory::from_model(template.with_ber(ber), 3);
            let accuracy = session.evaluate_with_faults(samples, &mut memory);
            assert!(
                (0.0..=1.0).contains(&accuracy),
                "accuracy {accuracy} out of range at BER {ber} ({precision:?})"
            );
            if ber == 0.0 {
                assert_eq!(memory.stats().bit_flips, 0, "BER=0 must never flip a bit");
            } else if ber >= 1e-3 {
                // At tiny BERs the deterministic weak-cell map may contain no
                // weak cell in the addressed rows, so only assert flips where
                // they are statistically certain.
                assert!(
                    memory.stats().bit_flips > 0,
                    "BER {ber} injected no flips over {} loads",
                    memory.stats().loads
                );
            }
        }
    }
}

#[test]
fn zero_ber_inference_is_bit_exact_with_fault_free_inference() {
    let (net, dataset) = trained_lenet(12);
    let samples = &dataset.test()[..16];
    let template = ErrorModel::uniform(0.02, 0.5, 9);

    for precision in [
        Precision::Int4,
        Precision::Int8,
        Precision::Int16,
        Precision::Fp32,
    ] {
        let mut session = EvalSession::new(&net, precision, InferenceBackend::SimulatedF32);
        // Per-sample logits must match bit-exactly, not just the headline
        // accuracy: the zero-BER model must be indistinguishable from
        // reliable memory.
        for (x, _) in samples {
            let mut zero_memory = ApproximateMemory::from_model(template.with_ber(0.0), 5);
            let zero_logits = session.forward_with_faults(x, &mut zero_memory);
            let mut reliable_memory = ApproximateMemory::reliable(5);
            let reliable_logits = session.forward_with_faults(x, &mut reliable_memory);
            assert_eq!(
                zero_logits.data(),
                reliable_logits.data(),
                "zero-BER logits diverged from fault-free logits ({precision:?})"
            );
        }

        let mut zero_memory = ApproximateMemory::from_model(template.with_ber(0.0), 5);
        let zero_acc = session.evaluate_with_faults(samples, &mut zero_memory);
        let reliable_acc = session.evaluate_reliable(samples);
        assert_eq!(
            zero_acc, reliable_acc,
            "zero-BER accuracy diverged from fault-free accuracy ({precision:?})"
        );
    }
}

#[test]
fn high_ber_destroys_accuracy_and_low_ber_preserves_it() {
    let (net, dataset) = trained_lenet(13);
    let samples = &dataset.test()[..32];
    let template = ErrorModel::uniform(0.01, 0.5, 3);
    let mut session = EvalSession::new(&net, Precision::Int8, InferenceBackend::SimulatedF32);
    let baseline = session.evaluate_reliable(samples);

    let acc_at = |ber: f64, seed: u64| {
        let mut memory = ApproximateMemory::from_model(template.with_ber(ber), seed);
        session.evaluate_with_faults(samples, &mut memory)
    };

    // Mean over seeds: single-seed accuracy under injection is noisy.
    let mean = |ber: f64| (0..4).map(|s| acc_at(ber, s)).sum::<f32>() / 4.0;
    let low = mean(1e-5);
    let high = mean(0.3);
    let chance = 1.0 / dataset.spec().num_classes as f32;

    assert!(
        low >= baseline - 0.1,
        "BER 1e-5 should preserve accuracy (got {low}, baseline {baseline})"
    );
    assert!(
        high <= baseline - 0.2 || high <= chance + 0.15,
        "BER 0.3 should collapse accuracy (got {high}, baseline {baseline})"
    );
}
