//! Quickstart: train a small DNN, run it on approximate DRAM, and see how
//! EDEN's bounding logic and curricular retraining keep its accuracy up.
//!
//! Run with: `cargo run --release --example quickstart`

use eden::core::bounding::{BoundingLogic, CorrectionPolicy};
use eden::core::curricular::{CurricularConfig, CurricularTrainer};
use eden::core::faults::ApproximateMemory;
use eden::core::inference::InferenceBackend;
use eden::core::EvalSession;
use eden::dnn::train::{TrainConfig, Trainer};
use eden::dnn::{data::SyntheticVision, zoo, Dataset};
use eden::dram::ErrorModel;
use eden::tensor::Precision;

fn main() {
    // 1. Train a LeNet baseline on reliable memory. (The default learning
    //    rate of 0.05 diverges on the 8-class `small` dataset; 0.02 trains
    //    to full accuracy.)
    let dataset = SyntheticVision::small(42);
    let mut net = zoo::lenet(&dataset.spec(), 1);
    let report = Trainer::new(TrainConfig {
        learning_rate: 0.02,
        ..TrainConfig::default()
    })
    .train(&mut net, &dataset);
    println!(
        "baseline: train accuracy {:.3}, test accuracy {:.3}",
        report.final_train_accuracy, report.final_test_accuracy
    );

    // 2. Evaluate it on approximate DRAM at increasing bit error rates.
    let template = ErrorModel::uniform(0.01, 0.5, 7);
    let bounding =
        BoundingLogic::calibrated(&net, &dataset.train()[..16], 1.5, CorrectionPolicy::Zero);
    // One evaluation session per network: it caches the quantized weight
    // images and weak-cell maps across the sweep's operating points.
    let session = EvalSession::new(&net, Precision::Int8, InferenceBackend::SimulatedF32);
    println!("\nBER sweep of the *baseline* DNN (int8, with bounding):");
    for &ber in &[1e-4, 1e-3, 5e-3, 2e-2, 5e-2] {
        let mut memory =
            ApproximateMemory::from_model(template.with_ber(ber), 3).with_bounding(bounding);
        let acc = session.evaluate_with_faults(&dataset.test()[..96], &mut memory);
        println!("  BER {ber:>8.1e} → accuracy {acc:.3}");
    }

    // 3. Boost the DNN with curricular retraining and re-evaluate.
    let mut boosted = net.clone();
    let trainer = CurricularTrainer::new(CurricularConfig {
        epochs: 6,
        step_epochs: 2,
        target_ber: 1e-2,
        // Fine-tuning rate: the default 0.01 is aggressive enough to undo
        // the baseline on this dataset once errors are being injected.
        learning_rate: 2e-3,
        ..CurricularConfig::default()
    });
    let retrain = trainer.retrain(&mut boosted, &dataset, &template);
    println!(
        "\nafter curricular retraining: reliable accuracy {:.3}, accuracy at BER 1e-2 {:.3}",
        retrain.final_reliable_accuracy, retrain.final_approximate_accuracy
    );

    println!("\nBER sweep of the *boosted* DNN:");
    let boosted_bounding = BoundingLogic::calibrated(
        &boosted,
        &dataset.train()[..16],
        1.5,
        CorrectionPolicy::Zero,
    );
    let session = EvalSession::new(&boosted, Precision::Int8, InferenceBackend::SimulatedF32);
    for &ber in &[1e-4, 1e-3, 5e-3, 2e-2, 5e-2] {
        let mut memory = ApproximateMemory::from_model(template.with_ber(ber), 3)
            .with_bounding(boosted_bounding);
        let acc = session.evaluate_with_faults(&dataset.test()[..96], &mut memory);
        println!("  BER {ber:>8.1e} → accuracy {acc:.3}");
    }
}
