//! Figure 9: LeNet accuracy on the (simulated) real approximate DRAM device,
//! before and after EDEN's curricular-retraining boost, as a function of
//! supply voltage and of tRCD.

use eden_bench::report;
use eden_core::bounding::{BoundingLogic, CorrectionPolicy};
use eden_core::curricular::{CurricularConfig, CurricularTrainer};
use eden_core::faults::ApproximateMemory;
use eden_core::inference::InferenceBackend;
use eden_core::session::EvalSession;
use eden_dnn::zoo::ModelId;
use eden_dnn::{Dataset, Network};
use eden_dram::characterize::{characterize_bank, CharacterizeConfig};
use eden_dram::fit::select_model;
use eden_dram::geometry::{partitions, PartitionGranularity};
use eden_dram::inject::Injector;
use eden_dram::{ApproxDramDevice, OperatingPoint, Vendor};
use eden_tensor::Precision;

fn device_accuracy(
    session: &mut EvalSession,
    dataset: &eden_dnn::data::SyntheticVision,
    device: &ApproxDramDevice,
    op: OperatingPoint,
) -> f32 {
    let partition = partitions(device.geometry(), PartitionGranularity::Bank)[0];
    let bounding = BoundingLogic::calibrated(
        session.net(),
        &dataset.train()[..16],
        1.5,
        CorrectionPolicy::Zero,
    );
    let mut memory =
        ApproximateMemory::from_injector(Injector::from_device(*device, partition, op), 1)
            .with_bounding(bounding);
    session.evaluate_with_faults(&dataset.test()[..96], &mut memory)
}

fn int8_session(net: &Network) -> EvalSession<'_> {
    EvalSession::new(net, Precision::Int8, InferenceBackend::SimulatedF32)
}

fn main() {
    report::init_threads();
    report::header(
        "Figure 9",
        "LeNet on the approximate device: baseline vs boosted (curricular retraining)",
    );
    let (baseline, dataset) = report::train_model(ModelId::LeNet, 6, 3);
    let device = ApproxDramDevice::new(Vendor::A, 77);

    // Boost against the error model fitted at an aggressive profiling point.
    let obs = characterize_bank(
        &device,
        0,
        &OperatingPoint::with_vdd_reduction(0.30),
        &CharacterizeConfig {
            rows_per_pattern: 1,
            bitlines_per_row: 1024,
            reads_per_row: 3,
            seed: 4,
        },
    );
    let fitted = select_model(&obs, 4).model;
    let mut boosted = baseline.clone();
    CurricularTrainer::new(CurricularConfig {
        epochs: 6,
        step_epochs: 2,
        target_ber: fitted.expected_ber().max(1e-3),
        ..CurricularConfig::default()
    })
    .retrain(&mut boosted, &dataset, &fitted);
    let mut baseline_session = int8_session(&baseline);
    let mut boosted_session = int8_session(&boosted);

    println!("\nvoltage sweep (accuracy)");
    println!("{:>8} {:>10} {:>10}", "VDD", "baseline", "boosted");
    for &dv in &[0.05f32, 0.15, 0.25, 0.30, 0.35] {
        let op = OperatingPoint::with_vdd_reduction(dv);
        println!(
            "{:>7.2}V {:>10.3} {:>10.3}",
            op.vdd,
            device_accuracy(&mut baseline_session, &dataset, &device, op),
            device_accuracy(&mut boosted_session, &dataset, &device, op)
        );
    }

    println!("\ntRCD sweep (accuracy)");
    println!("{:>8} {:>10} {:>10}", "tRCD", "baseline", "boosted");
    for &dt in &[2.0f32, 4.0, 5.5, 7.0, 9.0] {
        let op = OperatingPoint::with_trcd_reduction(dt);
        println!(
            "{:>6.1}ns {:>10.3} {:>10.3}",
            op.timing.trcd_ns,
            device_accuracy(&mut baseline_session, &dataset, &device, op),
            device_accuracy(&mut boosted_session, &dataset, &device, op)
        );
    }
    println!("\npaper shape: the boosted DNN sustains its accuracy ~0.25 V / ~4.5 ns further");
    println!("into the reduced-parameter regime than the baseline DNN.");
}
