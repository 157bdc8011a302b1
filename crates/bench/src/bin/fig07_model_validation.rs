//! Figure 7: LeNet accuracy obtained on "real" approximate DRAM devices
//! (the simulated devices of vendors A/B/C) versus accuracy obtained with the
//! fitted Error Model 0 — validating that the error models reproduce device
//! behaviour.

use eden_bench::report;
use eden_core::bounding::{BoundingLogic, CorrectionPolicy};
use eden_core::faults::ApproximateMemory;
use eden_core::inference::InferenceBackend;
use eden_core::session::EvalSession;
use eden_dnn::zoo::ModelId;
use eden_dnn::Dataset;
use eden_dram::characterize::{characterize_bank, CharacterizeConfig};
use eden_dram::fit::fit_model;
use eden_dram::geometry::{partitions, PartitionGranularity};
use eden_dram::inject::Injector;
use eden_dram::{ApproxDramDevice, ErrorModelKind, OperatingPoint, Vendor};
use eden_tensor::Precision;

fn main() {
    report::init_threads();
    report::header(
        "Figure 7",
        "LeNet accuracy: simulated real device (SoftMC stand-in) vs fitted Error Model 0",
    );
    let (net, dataset) = report::train_model(ModelId::LeNet, 6, 3);
    let samples = &dataset.test()[..96.min(dataset.test().len())];
    let bounding =
        BoundingLogic::calibrated(&net, &dataset.train()[..16], 1.5, CorrectionPolicy::Zero);
    let char_cfg = CharacterizeConfig {
        rows_per_pattern: 1,
        bitlines_per_row: 1024,
        reads_per_row: 3,
        seed: 9,
    };
    // Every device/model pair evaluates the same (net, int8, backend) triple,
    // so one session serves the whole figure.
    let session = EvalSession::new(&net, Precision::Int8, InferenceBackend::SimulatedF32);

    for vendor in Vendor::all() {
        let device = ApproxDramDevice::new(vendor, 50 + vendor as u64);
        let partition = partitions(device.geometry(), PartitionGranularity::Bank)[0];
        println!("\n{vendor} — voltage sweep");
        println!(
            "{:>8} {:>14} {:>16}",
            "VDD", "device acc", "Error Model 0 acc"
        );
        for &dv in &[0.10f32, 0.20, 0.25, 0.30, 0.35] {
            let op = OperatingPoint::with_vdd_reduction(dv);
            let obs = characterize_bank(&device, 0, &op, &char_cfg);
            let model = fit_model(ErrorModelKind::Uniform, &obs, 0);

            let mut dev_mem =
                ApproximateMemory::from_injector(Injector::from_device(device, partition, op), 1)
                    .with_bounding(bounding);
            let dev_acc = session.evaluate_with_faults(samples, &mut dev_mem);

            let mut model_mem = ApproximateMemory::from_model(model, 1).with_bounding(bounding);
            let model_acc = session.evaluate_with_faults(samples, &mut model_mem);

            println!("{:>7.2}V {:>13.3} {:>16.3}", op.vdd, dev_acc, model_acc);
        }
        println!("\n{vendor} — tRCD sweep");
        println!(
            "{:>8} {:>14} {:>16}",
            "tRCD", "device acc", "Error Model 0 acc"
        );
        for &dt in &[2.0f32, 4.0, 5.5, 7.0, 9.0] {
            let op = OperatingPoint::with_trcd_reduction(dt);
            let obs = characterize_bank(&device, 0, &op, &char_cfg);
            let model = fit_model(ErrorModelKind::Uniform, &obs, 0);
            let mut dev_mem =
                ApproximateMemory::from_injector(Injector::from_device(device, partition, op), 1)
                    .with_bounding(bounding);
            let dev_acc = session.evaluate_with_faults(samples, &mut dev_mem);
            let mut model_mem = ApproximateMemory::from_model(model, 1).with_bounding(bounding);
            let model_acc = session.evaluate_with_faults(samples, &mut model_mem);
            println!(
                "{:>6.1}ns {:>13.3} {:>16.3}",
                op.timing.trcd_ns, dev_acc, model_acc
            );
        }
    }
    println!("\npaper shape: the Error Model 0 curve tracks the real-device curve closely.");
}
