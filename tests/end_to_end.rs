//! Cross-crate integration tests: the full EDEN flow from training through
//! device characterization, boosting, mapping and system-level accounting.

use eden::core::bounding::{BoundingLogic, CorrectionPolicy};
use eden::core::characterize::{coarse_characterize_session, CoarseConfig};
use eden::core::curricular::{CurricularConfig, CurricularTrainer};
use eden::core::faults::ApproximateMemory;
use eden::core::inference::InferenceBackend;
use eden::core::mapping::coarse_map;
use eden::core::EvalSession;
use eden::dnn::train::{TrainConfig, Trainer};
use eden::dnn::{data::SyntheticVision, zoo, Dataset, Network};
use eden::dram::characterize::{characterize_bank, CharacterizeConfig};
use eden::dram::fit::select_model;
use eden::dram::inject::Injector;
use eden::dram::{ApproxDramDevice, ErrorModel, OperatingPoint, Vendor};
use eden::sysim::{CpuSim, WorkloadProfile};
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
fn device_fitted_error_model_predicts_device_accuracy() {
    // The Figure 7 validation loop: accuracy under the fitted error model
    // should match accuracy under the simulated "real" device. The paper
    // validates this at operating points EDEN would actually use (small
    // accuracy drop), and reports expected accuracy — so the comparison uses
    // a mildly-aggressive operating point, a characterization with enough
    // rows/reads for stable parameter estimates, and means over a few
    // injection seeds.
    let (net, dataset) = trained_lenet(0);
    let device = ApproxDramDevice::new(Vendor::A, 17);
    let op = OperatingPoint::with_vdd_reduction(0.15);
    let samples = &dataset.test()[..40];

    let observations = characterize_bank(
        &device,
        0,
        &op,
        &CharacterizeConfig {
            rows_per_pattern: 4,
            bitlines_per_row: 1024,
            reads_per_row: 8,
            seed: 2,
        },
    );
    let fitted = select_model(&observations, 5).model;
    // The simulated device flips stored ones more often than stored zeros
    // under voltage scaling; a well-powered characterization must pick that
    // up rather than average it away.
    assert!(
        (fitted.expected_ber() - observations.observed_ber()).abs() / observations.observed_ber()
            < 0.1,
        "fitted BER {} should match observed BER {}",
        fitted.expected_ber(),
        observations.observed_ber()
    );

    let bounding =
        BoundingLogic::calibrated(&net, &dataset.train()[..16], 1.5, CorrectionPolicy::Zero);
    let partition = eden::dram::geometry::partitions(
        device.geometry(),
        eden::dram::geometry::PartitionGranularity::Bank,
    )[0];

    let session = EvalSession::new(&net, Precision::Int8, InferenceBackend::SimulatedF32);
    let mean_acc = |memory_for_seed: &mut dyn FnMut(u64) -> ApproximateMemory| {
        let seeds = [3u64, 4, 5];
        seeds
            .iter()
            .map(|&s| {
                let mut memory = memory_for_seed(s);
                session.evaluate_with_faults(samples, &mut memory)
            })
            .sum::<f32>()
            / seeds.len() as f32
    };

    let device_acc = mean_acc(&mut |s| {
        ApproximateMemory::from_injector(Injector::from_device(device, partition, op), s)
            .with_bounding(bounding)
    });
    let model_acc =
        mean_acc(&mut |s| ApproximateMemory::from_model(fitted, s).with_bounding(bounding));

    assert!(
        (device_acc - model_acc).abs() <= 0.15,
        "fitted model accuracy ({model_acc}) should track device accuracy ({device_acc})"
    );
    // This operating point must actually be usable — both paths well above
    // chance (1/8) and close to the reliable baseline.
    assert!(
        device_acc > 0.7,
        "device accuracy {device_acc} unexpectedly low"
    );
    assert!(
        model_acc > 0.7,
        "model accuracy {model_acc} unexpectedly low"
    );
}

#[test]
fn boosting_then_mapping_yields_reduced_parameters_and_valid_accuracy() {
    let (mut net, dataset) = trained_lenet(1);
    let template = ErrorModel::uniform(0.01, 0.5, 3);

    // Boost.
    CurricularTrainer::new(CurricularConfig {
        epochs: 3,
        step_epochs: 1,
        target_ber: 5e-3,
        ..CurricularConfig::default()
    })
    .retrain(&mut net, &dataset, &template);

    // Characterize.
    let bounding =
        BoundingLogic::calibrated(&net, &dataset.train()[..16], 1.5, CorrectionPolicy::Zero);
    let cfg = CoarseConfig {
        eval_samples: 32,
        iterations: 5,
        accuracy_drop: 0.02,
        ..CoarseConfig::default()
    };
    let mut session = EvalSession::new(&net, Precision::Int8, cfg.backend);
    let coarse =
        coarse_characterize_session(&mut session, &dataset, &template, Some(bounding), &cfg);
    assert!(coarse.max_tolerable_ber > 0.0);

    // Map to vendor A and verify the mapping's BER budget is honoured.
    let mapping = coarse_map(coarse.max_tolerable_ber, &Vendor::A.profile());
    let vendor = Vendor::A.profile();
    assert!(vendor.ber_voltage(mapping.vdd_reduction) <= coarse.max_tolerable_ber + 1e-12);
    assert!(vendor.ber_trcd(mapping.trcd_reduction_ns) <= coarse.max_tolerable_ber + 1e-12);

    // Accuracy at the mapped operating point's BER stays within budget.
    let op_ber = vendor.ber(&OperatingPoint::with_vdd_reduction(mapping.vdd_reduction));
    let mut memory =
        ApproximateMemory::from_model(template.with_ber(op_ber), 9).with_bounding(bounding);
    let acc = EvalSession::new(&net, Precision::Int8, InferenceBackend::SimulatedF32)
        .evaluate_with_faults(&dataset.test()[..48], &mut memory);
    assert!(
        acc >= coarse.accuracy_floor - 0.1,
        "accuracy {acc} at the mapped point fell far below the floor {}",
        coarse.accuracy_floor
    );
}

#[test]
fn system_level_gains_follow_the_mapping() {
    // Connect the DNN-side mapping to the system simulators: a larger
    // tolerable BER means a more aggressive operating point, which means
    // more DRAM energy savings on the CPU model.
    let vendor = Vendor::A.profile();
    let small = coarse_map(0.005, &vendor);
    let large = coarse_map(0.05, &vendor);

    let cpu = CpuSim::table4();
    let workload = WorkloadProfile::for_model(zoo::ModelId::Vgg16, Precision::Int8);
    let nominal = cpu.run(&workload, &OperatingPoint::nominal());
    let small_saving = cpu
        .run(
            &workload,
            &OperatingPoint::with_vdd_reduction(small.vdd_reduction),
        )
        .energy_reduction_vs(&nominal);
    let large_saving = cpu
        .run(
            &workload,
            &OperatingPoint::with_vdd_reduction(large.vdd_reduction),
        )
        .energy_reduction_vs(&nominal);
    assert!(large_saving > small_saving);
    assert!(large_saving > 0.2 && large_saving < 0.5);
}

#[test]
fn quantized_zoo_models_run_under_injection_for_all_precisions() {
    // Smoke-test the full precision × error-model matrix on one small model.
    let dataset = SyntheticVision::tiny(5);
    let net = zoo::lenet(&dataset.spec(), 5);
    let samples = &dataset.test()[..8];
    for precision in Precision::all() {
        let session = EvalSession::new(&net, precision, InferenceBackend::SimulatedF32);
        for model in [
            ErrorModel::uniform(0.01, 0.3, 1),
            ErrorModel::bitline(0.01, 0.3, 0.8, 1),
            ErrorModel::wordline(0.01, 0.3, 0.8, 1),
            ErrorModel::data_dependent(0.01, 0.4, 0.2, 1),
        ] {
            let mut memory = ApproximateMemory::from_model(model, 2);
            let acc = session.evaluate_with_faults(samples, &mut memory);
            assert!((0.0..=1.0).contains(&acc));
        }
    }
}
