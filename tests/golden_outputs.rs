//! Golden paper outputs: a Figure 8-shaped tolerance sweep, one Figure 11
//! fine-grained characterization and Figure 12-shaped multi-module plans on
//! LeNet, output-logit digests of the native integer backend on VGG and of
//! the f32-plan layers on ResNet, MobileNet and simulated VGG, a
//! baseline training run on ResNet, a Table 3-shaped chain (curricular
//! retraining, coarse characterization, coarse mapping) on LeNet and Table
//! 2-shaped logits of the trained LeNet and ResNet quantized at every
//! precision, pinned to committed values.
//!
//! Every other equivalence suite compares two executors of the same code
//! base against each other; this one compares against numbers recorded once
//! and committed in `tests/golden/paper_outputs.txt`, so a refactor that
//! changes both sides of an equivalence in the same way still fails here.
//! Each line records the exact f32 accuracy bits and the `MemoryStats` of
//! one point (or the exact f64 tolerance bits of one characterized site).
//! Accuracy over a few dozen samples moves only when an argmax flips, so
//! the logit lines hash every output bit: a kernel that is off by one in a
//! single accumulator still fails here.
//!
//! The values are a pure function of the code: a change here means the
//! figures the paper binaries print have moved. Regenerate the file only
//! for an intended numerical change, and say so in the change description.

use eden::core::bounding::{BoundingLogic, CorrectionPolicy};
use eden::core::characterize::FineCharacterization;
use eden::core::characterize::{coarse_characterize_session, CoarseConfig};
use eden::core::characterize::{fine_characterize_session, FineConfig};
use eden::core::curricular::{CurricularConfig, CurricularTrainer};
use eden::core::faults::ApproximateMemory;
use eden::core::inference::InferenceBackend;
use eden::core::mapping::{benefit_traffic_score, coarse_map, multi_module_map, MultiModuleConfig};
use eden::core::session::EvalSession;
use eden::dnn::network::WeightImage;
use eden::dnn::qexec::{forward_native_batch_observed, NativeWeights, QuantScratch};
use eden::dnn::train::{TrainConfig, Trainer};
use eden::dnn::{data::SyntheticVision, zoo, Dataset, FaultHook, Network};
use eden::dram::characterize::CharacterizeConfig;
use eden::dram::geometry::{DramGeometry, Partition};
use eden::dram::{ApproxDramDevice, DramModule, ErrorModel, MemorySystem, OperatingPoint, Vendor};
use eden::tensor::{Precision, Tensor};
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/paper_outputs.txt");

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

/// The fig08 sweep on LeNet: native int4/int8/int16, simulated int8 and
/// simulated FP32, all four error models (Error Model 3 is the only one
/// whose failure probability depends on the stored bit), three BERs, with
/// bounding. Each
/// curve comes from `accuracy_vs_ber`; each point is re-evaluated on its own
/// memory to record the `MemoryStats` the curve does not return.
fn tolerance_curves(out: &mut String) {
    let (net, dataset) = trained_lenet(3);
    let samples = &dataset.test()[..48];
    let bounding =
        BoundingLogic::calibrated(&net, &dataset.train()[..16], 1.5, CorrectionPolicy::Zero);
    let bers = [1e-3, 1e-2, 5e-2];
    let seed = 11;
    let configs = [
        (Precision::Int4, InferenceBackend::NativeInt),
        (Precision::Int8, InferenceBackend::NativeInt),
        (Precision::Int16, InferenceBackend::NativeInt),
        (Precision::Int8, InferenceBackend::SimulatedF32),
        (Precision::Fp32, InferenceBackend::SimulatedF32),
    ];
    let templates = [
        ("uniform", ErrorModel::uniform(0.02, 0.5, 5)),
        ("wordline", ErrorModel::wordline(0.02, 0.5, 0.9, 5)),
        ("bitline", ErrorModel::bitline(0.02, 0.5, 0.9, 5)),
        (
            "data_dependent",
            ErrorModel::data_dependent(0.02, 0.8, 0.2, 5),
        ),
    ];
    for (precision, backend) in configs {
        let mut session = EvalSession::new(&net, precision, backend);
        for (name, template) in &templates {
            let curve = session.accuracy_vs_ber(samples, template, &bers, Some(bounding), seed);
            for (ber, acc) in curve {
                let mut memory = ApproximateMemory::from_model(template.with_ber(ber), seed)
                    .with_bounding(bounding);
                let again = session.evaluate_with_faults(samples, &mut memory);
                assert_eq!(
                    again.to_bits(),
                    acc.to_bits(),
                    "{backend} {precision} {name} {ber}"
                );
                let s = memory.stats();
                writeln!(
                    out,
                    "curve {backend} {precision} {name} ber={ber:e} acc={:#010x} loads={} flips={} corrections={}",
                    acc.to_bits(),
                    s.loads,
                    s.bit_flips,
                    s.corrections
                )
                .unwrap();
            }
        }
    }
}

/// One Figure 11 per-data-type characterization through a native int8
/// session, with bounding. Returns the characterized network, its dataset,
/// the bounding logic and the characterization for the Figure 12 plans.
fn fine_characterization(
    out: &mut String,
) -> (
    Network,
    SyntheticVision,
    BoundingLogic,
    FineCharacterization,
) {
    let (net, dataset) = trained_lenet(2);
    let template = ErrorModel::uniform(0.01, 0.5, 3);
    let bounding =
        BoundingLogic::calibrated(&net, &dataset.train()[..16], 1.5, CorrectionPolicy::Zero);
    let cfg = FineConfig {
        eval_samples: 24,
        max_rounds: 8,
        bootstrap_ber: 2e-3,
        ..FineConfig::default()
    };
    let mut session = EvalSession::new(&net, Precision::Int8, InferenceBackend::NativeInt);
    let fine = fine_characterize_session(&mut session, &dataset, &template, Some(bounding), &cfg);
    writeln!(
        out,
        "fine baseline={:#010x} floor={:#010x}",
        fine.baseline_accuracy.to_bits(),
        fine.accuracy_floor.to_bits()
    )
    .unwrap();
    for (info, ber) in &fine.tolerances {
        writeln!(
            out,
            "fine site={} elements={} ber={:#018x}",
            info.site,
            info.elements,
            ber.to_bits()
        )
        .unwrap();
    }
    (net, dataset, bounding, fine)
}

/// Two simulated DRAM modules (vendor A with voltage reductions, vendor B
/// with `tRCD` reductions, nominal on both) of two small partitions each,
/// over 64-byte rows so the plan's sites start at many row offsets and the
/// largest site must be split across partitions.
fn two_module_system() -> MemorySystem {
    let geometry = DramGeometry {
        banks: 2,
        subarrays_per_bank: 2,
        rows_per_subarray: 512,
        row_bytes: 64,
    };
    let parts: Vec<Partition> = (0..2)
        .map(|i| Partition {
            index: i,
            bank: i,
            first_subarray: i,
            subarrays: 1,
            capacity_bytes: 24 * geometry.row_bytes as u64,
        })
        .collect();
    let cfg = CharacterizeConfig {
        rows_per_pattern: 1,
        bitlines_per_row: 64,
        reads_per_row: 1,
        seed: 9,
    };
    let module = |vendor, seed, ops: &[OperatingPoint]| {
        DramModule::characterize(
            ApproxDramDevice::with_geometry(vendor, geometry, seed),
            &parts,
            ops,
            &cfg,
        )
    };
    MemorySystem::new(vec![
        module(
            Vendor::A,
            41,
            &[
                OperatingPoint::nominal(),
                OperatingPoint::with_vdd_reduction(0.15),
                OperatingPoint::with_vdd_reduction(0.30),
            ],
        ),
        module(
            Vendor::B,
            42,
            &[
                OperatingPoint::nominal(),
                OperatingPoint::with_trcd_reduction(3.0),
                OperatingPoint::with_trcd_reduction(5.5),
            ],
        ),
    ])
}

/// Figure 12-shaped multi-module mapping: the Figure 11 characterization
/// (tolerances scaled up so the plan reaches the reduced operating points)
/// mapped by `multi_module_map` onto a two-module device system, lowered
/// onto a reliable memory and evaluated — every mapped load is a read of
/// the simulated device at its partition's operating point.
fn multi_module_plans(
    out: &mut String,
    net: &Network,
    dataset: &SyntheticVision,
    bounding: BoundingLogic,
    fine: &FineCharacterization,
) {
    let mut scaled = fine.clone();
    for (_, ber) in &mut scaled.tolerances {
        *ber = (*ber * 4.0).min(0.2);
    }
    let system = two_module_system();
    let samples = &dataset.test()[..24];
    for (precision, backend) in [
        (Precision::Int4, InferenceBackend::NativeInt),
        (Precision::Int8, InferenceBackend::NativeInt),
        (Precision::Int16, InferenceBackend::NativeInt),
        (Precision::Fp32, InferenceBackend::SimulatedF32),
    ] {
        let plan = multi_module_map(
            &scaled,
            &system,
            precision,
            &MultiModuleConfig::default(),
            &benefit_traffic_score,
        );
        let spans: usize = plan.placements.iter().map(|p| p.spans.len()).sum();
        let session = EvalSession::new(net, precision, backend);
        let mut memory = ApproximateMemory::reliable(23).with_bounding(bounding);
        plan.apply_to(&mut memory, &system);
        let acc = session.evaluate_with_faults(samples, &mut memory);
        let s = memory.stats();
        writeln!(
            out,
            "plan {backend} {precision} modules=2 spans={spans} unmapped={} mapped={:#018x} acc={:#010x} loads={} flips={} corrections={}",
            plan.unmapped.len(),
            plan.mapped_fraction(precision).to_bits(),
            acc.to_bits(),
            s.loads,
            s.bit_flips,
            s.corrections
        )
        .unwrap();
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

/// FNV-1a over the bit patterns of every logit of every output.
fn logit_digest(outputs: &[Tensor]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in outputs.iter().flat_map(|t| t.data()) {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One `group` line: weights loaded whole from corrupted copies of the
/// clean images ([`corrupted_images`], [`NativeWeights::refresh_clean`])
/// into `weights`' plan, then `inputs` as one group, each sample on its own
/// lane `memory.fork(j)`. `label` names the point.
#[allow(clippy::too_many_arguments)]
fn group_logits(
    out: &mut String,
    label: &str,
    net: &Network,
    mut weights: NativeWeights,
    inputs: &[Tensor],
    precision: Precision,
    model: ErrorModel,
    seed: u64,
) {
    let mut memory = ApproximateMemory::from_model(model, seed);
    memory.preallocate(net, precision);
    let images = corrupted_images(&net.weight_images(precision), &mut memory);
    weights.refresh_clean(&images);
    let mut lanes: Vec<ApproximateMemory> =
        (0..inputs.len() as u64).map(|j| memory.fork(j)).collect();
    let logits = forward_native_batch_observed(
        net,
        &weights,
        inputs,
        &vec![0; inputs.len()],
        precision,
        &mut lanes,
        &mut QuantScratch::new(),
        |_, _, _, _| {},
    );
    for lane in &lanes {
        memory.merge_stats(lane.stats());
    }
    let s = memory.stats();
    writeln!(
        out,
        "logits group {label} ber=1e-1 digest={:#018x} loads={} flips={} corrections={}",
        logit_digest(&logits),
        s.loads,
        s.bit_flips,
        s.corrections
    )
    .unwrap();
}

/// The error models of the logit lines, before their BER is set.
fn logit_templates() -> [(&'static str, ErrorModel); 2] {
    [
        ("uniform", ErrorModel::uniform(0.02, 0.5, 7)),
        ("wordline", ErrorModel::wordline(0.02, 0.5, 0.9, 7)),
    ]
}

/// Output logits of the native integer backend on an untrained `vgg_mini`
/// (reduction depths 27 to 512, padded 3×3 convolutions) at BER 1e-1,
/// where corrupted int16 words reach −32768. Two paths per point:
///
/// * `group`: 16 samples as one group ([`group_logits`]);
/// * `session`: 4 samples one at a time through
///   [`EvalSession::forward_with_faults`], whose weights are sparse
///   corruption overlays on the clean baseline.
fn vgg_logits(out: &mut String) {
    let dataset = SyntheticVision::small(4);
    let net = zoo::vgg_mini(&dataset.spec(), 4);
    let inputs: Vec<Tensor> = dataset.test()[..16]
        .iter()
        .map(|(x, _)| x.clone())
        .collect();
    let seed = 17;
    for precision in [Precision::Int4, Precision::Int8, Precision::Int16] {
        let session = EvalSession::new(&net, precision, InferenceBackend::NativeInt);
        for (name, template) in &logit_templates() {
            let model = template.with_ber(1e-1);
            let label = format!("native-int {precision} {name}");
            let weights = NativeWeights::prepare(&net);
            group_logits(out, &label, &net, weights, &inputs, precision, model, seed);

            let mut memory = ApproximateMemory::from_model(model, seed);
            let logits: Vec<Tensor> = inputs[..4]
                .iter()
                .map(|x| session.forward_with_faults(x, &mut memory))
                .collect();
            let s = memory.stats();
            writeln!(
                out,
                "logits session native-int {precision} {name} ber=1e-1 digest={:#018x} loads={} flips={} corrections={}",
                logit_digest(&logits),
                s.loads,
                s.bit_flips,
                s.corrections
            )
            .unwrap();
        }
    }
}

/// Group logits at BER 1e-1 of the plans whose layers run on f32 over
/// dequantized IFMs, 16 samples per group on untrained networks:
/// `resnet_mini` native at every integer precision (its residual blocks
/// run on the f32 plan), `mobilenet_mini` native int8 (its depthwise convs
/// are single-channel f32 convolutions) and `vgg_mini` simulated int8
/// (every layer on f32).
fn f32_plan_logits(out: &mut String) {
    let dataset = SyntheticVision::small(4);
    let inputs: Vec<Tensor> = dataset.test()[..16]
        .iter()
        .map(|(x, _)| x.clone())
        .collect();
    let resnet = zoo::resnet_mini(&dataset.spec(), 4);
    let mobilenet = zoo::mobilenet_mini(&dataset.spec(), 4);
    let vgg = zoo::vgg_mini(&dataset.spec(), 4);
    let seed = 19;
    let points = [
        ("resnet", &resnet, Precision::Int4, false),
        ("resnet", &resnet, Precision::Int8, false),
        ("resnet", &resnet, Precision::Int16, false),
        ("mobilenet", &mobilenet, Precision::Int8, false),
        ("vgg", &vgg, Precision::Int8, true),
    ];
    for (model_name, net, precision, simulated) in points {
        let (backend, weights) = if simulated {
            (
                InferenceBackend::SimulatedF32,
                NativeWeights::simulated(net),
            )
        } else {
            (InferenceBackend::NativeInt, NativeWeights::prepare(net))
        };
        for (name, template) in &logit_templates() {
            let label = format!("{backend} {precision} {model_name} {name}");
            let model = template.with_ber(1e-1);
            let weights = weights.clone();
            group_logits(out, &label, net, weights, &inputs, precision, model, seed);
        }
    }
}

/// FNV-1a over the bit patterns of every parameter of `net`, in visit
/// order.
fn param_digest(net: &Network) -> u64 {
    let mut params = Vec::new();
    net.visit_params_ref(&mut |_, t| params.push(t.clone()));
    logit_digest(&params)
}

/// Baseline training of `resnet_mini` (convolutions, channel norms, residual
/// projections, a dense classifier): per-epoch loss bits, every trained
/// parameter bit, and the output logits of pure forward passes — which read
/// the norms' running statistics, so those are pinned too. Returns the
/// trained network and its dataset for the Table 2 lines.
fn baseline_training(out: &mut String) -> (Network, SyntheticVision) {
    let dataset = SyntheticVision::tiny(6);
    let mut net = zoo::resnet_mini(&dataset.spec(), 6);
    let report = Trainer::new(TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    })
    .train(&mut net, &dataset);
    for (epoch, loss) in report.epoch_losses.iter().enumerate() {
        writeln!(
            out,
            "train resnet epoch={epoch} loss={:#010x}",
            loss.to_bits()
        )
        .unwrap();
    }
    let logits: Vec<Tensor> = dataset.test()[..8]
        .iter()
        .map(|(x, _)| net.forward(x))
        .collect();
    writeln!(
        out,
        "train resnet train_acc={:#010x} test_acc={:#010x} params={:#018x} logits={:#018x}",
        report.final_train_accuracy.to_bits(),
        report.final_test_accuracy.to_bits(),
        param_digest(&net),
        logit_digest(&logits)
    )
    .unwrap();
    (net, dataset)
}

/// The Table 3 chain on LeNet: curricular retraining (boost), then
/// coarse-grained characterization of the boosted DNN at FP32 and int8,
/// then the coarse ΔVDD / ΔtRCD mapping of each tolerable BER onto the
/// vendor-A device.
fn table3_chain(out: &mut String) {
    let (mut net, dataset) = trained_lenet(4);
    let template = ErrorModel::uniform(0.02, 0.5, 7);
    let report = CurricularTrainer::new(CurricularConfig {
        epochs: 3,
        step_epochs: 1,
        target_ber: 1e-2,
        ..CurricularConfig::default()
    })
    .retrain(&mut net, &dataset, &template);
    for (ber, loss) in &report.epochs {
        writeln!(
            out,
            "retrain lenet ber={:#018x} loss={:#010x}",
            ber.to_bits(),
            loss.to_bits()
        )
        .unwrap();
    }
    writeln!(
        out,
        "retrain lenet reliable={:#010x} approximate={:#010x} params={:#018x}",
        report.final_reliable_accuracy.to_bits(),
        report.final_approximate_accuracy.to_bits(),
        param_digest(&net)
    )
    .unwrap();
    let vendor = Vendor::A.profile();
    for (precision, backend) in [
        (Precision::Fp32, InferenceBackend::SimulatedF32),
        (Precision::Int8, InferenceBackend::NativeInt),
    ] {
        let bounding =
            BoundingLogic::calibrated(&net, &dataset.train()[..16], 1.5, CorrectionPolicy::Zero);
        let mut session = EvalSession::new(&net, precision, backend);
        let coarse = coarse_characterize_session(
            &mut session,
            &dataset,
            &template,
            Some(bounding),
            &CoarseConfig {
                eval_samples: 48,
                iterations: 6,
                accuracy_drop: 0.01,
                backend,
                ..CoarseConfig::default()
            },
        );
        let mapping = coarse_map(coarse.max_tolerable_ber, &vendor);
        writeln!(
            out,
            "table3 lenet {backend} {precision} baseline={:#010x} max_ber={:#018x} dvdd={:#010x} dtrcd={:#010x}",
            coarse.baseline_accuracy.to_bits(),
            coarse.max_tolerable_ber.to_bits(),
            mapping.vdd_reduction.to_bits(),
            mapping.trcd_reduction_ns.to_bits()
        )
        .unwrap();
    }
}

/// The Table 2 weights: each trained network post-training quantized at
/// every precision, pinned by the logits of pure forward passes.
fn table2_quantized_logits(out: &mut String, nets: &[(&str, &Network, &SyntheticVision)]) {
    for &(name, net, dataset) in nets {
        for precision in Precision::all() {
            let mut quantized = net.clone();
            quantized.load_clean_weights(&net.weight_images(precision));
            let logits: Vec<Tensor> = dataset.test()[..8]
                .iter()
                .map(|(x, _)| quantized.forward(x))
                .collect();
            writeln!(
                out,
                "table2 {name} {precision} logits={:#018x}",
                logit_digest(&logits)
            )
            .unwrap();
        }
    }
}

#[test]
fn paper_outputs_match_the_committed_golden_values() {
    let mut actual = String::new();
    tolerance_curves(&mut actual);
    let (net, dataset, bounding, fine) = fine_characterization(&mut actual);
    multi_module_plans(&mut actual, &net, &dataset, bounding, &fine);
    vgg_logits(&mut actual);
    f32_plan_logits(&mut actual);
    let (resnet, resnet_data) = baseline_training(&mut actual);
    table3_chain(&mut actual);
    table2_quantized_logits(
        &mut actual,
        &[("lenet", &net, &dataset), ("resnet", &resnet, &resnet_data)],
    );
    if actual != GOLDEN {
        let expected: Vec<&str> = GOLDEN.lines().collect();
        for (i, line) in actual.lines().enumerate() {
            if expected.get(i) != Some(&line) {
                eprintln!("line {}: expected {:?}", i + 1, expected.get(i));
                eprintln!("line {}: actual   {line:?}", i + 1);
            }
        }
        panic!(
            "paper outputs differ from tests/golden/paper_outputs.txt \
             ({} actual lines, {} golden lines); actual output:\n{actual}",
            actual.lines().count(),
            expected.len()
        );
    }
}
