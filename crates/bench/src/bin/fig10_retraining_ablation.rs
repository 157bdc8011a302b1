//! Figure 10: accuracy-vs-BER curves of the boosted ResNet.
//! Left: retraining with a good-fit vs a poor-fit error model.
//! Right: curricular vs non-curricular retraining (both with the good fit).

use eden_bench::report;
use eden_core::bounding::{BoundingLogic, CorrectionPolicy};
use eden_core::curricular::{CurricularConfig, CurricularTrainer};
use eden_core::inference::InferenceBackend;
use eden_core::session::EvalSession;
use eden_dnn::zoo::ModelId;
use eden_dnn::{Dataset, Network};
use eden_dram::ErrorModel;
use eden_tensor::Precision;

const BERS: [f64; 5] = [1e-4, 1e-3, 5e-3, 2e-2, 1e-1];

fn curve(
    session: &mut EvalSession,
    dataset: &eden_dnn::data::SyntheticVision,
    eval_model: &ErrorModel,
) -> Vec<(f64, f32)> {
    let bounding = BoundingLogic::calibrated(
        session.net(),
        &dataset.train()[..16],
        1.5,
        CorrectionPolicy::Zero,
    );
    session.accuracy_vs_ber(&dataset.test()[..64], eval_model, &BERS, Some(bounding), 17)
}

fn int8_session(net: &Network) -> EvalSession<'_> {
    EvalSession::new(net, Precision::Int8, InferenceBackend::SimulatedF32)
}

fn print_curves(label: &str, curves: &[(&str, Vec<(f64, f32)>)]) {
    println!("\n{label}");
    print!("{:<26}", "BER");
    for b in BERS {
        print!(" {:>9.0e}", b);
    }
    println!();
    for (name, c) in curves {
        print!("{:<26}", name);
        for (_, acc) in c {
            print!(" {:>9}", report::acc(*acc));
        }
        println!();
    }
}

fn main() {
    report::init_threads();
    report::header(
        "Figure 10",
        "retraining ablations: error-model fit quality and curricular schedule",
    );
    let (baseline, dataset) = report::train_model(ModelId::ResNet, 6, 2);

    // The device errors are data-dependent with a bitline flavour; the
    // "good fit" captures that, the "poor fit" is a mis-parameterized
    // uniform model (far larger weak-cell failure probability and no
    // data dependence).
    let good_fit = ErrorModel::data_dependent(0.02, 0.65, 0.35, 3);
    let poor_fit = ErrorModel::uniform(0.4, 0.02, 99);
    let eval_model = good_fit;

    let retrain = |model: &ErrorModel, curricular: bool, seed: u64| -> Network {
        let mut net = baseline.clone();
        CurricularTrainer::new(CurricularConfig {
            epochs: 4,
            step_epochs: 1,
            target_ber: 1e-2,
            curricular,
            seed,
            ..CurricularConfig::default()
        })
        .retrain(&mut net, &dataset, model);
        net
    };

    let good_net = retrain(&good_fit, true, 1);
    let poor_net = retrain(&poor_fit, true, 2);
    let noncurricular_net = retrain(&good_fit, false, 3);
    // One session per net: the baseline and good-fit curves appear in both
    // panels and reuse their session.
    let mut baseline_session = int8_session(&baseline);
    let mut good_session = int8_session(&good_net);
    let mut poor_session = int8_session(&poor_net);
    let mut noncurricular_session = int8_session(&noncurricular_net);

    print_curves(
        "left: fit quality (evaluated against the good-fit model's errors)",
        &[
            (
                "baseline (no retraining)",
                curve(&mut baseline_session, &dataset, &eval_model),
            ),
            (
                "poor-fit retraining",
                curve(&mut poor_session, &dataset, &eval_model),
            ),
            (
                "good-fit retraining",
                curve(&mut good_session, &dataset, &eval_model),
            ),
        ],
    );
    print_curves(
        "right: schedule (both retrained with the good-fit model)",
        &[
            (
                "baseline (no retraining)",
                curve(&mut baseline_session, &dataset, &eval_model),
            ),
            (
                "non-curricular retraining",
                curve(&mut noncurricular_session, &dataset, &eval_model),
            ),
            (
                "curricular retraining",
                curve(&mut good_session, &dataset, &eval_model),
            ),
        ],
    );
    println!("\npaper shape: good-fit curricular retraining shifts the accuracy knee to a BER");
    println!("5-10x higher; poor-fit or non-curricular retraining gives much smaller gains.");
}
