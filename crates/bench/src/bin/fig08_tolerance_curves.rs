//! Figure 8: ResNet accuracy vs bit error rate, for each of the four error
//! models and each numeric precision (int4/int8/int16/FP32).
//!
//! Pass `--detail` to also print the Section 6.3 observations (DNN-size
//! effect and accuracy collapse without bounding), and
//! `--backend simulated|native` to pick the inference engine (the native
//! integer engine reproduces the same curves faster for the integer
//! precisions; FP32 always runs on the simulated path).

use eden_bench::report;
use eden_core::bounding::{BoundingLogic, CorrectionPolicy};
use eden_core::session::EvalSession;
use eden_dnn::zoo::ModelId;
use eden_dnn::Dataset;
use eden_dram::{ErrorModel, ErrorModelKind};
use eden_tensor::Precision;

fn template(kind: ErrorModelKind, seed: u64) -> ErrorModel {
    match kind {
        ErrorModelKind::Uniform => ErrorModel::uniform(0.02, 0.5, seed),
        ErrorModelKind::Bitline => ErrorModel::bitline(0.02, 0.5, 0.9, seed),
        ErrorModelKind::Wordline => ErrorModel::wordline(0.02, 0.5, 0.9, seed),
        ErrorModelKind::DataDependent => ErrorModel::data_dependent(0.02, 0.7, 0.3, seed),
    }
}

fn main() {
    report::init_threads();
    let backend = report::parse_backend();
    let detail = std::env::args().any(|a| a == "--detail");
    report::header(
        "Figure 8",
        "ResNet accuracy vs BER for each error model and precision",
    );
    let bers = [1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1];
    let (net, dataset) = report::train_model(ModelId::ResNet, 6, 2);
    let samples = &dataset.test()[..64.min(dataset.test().len())];
    let bounding =
        BoundingLogic::calibrated(&net, &dataset.train()[..16], 1.5, CorrectionPolicy::Zero);

    // One session per precision, reused across all four error-model kinds:
    // the weight bit images and corrupted-weight state depend only on the
    // precision, so the 4 kinds × |precisions| sweeps share them.
    let mut sessions: Vec<EvalSession> = Precision::all()
        .iter()
        .map(|&p| EvalSession::new(&net, p, backend))
        .collect();
    for kind in ErrorModelKind::all() {
        println!("\n{kind}");
        print!("{:<8}", "prec");
        for b in &bers {
            print!(" {:>9.0e}", b);
        }
        println!();
        for session in sessions.iter_mut() {
            let curve =
                session.accuracy_vs_ber(samples, &template(kind, 5), &bers, Some(bounding), 11);
            print!("{:<8}", session.precision().to_string());
            for (_, acc) in curve {
                print!(" {:>9}", report::acc(acc));
            }
            println!();
        }
    }

    if detail {
        println!("\nSection 6.3 detail — DNN size effect (accuracy at BER 1e-2, int8):");
        for id in [
            ModelId::Vgg16,
            ModelId::ResNet,
            ModelId::SqueezeNet,
            ModelId::LeNet,
        ] {
            let (m, d) = report::train_model(id, 5, 4);
            let b = BoundingLogic::calibrated(&m, &d.train()[..16], 1.5, CorrectionPolicy::Zero);
            let curve = EvalSession::new(&m, Precision::Int8, backend).accuracy_vs_ber(
                &d.test()[..48],
                &template(ErrorModelKind::Uniform, 6),
                &[1e-2],
                Some(b),
                13,
            );
            println!(
                "  {:<14} {:>6}",
                id.spec().display_name,
                report::acc(curve[0].1)
            );
        }

        println!(
            "\nSection 6.3 detail — FP32 accuracy collapse without bounding (BER 1e-4..1e-2):"
        );
        // The FP32 session of the main sweep serves both curves.
        let fp32 = sessions
            .iter_mut()
            .find(|s| s.precision() == Precision::Fp32)
            .expect("the sweep covers FP32");
        let uniform = template(ErrorModelKind::Uniform, 5);
        let fp32_bers = [1e-4, 1e-3, 1e-2];
        let no_bounding = fp32.accuracy_vs_ber(samples, &uniform, &fp32_bers, None, 11);
        let with_bounding = fp32.accuracy_vs_ber(samples, &uniform, &fp32_bers, Some(bounding), 11);
        println!(
            "  {:<12} {:>12} {:>12}",
            "BER", "no bounding", "with bounding"
        );
        for ((ber, a), (_, b)) in no_bounding.iter().zip(&with_bounding) {
            println!("  {:<12.0e} {:>12.3} {:>12.3}", ber, a, b);
        }
    }

    println!("\npaper shape: accuracy drops at high BER; spatially-correlated models (1/2) and");
    println!("low precisions drop earlier; bounding rescues FP32 from implausible-value collapse.");
}
