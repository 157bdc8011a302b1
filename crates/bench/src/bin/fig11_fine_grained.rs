//! Figure 11: fine-grained characterization — the maximum tolerable BER of
//! each individual IFM and weight tensor of the ResNet stand-in, ordered by
//! depth.

use eden_bench::report;
use eden_core::bounding::{BoundingLogic, CorrectionPolicy};
use eden_core::characterize::{
    coarse_characterize_session, fine_characterize_session, CoarseConfig, FineConfig,
};
use eden_core::session::EvalSession;
use eden_dnn::zoo::ModelId;
use eden_dnn::{DataKind, Dataset};
use eden_dram::ErrorModel;
use eden_tensor::Precision;

fn main() {
    report::init_threads();
    let backend = report::parse_backend();
    report::header(
        "Figure 11",
        "per-IFM / per-weight tolerable BER of ResNet (fine-grained characterization)",
    );
    let (net, dataset) = report::train_model(ModelId::ResNet, 6, 2);
    let template = ErrorModel::uniform(0.02, 0.5, 5);
    let bounding =
        BoundingLogic::calibrated(&net, &dataset.train()[..16], 1.5, CorrectionPolicy::Zero);

    // One session serves the coarse bootstrap *and* the fine-grained sweep:
    // the weight images, corrupted-weight pools, reliable baseline and
    // weak-cell maps carry over between the two characterizations.
    let mut session = EvalSession::new(&net, Precision::Int8, backend);
    let coarse = coarse_characterize_session(
        &mut session,
        &dataset,
        &template,
        Some(bounding),
        &CoarseConfig {
            eval_samples: 48,
            iterations: 6,
            ..CoarseConfig::default()
        },
    );
    println!(
        "coarse-grained tolerable BER (bootstrap): {:.2e}\n",
        coarse.max_tolerable_ber
    );

    let fine = fine_characterize_session(
        &mut session,
        &dataset,
        &template,
        Some(bounding),
        &FineConfig {
            eval_samples: 32,
            bootstrap_ber: (coarse.max_tolerable_ber * 0.5).max(1e-4),
            step_factor: 1.5,
            max_rounds: 4,
            ..FineConfig::default()
        },
    );

    println!(
        "{:<28} {:<8} {:>9} {:>12} {:>8}",
        "data type (depth order)", "kind", "elements", "max BER", "vs coarse"
    );
    for (info, ber) in &fine.tolerances {
        println!(
            "{:<28} {:<8} {:>9} {:>12.2e} {:>7.1}x",
            info.site.to_string(),
            if info.site.kind == DataKind::Weight {
                "weight"
            } else {
                "IFM"
            },
            info.elements,
            ber,
            ber / coarse.max_tolerable_ber.max(1e-12)
        );
    }
    println!(
        "\nmax fine-grained tolerance: {:.2e} ({:.1}x the coarse-grained tolerance)",
        fine.max_tolerance(),
        fine.max_tolerance() / coarse.max_tolerable_ber.max(1e-12)
    );
    println!("paper shape: weights usually tolerate more than IFMs; individual data types");
    println!("tolerate up to ~3x the coarse-grained BER; the first layers tolerate the least.");
}
