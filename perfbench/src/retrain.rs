//! `retrain`: `EdenPipeline::run` on `resnet_mini` int8 against a vendor-A
//! device — device characterization, error-model fit, curricular
//! retraining, coarse characterization per boost iteration and coarse
//! mapping.
//!
//! The only workload where training does most of the work (f32 forward and
//! backward passes, the optimizer, per-batch overlay patching), and the one
//! that writes weights and rebuilds sessions.
//!
//! The pipeline is one call, so the traced run also replays its steps one
//! public call at a time (the same calls in the same order as
//! `EdenPipeline::run`), times each, and checks the replay reaches the
//! pipeline's outcome.

use crate::{layers, repeat_setup, trace, Ctx, Digest, Metrics, Outcome, Passes};
use eden_core::bounding::{BoundingLogic, CorrectionPolicy};
use eden_core::characterize::{coarse_characterize_session, CoarseConfig};
use eden_core::curricular::{CurricularConfig, CurricularTrainer};
use eden_core::inference::InferenceBackend;
use eden_core::mapping::coarse_map;
use eden_core::pipeline::{EdenConfig, EdenOutcome, EdenPipeline};
use eden_core::session::EvalSession;
use eden_dnn::zoo::ModelId;
use eden_dnn::{Dataset, Network, SyntheticVision};
use eden_dram::characterize::{characterize_bank, CharacterizeConfig};
use eden_dram::fit::select_model;
use eden_dram::{ApproxDramDevice, Vendor};
use std::time::Instant;

/// Curricular retraining epochs per pipeline run.
const EPOCHS: usize = 2;

struct State {
    net: Network,
    dataset: SyntheticVision,
    device: ApproxDramDevice,
    train_s: f64,
}

fn config(seed: u64) -> EdenConfig {
    EdenConfig {
        accuracy_drop: 0.05,
        backend: InferenceBackend::NativeInt,
        retraining: CurricularConfig {
            epochs: EPOCHS,
            step_epochs: 1,
            ..CurricularConfig::default()
        },
        characterization: CoarseConfig {
            eval_samples: 64,
            iterations: 4,
            ..CoarseConfig::default()
        },
        dram_characterization: CharacterizeConfig {
            rows_per_pattern: 1,
            bitlines_per_row: 512,
            reads_per_row: 2,
            seed,
        },
        iterations: 1,
        seed,
        ..EdenConfig::default()
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (state, setup_s) = repeat_setup(|_| {
        let (net, dataset, train_s) = crate::train(ModelId::ResNet);
        State {
            net,
            dataset,
            device: ApproxDramDevice::new(Vendor::A, ctx.mix(&[0xde])),
            train_s,
        }
    });
    let train_len = state.dataset.train().len() as u64;
    let run_pipeline = |seed: u64| -> EdenOutcome {
        let mut net = state.net.clone();
        trace::timed("pipeline.run", || {
            EdenPipeline::new(config(seed)).run(&mut net, &state.dataset, &state.device)
        })
    };

    let mut first: Option<EdenOutcome> = None;
    let passes = Passes::run(ctx, 3, |index, passes| {
        let started = Instant::now();
        let outcome = run_pipeline(ctx.mix(&[0x9a, index as u64]));
        passes.record_op(started, true);
        first.get_or_insert(outcome);
        EPOCHS as u64 * train_len
    });

    // Output check: the pipeline is deterministic; pass 0 must reproduce.
    let first = first.expect("at least one pass");
    let mut failed = passes.failed;
    let mut attempted = passes.attempted + 1;
    if run_pipeline(ctx.mix(&[0x9a, 0])) != first {
        failed += 1;
        eprintln!("retrain: pass 0 did not reproduce");
    }
    let mut digest = Digest::default();
    digest.add(first.error_model.fingerprint());
    digest.add_f32(first.baseline_accuracy);
    digest.add_f64(first.baseline_tolerable_ber);
    digest.add_f64(first.boosted.max_tolerable_ber);
    digest.add_f64(first.boost_factor);
    if !crate::check_digest(ctx, "retrain", &digest) {
        failed += 1;
    }

    let mut m = Metrics::default();
    passes.report(&mut m, &setup_s);
    if ctx.traced {
        trace::set_enabled(true);
        attempted += 1;
        let mut net = state.net.clone();
        let (replayed, steps) = replay(
            &mut net,
            &state.dataset,
            &state.device,
            &config(ctx.mix(&[0x9a, 0])),
        );
        if replayed != first {
            failed += 1;
            eprintln!("retrain: the step-by-step replay does not reach the pipeline's outcome");
        }
        m.set("dram.device_characterize_s", steps.device_characterize_s);
        m.set("dram.fit_s", steps.fit_s);
        m.set("curricular.retrain_s", steps.retrain_s);
        m.set("characterize.coarse_s", steps.coarse_s);
        m.set("dnn.train_s", state.train_s);
        passes.trace_overhead(&mut m);
        layers::shared_probes(&mut m, None, Some((&state.net, &state.dataset)), ctx.seed);
    }
    Outcome {
        attempted,
        failed,
        metrics: m,
    }
}

#[derive(Default)]
struct Steps {
    device_characterize_s: f64,
    fit_s: f64,
    retrain_s: f64,
    coarse_s: f64,
}

fn timed<R>(slot: &mut f64, name: &str, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = trace::timed(name, f);
    *slot += t.elapsed().as_secs_f64();
    r
}

/// `EdenPipeline::run`, one public call at a time.
fn replay(
    net: &mut Network,
    dataset: &dyn Dataset,
    device: &ApproxDramDevice,
    cfg: &EdenConfig,
) -> (EdenOutcome, Steps) {
    let mut steps = Steps::default();
    let calibrate = |net: &Network| {
        BoundingLogic::calibrated(
            net,
            &dataset.train()[..16.min(dataset.train().len())],
            1.5,
            CorrectionPolicy::Zero,
        )
    };
    let observations = timed(
        &mut steps.device_characterize_s,
        "dram.characterize_bank",
        || characterize_bank(device, 0, &cfg.profiling_point, &cfg.dram_characterization),
    );
    let error_model = timed(&mut steps.fit_s, "dram.select_model", || {
        select_model(&observations, cfg.seed).model
    });
    let bounding = calibrate(net);
    let coarse_cfg = CoarseConfig {
        accuracy_drop: cfg.accuracy_drop,
        seed: cfg.seed,
        backend: cfg.backend,
        ..cfg.characterization
    };
    let baseline = timed(&mut steps.coarse_s, "characterize.coarse", || {
        let mut session = EvalSession::new(net, cfg.precision, cfg.backend);
        coarse_characterize_session(
            &mut session,
            dataset,
            &error_model,
            Some(bounding),
            &coarse_cfg,
        )
    });
    let mut best = baseline.clone();
    let mut target_ber = (baseline.max_tolerable_ber * 4.0).clamp(1e-4, 0.1);
    for iteration in 0..cfg.iterations.max(1) {
        let retrain_cfg = CurricularConfig {
            target_ber,
            precision: cfg.precision,
            backend: cfg.backend,
            seed: cfg.seed ^ (iteration as u64 + 1),
            ..cfg.retraining
        };
        timed(&mut steps.retrain_s, "curricular.retrain", || {
            CurricularTrainer::new(retrain_cfg).retrain(net, dataset, &error_model)
        });
        let bounding = calibrate(net);
        let characterized = timed(&mut steps.coarse_s, "characterize.coarse", || {
            let mut session = EvalSession::new(net, cfg.precision, cfg.backend);
            coarse_characterize_session(
                &mut session,
                dataset,
                &error_model,
                Some(bounding),
                &coarse_cfg,
            )
        });
        if characterized.max_tolerable_ber <= best.max_tolerable_ber {
            break;
        }
        target_ber = (characterized.max_tolerable_ber * 2.0).min(0.1);
        best = characterized;
    }
    let mapping = coarse_map(best.max_tolerable_ber, device.profile());
    let outcome = EdenOutcome {
        error_model,
        baseline_accuracy: baseline.baseline_accuracy,
        baseline_tolerable_ber: baseline.max_tolerable_ber,
        boost_factor: if baseline.max_tolerable_ber > 0.0 {
            best.max_tolerable_ber / baseline.max_tolerable_ber
        } else {
            f64::INFINITY
        },
        boosted: best,
        mapping,
    };
    (outcome, steps)
}
