//! `sweep`: the Figure 8 shape on `vgg_mini` — accuracy vs BER for the four
//! error-model kinds × {int4, int8, int16 native; int8 simulated}, with
//! bounding, one session per precision configuration.
//!
//! Every site is dirty at every point, so checkpoints never hit: the time is
//! in the `dnn` executors and the `tensor` GEMM kernels, with batch grouping
//! deciding how many samples share one GEMM.

use crate::{layers, ms, repeat_setup, trace, Ctx, Digest, Metrics, Outcome, Passes};
use eden_core::bounding::{BoundingLogic, CorrectionPolicy};
use eden_core::inference::InferenceBackend;
use eden_core::session::EvalSession;
use eden_dnn::zoo::ModelId;
use eden_dnn::{Dataset, Network, SyntheticVision};
use eden_dram::{ErrorModel, ErrorModelKind};
use eden_tensor::{Precision, Tensor};
use std::sync::Arc;
use std::time::Instant;

const BERS: [f64; 4] = [1e-4, 1e-3, 1e-2, 1e-1];

/// Test samples per curve point.
const SAMPLES: usize = 64;

/// Samples per curve point of the set-up warm-up (enough to compute every
/// weak-cell map the timed passes use).
const WARM_SAMPLES: usize = 16;

const CONFIGS: [(Precision, InferenceBackend); 4] = [
    (Precision::Int4, InferenceBackend::NativeInt),
    (Precision::Int8, InferenceBackend::NativeInt),
    (Precision::Int16, InferenceBackend::NativeInt),
    (Precision::Int8, InferenceBackend::SimulatedF32),
];

/// The fig08 error-model templates, re-seeded per run.
fn template(kind: ErrorModelKind, seed: u64) -> ErrorModel {
    match kind {
        ErrorModelKind::Uniform => ErrorModel::uniform(0.02, 0.5, seed),
        ErrorModelKind::Bitline => ErrorModel::bitline(0.02, 0.5, 0.9, seed),
        ErrorModelKind::Wordline => ErrorModel::wordline(0.02, 0.5, 0.9, seed),
        ErrorModelKind::DataDependent => ErrorModel::data_dependent(0.02, 0.7, 0.3, seed),
    }
}

struct State {
    net: Arc<Network>,
    dataset: SyntheticVision,
    bounding: BoundingLogic,
    sessions: Vec<EvalSession<'static>>,
    train_s: f64,
}

/// Accuracy curves of one pass, in (kind, config) order.
type Curves = Vec<Vec<(f64, f32)>>;

fn sessions(net: &Arc<Network>, reference: bool) -> Vec<EvalSession<'static>> {
    CONFIGS
        .iter()
        .map(|&(p, b)| {
            let s = EvalSession::new_shared(net.clone(), p, b);
            if reference {
                s.with_batch_limit(1).with_checkpoints(false)
            } else {
                s
            }
        })
        .collect()
}

/// One pass: every (kind, config) curve at the pass's memory seed. Each
/// curve is one request; its latency goes to `calls_ms`.
fn pass(
    sessions: &mut [EvalSession<'static>],
    samples: &[(Tensor, usize)],
    templates: &[ErrorModel],
    bounding: BoundingLogic,
    mem_seed: u64,
    calls_ms: &mut Vec<f64>,
) -> Curves {
    let mut curves = Vec::new();
    for t in templates {
        for session in sessions.iter_mut() {
            let started = Instant::now();
            curves.push(trace::timed("session.accuracy_vs_ber", || {
                session.accuracy_vs_ber(samples, t, &BERS, Some(bounding), mem_seed)
            }));
            calls_ms.push(ms(started.elapsed()));
        }
    }
    curves
}

fn counted(sessions: &[EvalSession<'static>]) -> (u64, u64, u64) {
    sessions.iter().fold((0, 0, 0), |acc, s| {
        let b = s.batch_counters();
        (
            acc.0 + b.groups,
            acc.1 + b.batched_samples,
            acc.2 + b.fallback_samples,
        )
    })
}

pub fn run(ctx: &Ctx) -> Outcome {
    let templates: Vec<ErrorModel> = ErrorModelKind::all()
        .into_iter()
        .map(|k| template(k, ctx.mix(&[0x7e, k as u64])))
        .collect();
    let (mut state, setup_s) = repeat_setup(|_| {
        let (net, dataset, train_s) = crate::train(ModelId::Vgg16);
        let bounding =
            BoundingLogic::calibrated(&net, &dataset.train()[..16], 1.5, CorrectionPolicy::Zero);
        let net = Arc::new(net);
        let mut sessions = sessions(&net, false);
        let warm = &dataset.test()[..WARM_SAMPLES];
        pass(
            &mut sessions,
            warm,
            &templates,
            bounding,
            ctx.mix(&[0xa7]),
            &mut Vec::new(),
        );
        State {
            net,
            dataset,
            bounding,
            sessions,
            train_s,
        }
    });

    // The seed picks which test samples the curves are measured on.
    let test = state.dataset.test();
    let start = (ctx.mix(&[0x5a]) % (test.len() - SAMPLES + 1) as u64) as usize;
    let samples = &test[start..start + SAMPLES];
    let weak_before: Vec<_> = state
        .sessions
        .iter()
        .map(|s| s.weak_map_cache().counters())
        .collect();
    let (g0, b0, f0) = counted(&state.sessions);
    let mut first: Option<Curves> = None;
    let passes = Passes::run(ctx, 3, |index, passes| {
        let before = counted(&state.sessions);
        let curves = pass(
            &mut state.sessions,
            samples,
            &templates,
            state.bounding,
            ctx.mix(&[0x9a, index as u64]),
            &mut passes.op_ms,
        );
        passes.attempted += curves.len() as u64;
        first.get_or_insert(curves);
        let after = counted(&state.sessions);
        (after.1 - before.1) + (after.2 - before.2)
    });
    let (g1, b1, f1) = counted(&state.sessions);

    // Output check: pass 0 again on per-sample, checkpoint-free sessions.
    let first = first.expect("at least one pass");
    let mut reference = sessions(&state.net, true);
    let expected = pass(
        &mut reference,
        samples,
        &templates,
        state.bounding,
        ctx.mix(&[0x9a, 0]),
        &mut Vec::new(),
    );
    let mut failed = passes.failed;
    let mut digest = Digest::default();
    for (got, want) in first.iter().zip(&expected) {
        for (&(ber, a), &(_, b)) in got.iter().zip(want) {
            digest.add_f64(ber);
            digest.add_f32(a);
            if a.to_bits() != b.to_bits() {
                failed += 1;
                eprintln!("sweep mismatch at BER {ber}: {a} vs reference {b}");
            }
        }
    }
    if !crate::check_digest(ctx, "sweep", &digest) {
        failed += 1;
    }

    let mut m = Metrics::default();
    passes.report(&mut m, &setup_s);
    if ctx.traced {
        let spans = trace::spans();
        trace::set_enabled(true);
        let traced = passes.times(true).len().max(1) as f64;
        let traced_eval = trace::total_s(&spans, "session.accuracy_vs_ber") / traced;
        let samples_per_pass = ((b1 - b0) + (f1 - f0)) as f64 / passes.pass_s.len().max(1) as f64;
        m.set("session.eval_s", traced_eval);
        m.set("session.samples", samples_per_pass);
        m.set(
            "session.batched_frac",
            crate::ratio((b1 - b0) as f64, ((b1 - b0) + (f1 - f0)) as f64),
        );
        m.set(
            "session.mean_group",
            crate::ratio((b1 - b0) as f64, (g1 - g0) as f64),
        );
        session_cache_metrics(&mut m, &state.sessions, &weak_before);
        m.set("dnn.train_s", state.train_s);
        passes.trace_overhead(&mut m);
        layers::shared_probes(&mut m, Some((&state.net, &state.dataset)), None, ctx.seed);
    }
    Outcome {
        attempted: passes.attempted + expected.len() as u64,
        failed,
        metrics: m,
    }
}

/// Checkpoint and weak-map cache metrics summed over `sessions`, the
/// weak-map hit fraction counted from `weak_before`.
pub fn session_cache_metrics(
    m: &mut Metrics,
    sessions: &[EvalSession<'static>],
    weak_before: &[eden_core::faults::CacheCounters],
) {
    let (mut hits, mut misses, mut evictions, mut resident) = (0, 0, 0, 0);
    let (mut wh, mut wm) = (0, 0);
    for (s, before) in sessions.iter().zip(weak_before) {
        let c = s.checkpoint_counters();
        hits += c.hits;
        misses += c.misses;
        evictions += c.evictions;
        resident += c.resident_bytes;
        let w = s.weak_map_cache().counters();
        wh += w.hits - before.hits;
        wm += w.misses - before.misses;
    }
    m.set(
        "session.ckpt_hit_frac",
        crate::ratio(hits as f64, (hits + misses) as f64),
    );
    m.set("session.ckpt_evictions", evictions as f64);
    m.set(
        "session.ckpt_resident_mb",
        resident as f64 / (1 << 20) as f64,
    );
    m.set(
        "session.weakmap_hit_frac",
        crate::ratio(wh as f64, (wh + wm) as f64),
    );
}
