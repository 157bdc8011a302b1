//! `characterize`: the Figure 11 + 12 shape on `resnet_mini` int8, native
//! backend, all in one session: coarse bootstrap → fine (per-data-type)
//! characterization → multi-module mapping onto 1-, 2- and 3-module systems
//! scored by the benchmark's own `CpuSim` closure → evaluation of each plan.
//!
//! Fine characterization probes one site at a time, so each probe resumes
//! from clean-activation checkpoints: the `core.session` caches and
//! `core.faults` dominate, and GEMM is a small share. The residual blocks
//! also run the native executor's f32 fallback.

use crate::{layers, ms, repeat_setup, trace, Ctx, Digest, Metrics, Outcome, Passes};
use eden_core::bounding::{BoundingLogic, CorrectionPolicy};
use eden_core::characterize::{
    coarse_characterize_session, fine_characterize_session, CoarseCharacterization, CoarseConfig,
    FineCharacterization, FineConfig,
};
use eden_core::faults::ApproximateMemory;
use eden_core::inference::InferenceBackend;
use eden_core::mapping::{multi_module_map, MultiModuleConfig, PlacementPlan, SlotTraffic};
use eden_core::session::EvalSession;
use eden_dnn::zoo::ModelId;
use eden_dnn::{Dataset, Network, SyntheticVision};
use eden_dram::characterize::CharacterizeConfig;
use eden_dram::geometry::Partition;
use eden_dram::system::{DramModule, MemorySystem};
use eden_dram::{ApproxDramDevice, ErrorModel, OperatingPoint, Vendor};
use eden_sysim::workload::WorkloadProfile;
use eden_sysim::{CpuSim, SystemSim, TrafficShare};
use eden_tensor::Precision;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const PRECISION: Precision = Precision::Int8;
const BACKEND: InferenceBackend = InferenceBackend::NativeInt;

/// Validation samples of every probe and plan evaluation (the same slice,
/// so checkpoints harvested by one pass serve the next).
const EVAL_SAMPLES: usize = 32;

struct State {
    net: Arc<Network>,
    dataset: SyntheticVision,
    bounding: BoundingLogic,
    session: EvalSession<'static>,
    systems: Vec<MemorySystem>,
    train_s: f64,
}

#[derive(PartialEq)]
struct PassResult {
    coarse: CoarseCharacterization,
    fine: FineCharacterization,
    plans: Vec<PlacementPlan>,
    accuracies: Vec<u32>,
}

/// The benchmark's plan scorer: `CpuSim` mixed energy saving plus speedup
/// gain, with its calls counted and (when tracing) timed.
struct Scorer {
    sim: CpuSim,
    workload: WorkloadProfile,
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Scorer {
    fn score(&self, shares: &[SlotTraffic]) -> f64 {
        let t = trace::enabled().then(Instant::now);
        let shares: Vec<TrafficShare> = shares
            .iter()
            .map(|s| TrafficShare {
                bytes: s.bytes,
                vdd_reduction: s.vdd_reduction,
                trcd_reduction_ns: s.trcd_reduction_ns,
            })
            .collect();
        let score = self.sim.mixed_energy_saving(&self.workload, &shares)
            + (self.sim.mixed_trcd_speedup(&self.workload, &shares) - 1.0);
        self.calls.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = t {
            self.nanos
                .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        score
    }
}

/// Three modules from three vendors with distinct operating-point menus
/// and capacities small enough that plans must spread across partitions.
fn systems(seed: u64) -> Vec<MemorySystem> {
    let cfg = CharacterizeConfig {
        rows_per_pattern: 1,
        bitlines_per_row: 1024,
        reads_per_row: 3,
        seed,
    };
    let module = |vendor: Vendor, device_seed: u64, rows: u64, ops: &[OperatingPoint]| {
        let device = ApproxDramDevice::new(vendor, device_seed);
        let row_bytes = device.geometry().row_bytes as u64;
        let parts: Vec<Partition> = (0..2)
            .map(|i| Partition {
                index: i,
                bank: i,
                first_subarray: 0,
                subarrays: 1,
                capacity_bytes: rows * row_bytes,
            })
            .collect();
        trace::timed("dram.module_characterize", || {
            DramModule::characterize(device, &parts, ops, &cfg)
        })
    };
    let a = module(
        Vendor::A,
        31,
        4,
        &[
            OperatingPoint::nominal(),
            OperatingPoint::with_vdd_reduction(0.05),
            OperatingPoint::with_vdd_reduction(0.10),
            OperatingPoint::with_vdd_reduction(0.25),
        ],
    );
    let b = module(
        Vendor::B,
        32,
        8,
        &[
            OperatingPoint::nominal(),
            OperatingPoint::with_trcd_reduction(1.0),
            OperatingPoint::with_trcd_reduction(2.5),
        ],
    );
    let c = module(
        Vendor::C,
        33,
        8,
        &[
            OperatingPoint::nominal(),
            OperatingPoint::with_vdd_reduction(0.20),
            OperatingPoint::with_trcd_reduction(2.0),
        ],
    );
    vec![
        MemorySystem::new(vec![a.clone()]),
        MemorySystem::new(vec![a.clone(), b.clone()]),
        MemorySystem::new(vec![a, b, c]),
    ]
}

/// One pass at `seed`: coarse → fine → map onto each system → evaluate
/// each plan. Also returns the samples the fine characterization executed.
/// Each of these public calls is one request; its latency goes to
/// `calls_ms`.
fn pass(
    session: &mut EvalSession<'static>,
    state: &StateRef<'_>,
    scorer: &Scorer,
    seed: u64,
    calls_ms: &mut Vec<f64>,
) -> (PassResult, u64) {
    let mut call = |started: Instant| calls_ms.push(ms(started.elapsed()));
    let started = Instant::now();
    let coarse = trace::timed("characterize.coarse", || {
        coarse_characterize_session(
            session,
            state.dataset,
            state.template,
            Some(state.bounding),
            &CoarseConfig {
                accuracy_drop: 0.05,
                eval_samples: 2 * EVAL_SAMPLES,
                iterations: 4,
                seed,
                backend: BACKEND,
                ..CoarseConfig::default()
            },
        )
    });
    call(started);
    let before = samples_counted(session);
    let started = Instant::now();
    let fine = trace::timed("characterize.fine", || {
        fine_characterize_session(
            session,
            state.dataset,
            state.template,
            Some(state.bounding),
            &FineConfig {
                accuracy_drop: 0.1,
                eval_samples: EVAL_SAMPLES,
                bootstrap_ber: (coarse.max_tolerable_ber * 0.5).max(1e-4),
                step_factor: 2.0,
                max_rounds: 3,
                seed,
                backend: BACKEND,
            },
        )
    });
    call(started);
    let fine_samples = samples_counted(session) - before;
    let mut plans = Vec::new();
    for system in state.systems {
        let started = Instant::now();
        plans.push(trace::timed("mapping.multi_module_map", || {
            multi_module_map(
                &fine,
                system,
                PRECISION,
                &MultiModuleConfig::default(),
                &|s: &[SlotTraffic]| scorer.score(s),
            )
        }));
        call(started);
    }
    let samples = &state.dataset.test()[..EVAL_SAMPLES];
    let mut accuracies = Vec::new();
    for (plan, system) in plans.iter().zip(state.systems) {
        let mut memory = ApproximateMemory::reliable(seed).with_bounding(state.bounding);
        plan.apply_to(&mut memory, system);
        let started = Instant::now();
        let acc = trace::timed("session.evaluate_with_faults", || {
            session.evaluate_with_faults(samples, &mut memory)
        });
        call(started);
        accuracies.push(acc.to_bits());
    }
    let result = PassResult {
        coarse,
        fine,
        plans,
        accuracies,
    };
    (result, fine_samples)
}

/// The read-only inputs of a pass.
struct StateRef<'a> {
    dataset: &'a SyntheticVision,
    template: &'a ErrorModel,
    bounding: BoundingLogic,
    systems: &'a [MemorySystem],
}

fn samples_counted(session: &EvalSession<'_>) -> u64 {
    let b = session.batch_counters();
    b.batched_samples + b.fallback_samples
}

pub fn run(ctx: &Ctx) -> Outcome {
    // The error-model structure and the DRAM modules are fixed: they set how
    // much work a characterization does, and a per-seed structure would
    // make that work differ by seed. The seed drives every fault draw.
    let template = ErrorModel::uniform(0.02, 0.5, 5);
    let (mut state, setup_s) = repeat_setup(|_| {
        let (net, dataset, train_s) = crate::train(ModelId::ResNet);
        let bounding =
            BoundingLogic::calibrated(&net, &dataset.train()[..16], 1.5, CorrectionPolicy::Zero);
        let net = Arc::new(net);
        let session = EvalSession::new_shared(net.clone(), PRECISION, BACKEND);
        let mut state = State {
            net,
            dataset,
            bounding,
            session,
            systems: systems(3),
            train_s,
        };
        let scorer = scorer(&state.net);
        let view = StateRef {
            dataset: &state.dataset,
            template: &template,
            bounding: state.bounding,
            systems: &state.systems,
        };
        pass(
            &mut state.session,
            &view,
            &scorer,
            ctx.mix(&[0xa7]),
            &mut Vec::new(),
        );
        state
    });

    let scorer = scorer(&state.net);
    let view = StateRef {
        dataset: &state.dataset,
        template: &template,
        bounding: state.bounding,
        systems: &state.systems,
    };
    let weak_before = vec![state.session.weak_map_cache().counters()];
    let batch_before = state.session.batch_counters();
    let mut first: Option<PassResult> = None;
    let mut fine_samples = Vec::new();
    let passes = Passes::run(ctx, 3, |index, passes| {
        let before = samples_counted(&state.session);
        let calls = passes.op_ms.len();
        let (result, fine) = pass(
            &mut state.session,
            &view,
            &scorer,
            ctx.mix(&[0x9a, index as u64]),
            &mut passes.op_ms,
        );
        passes.attempted += (passes.op_ms.len() - calls) as u64;
        fine_samples.push(fine as f64);
        first.get_or_insert(result);
        samples_counted(&state.session) - before
    });
    let batch_after = state.session.batch_counters();

    // Output check: pass 0 again on a per-sample, checkpoint-free session.
    let first = first.expect("at least one pass");
    let mut reference = EvalSession::new_shared(state.net.clone(), PRECISION, BACKEND)
        .with_batch_limit(1)
        .with_checkpoints(false);
    let (expected, _) = pass(
        &mut reference,
        &view,
        &scorer,
        ctx.mix(&[0x9a, 0]),
        &mut Vec::new(),
    );
    let mut failed = passes.failed;
    if first != expected {
        failed += 1;
        eprintln!("characterize: pass 0 differs from the per-sample, checkpoint-free reference");
    }
    eprintln!(
        "pass 0: coarse BER {:.2e} (baseline {:.3}), max fine BER {:.2e}, mapped {:?}",
        first.coarse.max_tolerable_ber,
        first.coarse.baseline_accuracy,
        first.fine.max_tolerance(),
        first
            .plans
            .iter()
            .map(|p| format!("{:.2}", p.mapped_fraction(PRECISION)))
            .collect::<Vec<_>>()
    );
    let mut digest = Digest::default();
    digest.add_f64(first.coarse.max_tolerable_ber);
    for (_, ber) in &first.fine.tolerances {
        digest.add_f64(*ber);
    }
    for plan in &first.plans {
        digest.add_f64(plan.mapped_fraction(PRECISION));
    }
    for &acc in &first.accuracies {
        digest.add(acc as u64);
    }
    if !crate::check_digest(ctx, "characterize", &digest) {
        failed += 1;
    }

    let mut m = Metrics::default();
    passes.report(&mut m, &setup_s);
    if ctx.traced {
        let spans = trace::spans();
        trace::set_enabled(true);
        // Median over traced passes of each phase's time per pass (the
        // phase spans are direct children of their pass span).
        let per_pass = |name: &str| -> f64 {
            let mut by_pass: std::collections::BTreeMap<u64, f64> = Default::default();
            for s in spans.iter().filter(|s| s.name == name) {
                *by_pass.entry(s.parent).or_default() += s.duration_s();
            }
            crate::median(&by_pass.into_values().collect::<Vec<_>>())
        };
        m.set("characterize.coarse_s", per_pass("characterize.coarse"));
        m.set("characterize.fine_s", per_pass("characterize.fine"));
        m.set(
            "mapping.multi_module_map_s",
            per_pass("mapping.multi_module_map"),
        );
        m.set("session.eval_s", per_pass("session.evaluate_with_faults"));
        let npass = passes.pass_s.len() as f64;
        m.set("characterize.fine_samples", crate::median(&fine_samples));
        let calls = scorer.calls.load(Ordering::Relaxed) as f64;
        m.set("sysim.score_calls", calls / npass);
        let traced_passes = passes.times(true).len().max(1) as f64;
        m.set(
            "sysim.score_s",
            scorer.nanos.load(Ordering::Relaxed) as f64 / 1e9 / traced_passes,
        );
        let batched = (batch_after.batched_samples - batch_before.batched_samples) as f64;
        let fallback = (batch_after.fallback_samples - batch_before.fallback_samples) as f64;
        let groups = (batch_after.groups - batch_before.groups) as f64;
        m.set("session.samples", (batched + fallback) / npass);
        m.set(
            "session.batched_frac",
            crate::ratio(batched, batched + fallback),
        );
        m.set("session.mean_group", crate::ratio(batched, groups));
        crate::sweep::session_cache_metrics(
            &mut m,
            std::slice::from_ref(&state.session),
            &weak_before,
        );
        probe_layer0(&mut m, &mut state, &template, ctx.seed);
        m.set("dnn.train_s", state.train_s);
        passes.trace_overhead(&mut m);
        layers::shared_probes(&mut m, None, Some((&state.net, &state.dataset)), ctx.seed);
    }
    Outcome {
        attempted: passes.attempted + 1,
        failed,
        metrics: m,
    }
}

fn scorer(net: &Network) -> Scorer {
    Scorer {
        sim: CpuSim::table4(),
        workload: WorkloadProfile::from_network(net, PRECISION, 0.02),
        calls: AtomicU64::new(0),
        nanos: AtomicU64::new(0),
    }
}

/// A single-site probe whose dirty site is layer 0's IFM (so no prefix can
/// be resumed), on the warm checkpointing session and on a checkpoint-free
/// one: the cost of checkpoint bookkeeping when it cannot pay off.
fn probe_layer0(m: &mut Metrics, state: &mut State, template: &ErrorModel, seed: u64) {
    let samples = &state.dataset.test()[..EVAL_SAMPLES];
    let site = state.net.data_sites()[0].site.clone();
    let injector = state.session.injector_for(template, 1e-3);
    let memory = || {
        let mut memory = ApproximateMemory::reliable(seed);
        memory.assign_site(site.clone(), injector.clone());
        memory
    };
    let mut no_ckpt =
        EvalSession::new_shared(state.net.clone(), PRECISION, BACKEND).with_checkpoints(false);
    no_ckpt.evaluate_with_faults(samples, &mut memory());
    // Interleaved, so drift in machine speed hits both sides alike.
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        for (session, times) in [(&mut state.session, &mut on), (&mut no_ckpt, &mut off)] {
            let start = Instant::now();
            session.evaluate_with_faults(samples, &mut memory());
            times.push(ms(start.elapsed()));
        }
    }
    m.set("session.probe_layer0_ckpt_ms", crate::median(&on));
    m.set("session.probe_layer0_nockpt_ms", crate::median(&off));
}
