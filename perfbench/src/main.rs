//! The EDEN benchmark: one process per workload run.
//!
//! ```text
//! eden-perfbench --workload sweep|characterize|retrain|serve
//!                --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run sets up (several times; the median is `setup_s`), runs whole
//! passes of its workload until `--seconds` have elapsed, checks its outputs
//! and prints one JSON object as the last line of stdout. With `--trace 0`
//! it reports every end-to-end metric of `BENCHMARK.json`; with
//! `--trace 1` every per-layer metric, measured from outside the program by
//! timing the calls the benchmark makes into each layer. See README.md for
//! why each workload exists and which metric each layer should move.

mod characterize;
mod layers;
mod machine;
mod retrain;
mod serve;
mod sweep;
mod trace;

use eden_dnn::train::{TrainConfig, Trainer};
use eden_dnn::zoo::ModelId;
use eden_dnn::{Dataset, Network, SyntheticVision};
use eden_serve::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The seed whose output digests are committed in `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Least timed-phase time between two probes of the machine speed, so that
/// probing costs short passes (`serve`'s) a few percent at most.
pub const PROBE_EVERY_S: f64 = 0.5;

/// Seed of the zoo networks every workload trains during set-up. Fixed so
/// that set-up does the same work at every workload seed; the seed picks
/// the inputs the trained networks are evaluated on.
pub const TRAIN_SEED: u64 = 3;

/// One benchmark invocation.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

impl Ctx {
    /// A sub-seed of the run seed (per pass, per request, ...).
    pub fn mix(&self, parts: &[u64]) -> u64 {
        eden_dram::util::seed_mix(self.seed, parts)
    }
}

/// Metric values of one run, by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// The timed phase of a workload: whole passes until the time budget is
/// spent, with per-operation latencies and the samples each pass completed.
#[derive(Default)]
pub struct Passes {
    /// Raw wall time of every pass.
    pub pass_s: Vec<f64>,
    /// Factor that brings each pass's times to reference speed.
    pub scale: Vec<f64>,
    pub traced: Vec<bool>,
    pub samples: Vec<u64>,
    /// Latency of every operation, in ms; `f64::INFINITY` for a failed one.
    pub op_ms: Vec<f64>,
    /// Length of `op_ms` after each pass.
    pub op_end: Vec<usize>,
    pub attempted: u64,
    pub failed: u64,
}

impl Passes {
    pub fn record_op(&mut self, started: Instant, ok: bool) {
        self.attempted += 1;
        if ok {
            self.op_ms.push(ms(started.elapsed()));
        } else {
            self.failed += 1;
            self.op_ms.push(f64::INFINITY);
        }
    }

    /// Runs `pass(index, self)` until `seconds` have elapsed (at least
    /// `min_passes` times). On a traced run, passes alternate between
    /// tracing off and on so the two can be compared within one process.
    /// The machine speed is probed before the first pass and then after
    /// every pass that ends at least [`PROBE_EVERY_S`] after the last probe;
    /// the passes between two probes share their scale.
    pub fn run(
        ctx: &Ctx,
        min_passes: usize,
        mut pass: impl FnMut(usize, &mut Passes) -> u64,
    ) -> Passes {
        let mut passes = Passes::default();
        let start = Instant::now();
        let mut before = machine::probe();
        let mut probed = Instant::now();
        let mut index = 0;
        while index < min_passes || start.elapsed().as_secs_f64() < ctx.seconds {
            let traced = ctx.traced && index % 2 == 1;
            trace::set_enabled(traced);
            let t = Instant::now();
            let samples = {
                let _span = trace::span("pass");
                pass(index, &mut passes)
            };
            passes.pass_s.push(t.elapsed().as_secs_f64());
            passes.traced.push(traced);
            passes.samples.push(samples);
            passes.op_end.push(passes.op_ms.len());
            index += 1;
            if probed.elapsed().as_secs_f64() >= PROBE_EVERY_S {
                let after = machine::probe();
                passes.scale.resize(index, machine::scale(before, after));
                before = after;
                probed = Instant::now();
            }
        }
        if passes.scale.len() < index {
            let after = machine::probe();
            passes.scale.resize(index, machine::scale(before, after));
        }
        trace::set_enabled(false);
        let shown: Vec<String> = passes.pass_s.iter().map(|s| format!("{s:.3}")).collect();
        eprintln!("pass seconds: {}", shown.join(" "));
        let shown: Vec<String> = machine::probes()
            .iter()
            .map(|s| format!("{:.1}", s * 1e3))
            .collect();
        eprintln!("probe ms: {}", shown.join(" "));
        passes
    }

    /// Pass times of the untraced (`false`) or traced (`true`) passes.
    pub fn times(&self, traced: bool) -> Vec<f64> {
        self.pass_s
            .iter()
            .zip(&self.traced)
            .filter(|(_, &t)| t == traced)
            .map(|(&s, _)| s)
            .collect()
    }

    /// The end-to-end metrics every workload reports from its passes, with
    /// every time brought to reference speed (see `machine`). `setup_s`
    /// holds the set-up times at reference speed.
    pub fn report(&self, m: &mut Metrics, setup_s: &[f64]) {
        let untraced = || (0..self.pass_s.len()).filter(|&i| !self.traced[i]);
        let scaled_s = |i: usize| self.pass_s[i] * self.scale[i];
        let ops = (0..self.pass_s.len()).flat_map(|i| {
            let first = if i == 0 { 0 } else { self.op_end[i - 1] };
            self.op_ms[first..self.op_end[i]]
                .iter()
                .map(move |&ms| ms * self.scale[i])
        });
        let op_ms: Vec<f64> = ops.collect();
        let probes = machine::probes();
        eprintln!(
            "raw: pass {:.4} s; reference kernel {:.2} ms, scale {:.4}",
            median(&self.times(false)),
            median(&probes) * 1e3,
            median(&self.scale)
        );
        m.set("setup_s", median(setup_s));
        m.set(
            "wall_s",
            median(&untraced().map(scaled_s).collect::<Vec<_>>()),
        );
        let rates: Vec<f64> = untraced()
            .map(|i| self.samples[i] as f64 / scaled_s(i))
            .collect();
        m.set("samples_per_s", median(&rates));
        m.set("latency_p50_ms", percentile(&op_ms, 50.0));
        m.set("latency_p95_ms", percentile(&op_ms, 95.0));
        m.set("peak_rss_mb", peak_rss_mb());
        m.set("machine.probe_ms", median(&probes) * 1e3);
        m.set("machine.scale", median(&self.scale));
    }

    /// Traced-minus-untraced median pass time.
    pub fn trace_overhead(&self, m: &mut Metrics) {
        let traced = self.times(true);
        if !traced.is_empty() {
            m.set(
                "trace.overhead_s",
                median(&traced) - median(&self.times(false)),
            );
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of finite and infinite values alike (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile; infinities (failed operations) sort last.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    if lo == hi || v[lo] == v[hi] {
        return v[lo];
    }
    if !v[hi].is_finite() {
        // Interpolating towards a failed operation: the percentile missed.
        return v[hi];
    }
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Trains a zoo model on its synthetic dataset at [`TRAIN_SEED`]; returns it
/// with the seconds `Trainer::train` took. The learning rate is one the zoo
/// models converge at on these datasets (the default diverges on some).
pub fn train(id: ModelId) -> (Network, SyntheticVision, f64) {
    let dataset = id.dataset(TRAIN_SEED);
    let mut net = id.build(&dataset.spec(), TRAIN_SEED);
    let t = Instant::now();
    Trainer::new(TrainConfig {
        epochs: 2,
        learning_rate: 0.01,
        seed: TRAIN_SEED,
        ..TrainConfig::default()
    })
    .train(&mut net, &dataset);
    (net, dataset, t.elapsed().as_secs_f64())
}

/// Runs `setup` [`SETUP_REPS`] times and keeps the last result; earlier
/// results are dropped before the next repetition starts. Returns each
/// repetition's time at reference speed (scaled by the probes of the
/// machine speed just before and just after it).
pub fn repeat_setup<T>(mut setup: impl FnMut(usize) -> T) -> (T, Vec<f64>) {
    let mut raw = Vec::with_capacity(SETUP_REPS);
    let mut scaled = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    let mut before = machine::probe();
    for rep in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup(rep));
        let took = t.elapsed().as_secs_f64();
        let after = machine::probe();
        raw.push(took);
        scaled.push(took * machine::scale(before, after));
        before = after;
    }
    let shown: Vec<String> = raw.iter().map(|s| format!("{s:.3}")).collect();
    eprintln!("set-up seconds: {}", shown.join(" "));
    (last.expect("at least one set-up"), scaled)
}

/// FNV-1a over a stream of words: the output digest of a run.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn add_f32(&mut self, x: f32) {
        self.add(x.to_bits() as u64);
    }

    pub fn add_f64(&mut self, x: f64) {
        self.add(x.to_bits());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// At the default seed, compares `digest` with the one committed for
/// `workload`; returns whether it matches (always true at other seeds).
pub fn check_digest(ctx: &Ctx, workload: &str, digest: &Digest) -> bool {
    if ctx.seed != DEFAULT_SEED {
        return true;
    }
    let text = std::fs::read_to_string(bench_dir().join("digests.txt")).unwrap_or_default();
    let expected = text.lines().find_map(|l| {
        let mut parts = l.split_whitespace();
        (parts.next() == Some(workload)).then(|| parts.next().unwrap_or("").to_string())
    });
    let ok = expected.as_deref() == Some(digest.hex().as_str());
    if !ok {
        eprintln!(
            "digest mismatch for {workload}: got {}, committed {expected:?}",
            digest.hex()
        );
    }
    ok
}

/// The `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = bench_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("read {}: {e}", path.display())));
    let doc = Json::parse(&text).unwrap_or_else(|e| fail(&format!("BENCHMARK.json: {e}")));
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| fail(&format!("BENCHMARK.json has no {section}")))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).map(|i| {
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| fail(&format!("{name} needs a value")))
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = flag(&args, "--workload").unwrap_or_else(|| fail("--workload is required"));
    let parse = |name: &str, default: &str| -> f64 {
        let v = flag(&args, name).unwrap_or_else(|| default.to_string());
        v.parse::<f64>()
            .unwrap_or_else(|_| fail(&format!("{name} {v:?} is not a number")))
    };
    let seed = flag(&args, "--seed").unwrap_or_else(|| DEFAULT_SEED.to_string());
    let ctx = Ctx {
        seed: seed
            .parse::<u64>()
            .unwrap_or_else(|_| fail(&format!("--seed {seed:?} is not a whole number"))),
        seconds: parse("--seconds", "10"),
        traced: parse("--trace", "0") != 0.0,
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    eden_par::configure_threads(threads);
    eprintln!(
        "eden-perfbench: workload {workload} seed {} seconds {} trace {} threads {threads}",
        ctx.seed, ctx.seconds, ctx.traced
    );
    let section = if ctx.traced {
        "per_layer"
    } else {
        "end_to_end"
    };
    let declared = declared(section);

    let outcome = match workload.as_str() {
        "sweep" => sweep::run(&ctx),
        "characterize" => characterize::run(&ctx),
        "retrain" => retrain::run(&ctx),
        "serve" => serve::run(&ctx),
        other => fail(&format!(
            "unknown workload {other:?} (expected sweep, characterize, retrain or serve)"
        )),
    };

    if ctx.traced {
        let path = bench_dir()
            .join("out")
            .join(format!("trace-{workload}-{}.jsonl", ctx.seed));
        match trace::write(&path) {
            Ok(()) => eprintln!(
                "{} spans written to {}",
                trace::spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("trace not written: {e}"),
        }
    }

    let mut fields = Vec::new();
    for (name, unit) in &declared {
        let value = outcome.metrics.get(name).unwrap_or(0.0);
        // A latency percentile that a failed operation missed is infinite;
        // JSON has no infinity, so it reads as an absurdly large time.
        let value = if value.is_finite() { value } else { 1e9 };
        eprintln!("  {name:<44} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
}
