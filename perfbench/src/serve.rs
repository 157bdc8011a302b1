//! `serve`: an in-process eden-serve with `nproc` workers, driven closed
//! loop over `nproc` client connections. One pass is one cycle of the mix
//! on every connection:
//!
//! * `eval`: lenet int4/int8/int16 × uniform/wordline (6 shards);
//! * `eval-batch`: vgg int8, 32 samples (1 shard);
//! * streamed `sweep`: lenet int8 uniform, 4 BERs (shares an eval shard).
//!
//! Seven shards, under the pool's `max_sessions` of 8. The only workload
//! through protocol/JSON, admission and the shard pool under concurrency;
//! its latency shows queueing that throughput hides. Every response is
//! checked bit-identical to a standalone `EvalSession` on the same spec.

use crate::{layers, median, ms, repeat_setup, trace, Ctx, Digest, Metrics, Outcome, Passes};
use eden_core::faults::ApproximateMemory;
use eden_core::inference::InferenceBackend;
use eden_core::session::EvalSession;
use eden_dnn::zoo::{ModelId, ModelZoo};
use eden_dnn::Dataset;
use eden_dram::ErrorModel;
use eden_serve::protocol::Request;
use eden_serve::{serve, Client, Json, ServeConfig, ServerHandle};
use eden_tensor::Precision;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Zoo configuration of the server (and of the standalone check).
const ZOO_EPOCHS: usize = 1;
const ZOO_SEED: u64 = 3;

/// Distinct memory seeds per spec: enough to vary the fault draws, few
/// enough that the check needs only a handful of standalone evaluations.
const SEEDS_PER_SPEC: usize = 4;

const SWEEP_BERS: [f64; 4] = [1e-4, 1e-3, 1e-2, 1e-1];

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Eval,
    EvalBatch,
    Sweep,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Eval => "eval",
            Op::EvalBatch => "eval-batch",
            Op::Sweep => "sweep",
        }
    }

    /// Name of the span around one request of this op.
    fn span(self) -> &'static str {
        match self {
            Op::Eval => "serve.eval",
            Op::EvalBatch => "serve.eval-batch",
            Op::Sweep => "serve.sweep",
        }
    }
}

struct Spec {
    op: Op,
    model: ModelId,
    precision: Precision,
    kind: &'static str,
    ber: f64,
    count: usize,
}

const fn spec(
    op: Op,
    model: ModelId,
    precision: Precision,
    kind: &'static str,
    ber: f64,
    count: usize,
) -> Spec {
    Spec {
        op,
        model,
        precision,
        kind,
        ber,
        count,
    }
}

const MIX: [Spec; 8] = [
    spec(
        Op::Eval,
        ModelId::LeNet,
        Precision::Int4,
        "uniform",
        1e-3,
        8,
    ),
    spec(
        Op::Eval,
        ModelId::LeNet,
        Precision::Int4,
        "wordline",
        1e-2,
        8,
    ),
    spec(
        Op::Eval,
        ModelId::LeNet,
        Precision::Int8,
        "uniform",
        1e-3,
        8,
    ),
    spec(
        Op::Eval,
        ModelId::LeNet,
        Precision::Int8,
        "wordline",
        1e-2,
        8,
    ),
    spec(
        Op::Eval,
        ModelId::LeNet,
        Precision::Int16,
        "uniform",
        1e-3,
        8,
    ),
    spec(
        Op::Eval,
        ModelId::LeNet,
        Precision::Int16,
        "wordline",
        1e-2,
        8,
    ),
    spec(
        Op::EvalBatch,
        ModelId::Vgg16,
        Precision::Int8,
        "uniform",
        1e-3,
        32,
    ),
    spec(
        Op::Sweep,
        ModelId::LeNet,
        Precision::Int8,
        "uniform",
        0.0,
        8,
    ),
];

impl Spec {
    fn template(&self) -> ErrorModel {
        match self.kind {
            "uniform" => ErrorModel::uniform(0.02, 0.5, 5),
            _ => ErrorModel::wordline(0.02, 0.5, 0.9, 5),
        }
    }

    /// Samples one successful request evaluates.
    fn samples(&self) -> u64 {
        let points = if self.op == Op::Sweep {
            SWEEP_BERS.len()
        } else {
            1
        };
        (points * self.count) as u64
    }

    fn request(&self, start: usize, seed: u64) -> Json {
        let mut fields = BTreeMap::new();
        let mut put = |k: &str, v: Json| {
            fields.insert(k.to_string(), v);
        };
        put("op", Json::str(self.op.name()));
        put("model", Json::str(self.model.key()));
        put("precision", Json::str(self.precision.to_string()));
        put(
            "error_model",
            Json::obj([("kind", Json::str(self.kind)), ("seed", Json::num(5.0))]),
        );
        put("count", Json::num(self.count as f64));
        put("start", Json::num(start as f64));
        put("seed", Json::num(seed as f64));
        match self.op {
            Op::Sweep => put(
                "bers",
                Json::Arr(SWEEP_BERS.iter().map(|&b| Json::num(b)).collect()),
            ),
            Op::EvalBatch => {
                put("ber", Json::num(self.ber));
                put("batch", Json::num(self.count as f64));
            }
            Op::Eval => put("ber", Json::num(self.ber)),
        }
        Json::Obj(fields)
    }
}

/// The seed-derived inputs of a run: first sample and memory seeds per spec.
struct Inputs {
    start: Vec<usize>,
    seeds: Vec<[u64; SEEDS_PER_SPEC]>,
}

impl Inputs {
    fn new(ctx: &Ctx) -> Self {
        let start = MIX
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let len = s.model.dataset(ZOO_SEED).test().len();
                (ctx.mix(&[0x5a, i as u64]) % (len - s.count + 1) as u64) as usize
            })
            .collect();
        let seeds = (0..MIX.len())
            .map(|i| std::array::from_fn(|k| ctx.mix(&[0x5e, i as u64, k as u64]) >> 12))
            .collect();
        Self { start, seeds }
    }

    fn request(&self, spec: usize, k: usize) -> Json {
        MIX[spec].request(self.start[spec], self.seeds[spec][k])
    }
}

/// A running server, shut down and joined when dropped.
struct Booted {
    handle: Option<ServerHandle>,
    socket: PathBuf,
}

impl Drop for Booted {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.join();
        }
    }
}

/// The socket path, relative to the working directory when that is
/// shorter (Unix socket paths are limited to ~100 bytes).
fn socket_path(rep: usize) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    let dir = std::env::current_dir()
        .ok()
        .and_then(|cwd| dir.strip_prefix(cwd).ok().map(PathBuf::from))
        .unwrap_or(dir);
    dir.join(format!("s{}-{rep}.sock", std::process::id()))
}

fn boot(inputs: &Inputs, rep: usize) -> Booted {
    let workers = eden_par::current_num_threads();
    let config = ServeConfig {
        socket: socket_path(rep),
        workers,
        max_inflight: (workers * 2).max(4),
        max_sessions: 8,
        zoo_epochs: ZOO_EPOCHS,
        zoo_seed: ZOO_SEED,
        ..ServeConfig::default()
    };
    let handle = serve(config).unwrap_or_else(|e| {
        eprintln!("error: serve: {e}");
        std::process::exit(2);
    });
    let booted = Booted {
        socket: handle.socket().clone(),
        handle: Some(handle),
    };
    // One request per tenant warms every shard (and trains the zoo).
    let mut client = Client::connect_with_retry(&booted.socket, Duration::from_secs(10))
        .expect("connect to the freshly booted server");
    for i in 0..MIX.len() {
        let _ = send(&mut client, i, &inputs.request(i, 0));
    }
    booted
}

/// What a request returned: accuracy bits per point, or `None` on failure.
fn send(client: &mut Client, spec: usize, request: &Json) -> Option<Vec<u32>> {
    let bits = |v: &Json| {
        v.get("accuracy")
            .and_then(Json::as_f64)
            .map(|a| (a as f32).to_bits())
    };
    let ok = |v: &Json| v.get("ok").and_then(Json::as_bool) == Some(true);
    if MIX[spec].op == Op::Sweep {
        let mut points = Vec::new();
        let done = client.sweep(request, |p| points.push(bits(p))).ok()?;
        let points: Option<Vec<u32>> = points.into_iter().collect();
        (ok(&done) && done.get("done").and_then(Json::as_bool) == Some(true))
            .then_some(points?)
            .filter(|p| p.len() == SWEEP_BERS.len())
    } else {
        let response = client.request(request).ok()?;
        ok(&response)
            .then(|| bits(&response))
            .flatten()
            .map(|b| vec![b])
    }
}

/// One answered request of the timed phase.
struct Answer {
    spec: usize,
    k: usize,
    latency_ms: f64,
    result: Option<Vec<u32>>,
}

fn stats(socket: &PathBuf) -> Json {
    Client::connect_with_retry(socket, Duration::from_secs(10))
        .and_then(|mut c| c.stats())
        .unwrap_or(Json::Null)
}

fn counter(stats: &Json, group: &str, field: &str) -> f64 {
    stats
        .get(group)
        .and_then(|g| g.get(field))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let inputs = Inputs::new(ctx);
    let (server, setup_s) = repeat_setup(|rep| boot(&inputs, rep));
    let connections = eden_par::current_num_threads();
    let mut clients: Vec<Option<Client>> = (0..connections)
        .map(|_| Client::connect_with_retry(&server.socket, Duration::from_secs(10)).ok())
        .collect();
    let before = stats(&server.socket);
    let mut answers: Vec<Answer> = Vec::new();
    let next_request = AtomicU64::new(0);
    let passes = Passes::run(ctx, 3, |index, passes| {
        let cycle: Vec<Vec<Answer>> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let (inputs, next_request) = (&inputs, &next_request);
                    scope.spawn(move || {
                        (0..MIX.len())
                            .map(|i| {
                                let spec = (c + i) % MIX.len();
                                let k = (index + c) % SEEDS_PER_SPEC;
                                let id = next_request.fetch_add(1, Ordering::Relaxed);
                                let request = inputs.request(spec, k);
                                let started = Instant::now();
                                let result = {
                                    let _span = trace::span_with(MIX[spec].op.span(), Some(id));
                                    client.as_mut().and_then(|cl| send(cl, spec, &request))
                                };
                                Answer {
                                    spec,
                                    k,
                                    latency_ms: ms(started.elapsed()),
                                    result,
                                }
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut served = 0;
        for answer in cycle.into_iter().flatten() {
            passes.attempted += 1;
            if answer.result.is_some() {
                served += MIX[answer.spec].samples();
                passes.op_ms.push(answer.latency_ms);
            } else {
                passes.failed += 1;
                passes.op_ms.push(f64::INFINITY);
            }
            answers.push(answer);
        }
        served
    });
    let after = stats(&server.socket);
    drop(clients);
    drop(server);

    // Output check: every response bit-identical to a standalone session.
    let zoo = ModelZoo::new(ZOO_EPOCHS, ZOO_SEED);
    let t = Instant::now();
    zoo.get(ModelId::LeNet);
    zoo.get(ModelId::Vgg16);
    let train_s = t.elapsed().as_secs_f64();
    let mut standalone: Vec<EvalSession<'static>> = MIX
        .iter()
        .map(|s| {
            EvalSession::new_shared(
                zoo.get(s.model).net,
                s.precision,
                InferenceBackend::default(),
            )
        })
        .collect();
    let expect = |sessions: &mut Vec<EvalSession<'static>>, spec: usize, k: usize| -> Vec<u32> {
        let s = &MIX[spec];
        let dataset = zoo.get(s.model).dataset;
        let samples = &dataset.test()[inputs.start[spec]..inputs.start[spec] + s.count];
        let bers: Vec<f64> = if s.op == Op::Sweep {
            SWEEP_BERS.to_vec()
        } else {
            vec![s.ber]
        };
        bers.iter()
            .map(|&ber| {
                let mut memory = ApproximateMemory::from_model(
                    s.template().with_ber(ber),
                    inputs.seeds[spec][k],
                );
                sessions[spec]
                    .evaluate_with_faults(samples, &mut memory)
                    .to_bits()
            })
            .collect()
    };
    let mut expected: HashMap<(usize, usize), Vec<u32>> = HashMap::new();
    let mut failed = passes.failed;
    for a in &answers {
        if let Some(got) = &a.result {
            let want = expected
                .entry((a.spec, a.k))
                .or_insert_with(|| expect(&mut standalone, a.spec, a.k));
            if got != want {
                failed += 1;
                eprintln!(
                    "serve: {} response differs from standalone",
                    MIX[a.spec].op.name()
                );
            }
        }
    }
    let mut digest = Digest::default();
    for spec in 0..MIX.len() {
        for bits in expected
            .entry((spec, 0))
            .or_insert_with(|| expect(&mut standalone, spec, 0))
            .iter()
        {
            digest.add(*bits as u64);
        }
    }
    if !crate::check_digest(ctx, "serve", &digest) {
        failed += 1;
    }

    let mut m = Metrics::default();
    passes.report(&mut m, &setup_s);
    if ctx.traced {
        trace::set_enabled(true);
        m.set("dnn.train_s", train_s);
        for op in [Op::Eval, Op::EvalBatch, Op::Sweep] {
            let lat: Vec<f64> = answers
                .iter()
                .filter(|a| MIX[a.spec].op == op)
                .map(|a| {
                    if a.result.is_some() {
                        a.latency_ms
                    } else {
                        f64::INFINITY
                    }
                })
                .collect();
            m.set(format!("serve.{}.p50_ms", op.name()), median(&lat));
        }
        let mut alone = Vec::new();
        for spec in (0..MIX.len()).filter(|&i| MIX[i].op == Op::Eval) {
            for _ in 0..5 {
                let t = Instant::now();
                expect(&mut standalone, spec, 0);
                alone.push(ms(t.elapsed()));
            }
        }
        let alone = median(&alone);
        m.set("serve.standalone_eval_ms", alone);
        m.set(
            "serve.overhead_ms",
            m.get("serve.eval.p50_ms").unwrap_or(0.0) - alone,
        );
        m.set("serve.request_parse_us", parse_us(&inputs));
        let delta = |g: &str, f: &str| counter(&after, g, f) - counter(&before, g, f);
        let (hits, misses) = (delta("shards", "hits"), delta("shards", "misses"));
        m.set("serve.shard_hit_frac", crate::ratio(hits, hits + misses));
        let (batched, fallback) = (
            delta("batches", "samples_batched"),
            delta("batches", "fallback_samples"),
        );
        let npass = passes.pass_s.len().max(1) as f64;
        m.set("session.samples", (batched + fallback) / npass);
        m.set(
            "session.batched_frac",
            crate::ratio(batched, batched + fallback),
        );
        m.set(
            "session.mean_group",
            crate::ratio(batched, delta("batches", "groups")),
        );
        let (ch, cm) = (delta("checkpoints", "hits"), delta("checkpoints", "misses"));
        m.set("session.ckpt_hit_frac", crate::ratio(ch, ch + cm));
        m.set(
            "session.ckpt_evictions",
            counter(&after, "checkpoints", "evictions"),
        );
        m.set(
            "session.ckpt_resident_mb",
            counter(&after, "checkpoints", "resident_bytes") / (1 << 20) as f64,
        );
        let (wh, wm) = (delta("weak_maps", "hits"), delta("weak_maps", "misses"));
        m.set("session.weakmap_hit_frac", crate::ratio(wh, wh + wm));
        let served: f64 = answers
            .iter()
            .filter(|a| a.result.is_some())
            .map(|a| a.latency_ms)
            .sum();
        m.set("session.eval_s", served / 1e3 / npass);
        passes.trace_overhead(&mut m);
        layers::shared_probes(&mut m, None, None, ctx.seed);
    }
    Outcome {
        attempted: passes.attempted,
        failed,
        metrics: m,
    }
}

/// Mean microseconds to parse one of the mix's request frames
/// (`Json::parse` + `Request::parse`).
fn parse_us(inputs: &Inputs) -> f64 {
    let frames: Vec<String> = (0..MIX.len())
        .map(|i| inputs.request(i, 0).to_string())
        .collect();
    let mut times = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        for _ in 0..50 {
            for f in &frames {
                let json = Json::parse(std::hint::black_box(f)).expect("own frame parses");
                std::hint::black_box(Request::parse(&json).expect("own request is valid"));
            }
        }
        times.push(t.elapsed().as_secs_f64() * 1e6 / (50 * frames.len()) as f64);
    }
    median(&times)
}
