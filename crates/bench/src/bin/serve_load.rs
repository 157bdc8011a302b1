//! Load test for eden-serve: a synthetic many-tenant workload.
//!
//! Boots an in-process server (or connects to a running daemon via
//! `--socket`), drives it from several client connections round-robining
//! over tenant configurations that map to distinct session shards, and
//! reports request and sample throughput (aggregate and per tenant),
//! latency percentiles (p50/p95/p99), session-shard, weak-map and
//! batch-group counters, and a parallelism factor (aggregate busy time over
//! wall time — the all-cores utilization sanity check).
//!
//! Every response is verified bit-identical to a fresh standalone
//! `EvalSession` evaluating the same spec (disable with `--no-verify` when
//! pointed at a daemon with a different zoo configuration). Exits non-zero
//! on any request error, any verification mismatch, or a parallelism factor
//! under `--min-parallelism`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use eden_core::faults::ApproximateMemory;
use eden_core::inference::InferenceBackend;
use eden_core::session::EvalSession;
use eden_dnn::zoo::{ModelId, ModelZoo};
use eden_dnn::Dataset as _;
use eden_dram::ErrorModel;
use eden_serve::{serve, Client, Json, ServeConfig};
use eden_tensor::Precision;

const COUNT: usize = 8;
const MEM_SEED: u64 = 11;

/// One tenant: a serving configuration that maps to its own shard key
/// (distinct precision or error-model template).
struct Tenant {
    precision: Precision,
    precision_key: &'static str,
    kind: &'static str,
    ber: f64,
}

const TENANTS: [Tenant; 4] = [
    Tenant {
        precision: Precision::Int8,
        precision_key: "int8",
        kind: "uniform",
        ber: 1e-3,
    },
    Tenant {
        precision: Precision::Int4,
        precision_key: "int4",
        kind: "uniform",
        ber: 1e-2,
    },
    Tenant {
        precision: Precision::Int16,
        precision_key: "int16",
        kind: "wordline",
        ber: 1e-3,
    },
    Tenant {
        precision: Precision::Int8,
        precision_key: "int8",
        kind: "wordline",
        ber: 1e-2,
    },
];

impl Tenant {
    fn request(&self) -> Json {
        Json::obj([
            ("op", Json::str("eval")),
            ("model", Json::str("lenet")),
            ("precision", Json::str(self.precision_key)),
            (
                "error_model",
                Json::obj([("kind", Json::str(self.kind)), ("seed", Json::num(5.0))]),
            ),
            ("ber", Json::num(self.ber)),
            ("count", Json::num(COUNT as f64)),
            ("seed", Json::num(MEM_SEED as f64)),
        ])
    }

    fn template(&self) -> ErrorModel {
        match self.kind {
            "uniform" => ErrorModel::uniform(0.02, 0.5, 5),
            "wordline" => ErrorModel::wordline(0.02, 0.5, 0.9, 5),
            other => unreachable!("unknown tenant kind {other}"),
        }
    }

    /// The ground-truth accuracy from a fresh standalone session.
    fn standalone(&self, zoo: &ModelZoo) -> f32 {
        let entry = zoo.get(ModelId::LeNet);
        let session =
            EvalSession::new_shared(entry.net, self.precision, InferenceBackend::default());
        let mut memory =
            ApproximateMemory::from_model(self.template().with_ber(self.ber), MEM_SEED);
        session.evaluate_with_faults(&entry.dataset.test()[..COUNT], &mut memory)
    }
}

fn fatal(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let prefix = format!("{flag}=");
    for (i, arg) in args.iter().enumerate() {
        if let Some(v) = arg.strip_prefix(&prefix) {
            return Some(v.to_string());
        }
        if arg == flag {
            match args.get(i + 1) {
                Some(v) => return Some(v.clone()),
                None => fatal(&format!("{flag} requires a value")),
            }
        }
    }
    None
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match flag_value(args, flag) {
        None => default,
        Some(v) => v
            .parse::<T>()
            .unwrap_or_else(|_| fatal(&format!("invalid value {v:?} for {flag}"))),
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let requests: usize = parse_flag(&args, "--requests", 48);
    let clients: usize = parse_flag(&args, "--clients", 4);
    let workers: usize = parse_flag(&args, "--workers", eden_par::current_num_threads());
    let zoo_epochs: usize = parse_flag(&args, "--zoo-epochs", 1);
    let zoo_seed: u64 = parse_flag(&args, "--zoo-seed", 3);
    let min_parallelism: f64 = parse_flag(&args, "--min-parallelism", 0.0);
    let verify = !args.iter().any(|a| a == "--no-verify");
    let report_path = flag_value(&args, "--report").map(PathBuf::from);
    let external = flag_value(&args, "--socket").map(PathBuf::from);
    if requests == 0 || clients == 0 || workers == 0 {
        fatal("--requests, --clients and --workers must be at least 1");
    }

    // Boot an in-process server unless pointed at a running daemon.
    let (socket, server) = match external {
        Some(path) => (path, None),
        None => {
            let config = ServeConfig {
                socket: std::env::temp_dir()
                    .join(format!("eden-serve-load-{}.sock", std::process::id())),
                workers,
                max_inflight: (workers * 2).max(4),
                zoo_epochs,
                zoo_seed,
                ..ServeConfig::default()
            };
            let handle = serve(config).unwrap_or_else(|e| fatal(&format!("serve: {e}")));
            (handle.socket().clone(), Some(handle))
        }
    };

    println!("eden-serve load test");
    println!(
        "  requests {requests}  clients {clients}  workers {workers}  tenants {}",
        TENANTS.len()
    );

    // Fan the workload out: each client connection round-robins the tenant
    // list, so every shard sees interleaved traffic from every connection.
    let socket = Arc::new(socket);
    let wall_start = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let socket = socket.clone();
            let per_client = requests / clients + usize::from(c < requests % clients);
            std::thread::spawn(move || {
                let mut client = Client::connect_with_retry(&*socket, Duration::from_secs(10))
                    .unwrap_or_else(|e| fatal(&format!("connect: {e}")));
                let mut latencies = Vec::with_capacity(per_client);
                let mut results: Vec<(usize, u32)> = Vec::with_capacity(per_client);
                let mut errors = 0usize;
                for i in 0..per_client {
                    let tenant = (c + i) % TENANTS.len();
                    let start = Instant::now();
                    let response = client
                        .request(&TENANTS[tenant].request())
                        .unwrap_or_else(|e| fatal(&format!("request: {e}")));
                    latencies.push(start.elapsed());
                    match (
                        response.get("ok").and_then(Json::as_bool),
                        response.get("accuracy").and_then(Json::as_f64),
                    ) {
                        (Some(true), Some(acc)) => results.push((tenant, (acc as f32).to_bits())),
                        _ => {
                            eprintln!("request error: {response}");
                            errors += 1;
                        }
                    }
                }
                (latencies, results, errors)
            })
        })
        .collect();

    let mut latencies: Vec<Duration> = Vec::with_capacity(requests);
    let mut results: Vec<(usize, u32)> = Vec::with_capacity(requests);
    let mut errors = 0usize;
    for thread in threads {
        let (lat, res, err) = thread.join().expect("client thread panicked");
        latencies.extend(lat);
        results.extend(res);
        errors += err;
    }
    let wall = wall_start.elapsed();

    // Counters from the server, then shut it down if we own it.
    let mut client = Client::connect_with_retry(&*socket, Duration::from_secs(10))
        .unwrap_or_else(|e| fatal(&format!("connect: {e}")));
    let stats = client
        .stats()
        .unwrap_or_else(|e| fatal(&format!("stats: {e}")));
    if args.iter().any(|a| a == "--shutdown") {
        // Ask an external daemon to exit gracefully (CI smoke test).
        let _ = client.shutdown();
    }
    if let Some(handle) = server {
        handle.join();
    }

    let busy: Duration = latencies.iter().sum();
    let parallelism = busy.as_secs_f64() / wall.as_secs_f64().max(1e-9);
    latencies.sort();
    let (p50, p95, p99) = (
        percentile(&latencies, 50.0),
        percentile(&latencies, 95.0),
        percentile(&latencies, 99.0),
    );
    let throughput = latencies.len() as f64 / wall.as_secs_f64().max(1e-9);

    // Sample throughput: every request evaluates COUNT samples, so the
    // aggregate (and each tenant's share) is requests · COUNT over the wall.
    let wall_s = wall.as_secs_f64().max(1e-9);
    let samples_per_sec = results.len() as f64 * COUNT as f64 / wall_s;
    let mut tenant_requests = vec![0usize; TENANTS.len()];
    for &(t, _) in &results {
        tenant_requests[t] += 1;
    }

    let shards = stats.get("shards").cloned().unwrap_or(Json::Null);
    let weak = stats.get("weak_maps").cloned().unwrap_or(Json::Null);
    let ckpt = stats.get("checkpoints").cloned().unwrap_or(Json::Null);
    let batches = stats.get("batches").cloned().unwrap_or(Json::Null);
    let live = shards.get("live").and_then(Json::as_u64).unwrap_or(0);
    let mut report = String::new();
    report.push_str("eden-serve load test report\n");
    report.push_str(&format!(
        "requests {}  clients {clients}  workers {workers}  tenants {}\n",
        latencies.len(),
        TENANTS.len()
    ));
    report.push_str(&format!(
        "wall {:.1} ms  throughput {throughput:.1} req/s  parallelism x{parallelism:.2}\n",
        ms(wall)
    ));
    report.push_str(&format!(
        "latency p50 {:.1} ms  p95 {:.1} ms  p99 {:.1} ms\n",
        ms(p50),
        ms(p95),
        ms(p99)
    ));
    let per_tenant: Vec<String> = tenant_requests
        .iter()
        .enumerate()
        .map(|(t, &n)| format!("t{t} {:.1}", n as f64 * COUNT as f64 / wall_s))
        .collect();
    report.push_str(&format!(
        "throughput {samples_per_sec:.1} samples/s  per-tenant [{}]\n",
        per_tenant.join("  ")
    ));
    report.push_str(&format!(
        "shards live {live}  hits {}  misses {}  evictions {}\n",
        shards.get("hits").and_then(Json::as_u64).unwrap_or(0),
        shards.get("misses").and_then(Json::as_u64).unwrap_or(0),
        shards.get("evictions").and_then(Json::as_u64).unwrap_or(0),
    ));
    report.push_str(&format!(
        "weak-map cache hits {}  misses {}\n",
        weak.get("hits").and_then(Json::as_u64).unwrap_or(0),
        weak.get("misses").and_then(Json::as_u64).unwrap_or(0),
    ));
    report.push_str(&format!(
        "checkpoints hits {}  misses {}  evictions {}  resident {} B\n",
        ckpt.get("hits").and_then(Json::as_u64).unwrap_or(0),
        ckpt.get("misses").and_then(Json::as_u64).unwrap_or(0),
        ckpt.get("evictions").and_then(Json::as_u64).unwrap_or(0),
        ckpt.get("resident_bytes")
            .and_then(Json::as_u64)
            .unwrap_or(0),
    ));
    report.push_str(&format!(
        "batch groups {}  samples batched {}  fallback {}\n",
        batches.get("groups").and_then(Json::as_u64).unwrap_or(0),
        batches
            .get("samples_batched")
            .and_then(Json::as_u64)
            .unwrap_or(0),
        batches
            .get("fallback_samples")
            .and_then(Json::as_u64)
            .unwrap_or(0),
    ));
    report.push_str(&format!("errors {errors}\n"));
    print!("{report}");

    // Bit-identity: within the run (every response for a tenant identical)
    // and against fresh standalone sessions over the same zoo config.
    let mut mismatches = 0usize;
    if verify {
        let zoo = ModelZoo::new(zoo_epochs, zoo_seed);
        for (t, tenant) in TENANTS.iter().enumerate() {
            let got: Vec<u32> = results
                .iter()
                .filter(|(idx, _)| *idx == t)
                .map(|&(_, bits)| bits)
                .collect();
            let expected = tenant.standalone(&zoo).to_bits();
            let ok = !got.is_empty() && got.iter().all(|&bits| bits == expected);
            if !ok {
                eprintln!(
                    "tenant {t} ({} {} ber {}): served results differ from standalone",
                    tenant.precision_key, tenant.kind, tenant.ber
                );
                mismatches += 1;
            }
        }
        println!(
            "verification: {}/{} tenant configs bit-identical to standalone",
            TENANTS.len() - mismatches,
            TENANTS.len()
        );
    }

    if let Some(path) = report_path {
        std::fs::write(&path, &report).unwrap_or_else(|e| fatal(&format!("write report: {e}")));
        println!("report written to {}", path.display());
    }

    if errors > 0 {
        fatal(&format!("{errors} request(s) failed"));
    }
    if mismatches > 0 {
        fatal("served results are not bit-identical to standalone sessions");
    }
    if live < 2 {
        fatal(&format!(
            "expected at least 2 live session shards, server reports {live}"
        ));
    }
    if parallelism < min_parallelism {
        fatal(&format!(
            "parallelism x{parallelism:.2} below the --min-parallelism x{min_parallelism:.2} floor"
        ));
    }
    println!("PASS");
}
