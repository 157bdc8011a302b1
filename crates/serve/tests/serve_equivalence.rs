//! Concurrent-session correctness: the service boundary preserves the
//! `EvalSession`/`ApproximateMemory` determinism contract.
//!
//! Every accuracy a server returns must be bit-identical to a fresh
//! standalone `EvalSession` evaluating the same spec — regardless of the
//! server's worker count, of which requests shared the shard first, and of
//! LRU evictions in between.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use eden_core::faults::ApproximateMemory;
use eden_core::inference::InferenceBackend;
use eden_core::session::EvalSession;
use eden_dnn::zoo::{ModelId, ModelZoo};
use eden_dnn::Dataset as _;
use eden_dram::ErrorModel;
use eden_serve::{serve, Client, Json, ServeConfig};
use eden_tensor::Precision;

const ZOO_EPOCHS: usize = 1;
const ZOO_SEED: u64 = 3;
const COUNT: usize = 8;
const MEM_SEED: u64 = 11;

fn socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("eden-serve-test-{}-{tag}.sock", std::process::id()))
}

fn config(tag: &str, workers: usize) -> ServeConfig {
    ServeConfig {
        socket: socket(tag),
        max_sessions: 4,
        max_inflight: 8,
        workers,
        request_timeout: Duration::from_secs(60),
        zoo_epochs: ZOO_EPOCHS,
        zoo_seed: ZOO_SEED,
    }
}

fn eval_request(precision: &str, ber: f64) -> Json {
    Json::obj([
        ("op", Json::str("eval")),
        ("model", Json::str("lenet")),
        ("precision", Json::str(precision)),
        (
            "error_model",
            Json::obj([("kind", Json::str("uniform")), ("seed", Json::num(5.0))]),
        ),
        ("ber", Json::num(ber)),
        ("count", Json::num(COUNT as f64)),
        ("seed", Json::num(MEM_SEED as f64)),
    ])
}

/// The ground truth: a fresh standalone session over the same zoo config.
fn standalone(precision: Precision, ber: f64) -> f32 {
    let zoo = ModelZoo::new(ZOO_EPOCHS, ZOO_SEED);
    let entry = zoo.get(ModelId::LeNet);
    let session = EvalSession::new_shared(entry.net, precision, InferenceBackend::default());
    let template = ErrorModel::uniform(0.02, 0.5, 5);
    let mut memory = ApproximateMemory::from_model(template.with_ber(ber), MEM_SEED);
    session.evaluate_with_faults(&entry.dataset.test()[..COUNT], &mut memory)
}

fn accuracy(response: &Json) -> f32 {
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "request failed: {response}"
    );
    response.get("accuracy").and_then(Json::as_f64).unwrap() as f32
}

#[test]
fn two_clients_share_a_shard_and_agree() {
    let server = serve(config("two-clients", 2)).unwrap();
    let path = server.socket().clone();
    let request = Arc::new(eval_request("int8", 1e-3));
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let path = path.clone();
            let request = request.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect_with_retry(&path, Duration::from_secs(5)).unwrap();
                accuracy(&client.request(&request).unwrap())
            })
        })
        .collect();
    let results: Vec<f32> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    assert_eq!(results[0].to_bits(), results[1].to_bits());
    assert_eq!(
        results[0].to_bits(),
        standalone(Precision::Int8, 1e-3).to_bits()
    );

    let mut client = Client::connect(&path).unwrap();
    let stats = client.stats().unwrap();
    let shards = stats.get("shards").unwrap();
    // Both clients asked for the same key: one build, at least one hit.
    assert_eq!(shards.get("misses").and_then(Json::as_u64), Some(1));
    assert!(shards.get("hits").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(stats.get("models_built").and_then(Json::as_u64), Some(1));
    server.join();
}

#[test]
fn serve_matches_standalone_at_any_worker_count() {
    let cases = [
        (Precision::Int8, "int8", 1e-3),
        (Precision::Int4, "int4", 1e-2),
    ];
    let expected: Vec<u32> = cases
        .iter()
        .map(|&(p, _, ber)| standalone(p, ber).to_bits())
        .collect();
    for workers in [1usize, 2, 8] {
        let server = serve(config(&format!("workers-{workers}"), workers)).unwrap();
        let mut client =
            Client::connect_with_retry(server.socket(), Duration::from_secs(5)).unwrap();
        for (&(_, name, ber), &want) in cases.iter().zip(&expected) {
            let got = accuracy(&client.request(&eval_request(name, ber)).unwrap());
            assert_eq!(
                got.to_bits(),
                want,
                "{name} ber={ber} differs at {workers} workers"
            );
        }
        server.join();
    }
}

#[test]
fn eviction_keeps_results_correct() {
    let mut cfg = config("eviction", 2);
    cfg.max_sessions = 1; // every precision switch evicts the other shard
    let server = serve(cfg).unwrap();
    let mut client = Client::connect_with_retry(server.socket(), Duration::from_secs(5)).unwrap();
    let int8 = standalone(Precision::Int8, 1e-3).to_bits();
    let int4 = standalone(Precision::Int4, 1e-3).to_bits();
    for _ in 0..2 {
        let a = accuracy(&client.request(&eval_request("int8", 1e-3)).unwrap());
        let b = accuracy(&client.request(&eval_request("int4", 1e-3)).unwrap());
        assert_eq!(a.to_bits(), int8);
        assert_eq!(b.to_bits(), int4);
    }
    let stats = client.stats().unwrap();
    let shards = stats.get("shards").unwrap();
    assert!(shards.get("evictions").and_then(Json::as_u64).unwrap() >= 3);
    assert_eq!(shards.get("live").and_then(Json::as_u64), Some(1));
    // One trained network serves every shard generation.
    assert_eq!(stats.get("models_built").and_then(Json::as_u64), Some(1));
    server.join();
}

#[test]
fn invalid_requests_get_structured_errors() {
    let server = serve(config("invalid", 1)).unwrap();
    let mut client = Client::connect_with_retry(server.socket(), Duration::from_secs(5)).unwrap();
    let cases: Vec<(Json, &str)> = vec![
        (Json::obj([("op", Json::str("evla"))]), "unknown op"),
        (
            {
                let mut r = eval_request("int8", 1e-3);
                if let Json::Obj(map) = &mut r {
                    map.insert("model".to_string(), Json::str("resnet9000"));
                }
                r
            },
            "unknown model",
        ),
        (
            {
                let mut r = eval_request("int8", 1e-3);
                if let Json::Obj(map) = &mut r {
                    map.insert("backend".to_string(), Json::str("ntaive"));
                }
                r
            },
            "typo'd backend",
        ),
        (
            {
                let mut r = eval_request("int8", 1e-3);
                if let Json::Obj(map) = &mut r {
                    map.insert("start".to_string(), Json::num(1e9));
                }
                r
            },
            "out-of-range samples",
        ),
    ];
    for (request, what) in cases {
        let response = client.request(&request).unwrap();
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(false),
            "{what} must fail: {response}"
        );
        assert!(response.get("error").and_then(Json::as_str).is_some());
    }

    // The empty-sample NaN sentinel becomes a structured error, never a
    // non-finite number in a JSON frame.
    let mut empty = eval_request("int8", 1e-3);
    if let Json::Obj(map) = &mut empty {
        map.insert("count".to_string(), Json::num(0.0));
    }
    let response = client.request(&empty).unwrap();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    let message = response.get("error").and_then(Json::as_str).unwrap();
    assert!(message.contains("empty sample"), "{message}");
    server.join();
}

#[test]
fn malformed_frames_get_errors_and_keep_the_connection() {
    use eden_serve::protocol::{read_json, write_frame};
    let server = serve(config("malformed", 1)).unwrap();
    // Connect through a client first: it retries until the server listens.
    drop(Client::connect_with_retry(server.socket(), Duration::from_secs(5)).unwrap());
    let mut stream = std::os::unix::net::UnixStream::connect(server.socket()).unwrap();
    // A 200 000-deep array fits the frame limit; parsing it unbounded
    // overflowed the connection thread's stack and aborted the process.
    for frame in [
        "[".repeat(200_000),
        "{\"op\":".to_string(),
        "\u{0}".to_string(),
    ] {
        write_frame(&mut stream, frame.as_bytes()).unwrap();
        let response = read_json(&mut stream).unwrap().expect("an error frame");
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        assert!(response.get("error").and_then(Json::as_str).is_some());
    }
    write_frame(
        &mut stream,
        eval_request("int8", 1e-3).to_string().as_bytes(),
    )
    .unwrap();
    let response = read_json(&mut stream).unwrap().expect("an eval response");
    assert_eq!(
        accuracy(&response).to_bits(),
        standalone(Precision::Int8, 1e-3).to_bits()
    );
    server.join();
}

#[test]
fn eval_batch_matches_eval_and_reports_group_counters() {
    let server = serve(config("eval-batch", 2)).unwrap();
    let mut client = Client::connect_with_retry(server.socket(), Duration::from_secs(5)).unwrap();
    let plain = accuracy(&client.request(&eval_request("int8", 1e-3)).unwrap());
    for batch in [1u64, 3, 32] {
        let mut request = eval_request("int8", 1e-3);
        if let Json::Obj(map) = &mut request {
            map.insert("op".to_string(), Json::str("eval-batch"));
            map.insert("batch".to_string(), Json::num(batch as f64));
        }
        let batched = accuracy(&client.request(&request).unwrap());
        // Bit-identical at any cap — batching is a pure throughput knob.
        assert_eq!(batched.to_bits(), plain.to_bits(), "batch={batch}");
    }
    let stats = client.stats().unwrap();
    let batches = stats.get("batches").unwrap();
    // The cap-3 and cap-32 requests (and the default-cap plain eval) formed
    // multi-sample groups; the cap-1 request fell back sample by sample.
    assert!(batches.get("groups").and_then(Json::as_u64).unwrap() > 0);
    assert!(
        batches
            .get("samples_batched")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
    assert!(
        batches
            .get("fallback_samples")
            .and_then(Json::as_u64)
            .unwrap()
            >= COUNT as u64
    );
    server.join();
}

#[test]
fn sweeps_stream_points_that_match_single_evals() {
    let server = serve(config("sweep", 2)).unwrap();
    let mut client = Client::connect_with_retry(server.socket(), Duration::from_secs(5)).unwrap();
    let bers = [1e-4, 1e-3, 1e-2];
    let request = Json::obj([
        ("op", Json::str("sweep")),
        ("model", Json::str("lenet")),
        ("precision", Json::str("int8")),
        (
            "error_model",
            Json::obj([("kind", Json::str("uniform")), ("seed", Json::num(5.0))]),
        ),
        (
            "bers",
            Json::Arr(bers.iter().map(|&b| Json::num(b)).collect()),
        ),
        ("count", Json::num(COUNT as f64)),
        ("seed", Json::num(MEM_SEED as f64)),
    ]);
    let mut points: Vec<(f64, f32)> = Vec::new();
    let done = client
        .sweep(&request, |point| {
            points.push((
                point.get("ber").and_then(Json::as_f64).unwrap(),
                point.get("accuracy").and_then(Json::as_f64).unwrap() as f32,
            ));
        })
        .unwrap();
    assert_eq!(done.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(done.get("points").and_then(Json::as_u64), Some(3));
    assert_eq!(points.len(), 3);
    for (&ber, &(got_ber, got)) in bers.iter().zip(&points) {
        assert_eq!(ber, got_ber);
        // A sweep point is the same operating point as a single eval.
        let single = accuracy(&client.request(&eval_request("int8", ber)).unwrap());
        assert_eq!(got.to_bits(), single.to_bits());
        assert_eq!(got.to_bits(), standalone(Precision::Int8, ber).to_bits());
    }
    server.join();
}
