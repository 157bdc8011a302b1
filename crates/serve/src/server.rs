//! The eden-serve daemon: a Unix-socket accept loop over the shard pool.
//!
//! One OS thread per connection parses frames and dispatches requests; the
//! actual evaluations run with the server's dedicated `eden-par` pool
//! installed, so sample batches fan out across the configured worker count
//! regardless of which connection thread carries the request. A counting
//! admission gate bounds the evaluations in flight (excess requests wait,
//! up to their deadline) so a burst of tenants queues instead of
//! oversubscribing the pool.
//!
//! Determinism: results are produced by [`EvalSession::evaluate_with_faults`]
//! under the session/`ApproximateMemory` thread-invariance contract, so a
//! response is bit-identical to a standalone `EvalSession` evaluation of the
//! same spec at any `--workers` count and regardless of which requests
//! shared the shard before it.

use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use eden_core::faults::ApproximateMemory;
use eden_core::session::EvalSession;
use eden_dnn::zoo::ModelZoo;
use eden_dnn::Dataset as _;
use eden_tensor::Tensor;

use crate::json::Json;
use crate::protocol::{error_response, write_json, EvalSpec, Request};
use crate::shard::{SessionPool, Shard, ShardKey};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix socket path to listen on (a stale file at the path is removed).
    pub socket: PathBuf,
    /// Maximum live session shards (LRU eviction beyond this).
    pub max_sessions: usize,
    /// Maximum evaluations in flight; further requests wait at the
    /// admission gate up to their deadline.
    pub max_inflight: usize,
    /// Worker threads in the server's evaluation pool.
    pub workers: usize,
    /// Per-request deadline cap; a request's `timeout_ms` may only shorten
    /// it. The deadline is enforced at admission and between sweep points
    /// (a single in-flight evaluation is never preempted).
    pub request_timeout: Duration,
    /// Training epochs for zoo models.
    pub zoo_epochs: usize,
    /// Training seed for zoo models.
    pub zoo_seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = eden_par::current_num_threads();
        ServeConfig {
            socket: PathBuf::from("/tmp/eden-serve.sock"),
            max_sessions: 8,
            max_inflight: (workers * 2).max(4),
            workers,
            request_timeout: Duration::from_secs(30),
            zoo_epochs: 2,
            zoo_seed: 3,
        }
    }
}

#[derive(Default)]
struct ServerStats {
    requests: AtomicU64,
    errors: AtomicU64,
    evals: AtomicU64,
    sweep_points: AtomicU64,
}

/// Counting semaphore with deadline-bounded acquisition.
struct Gate {
    inflight: Mutex<usize>,
    freed: Condvar,
    max: usize,
}

impl Gate {
    fn new(max: usize) -> Gate {
        Gate {
            inflight: Mutex::new(0),
            freed: Condvar::new(),
            max: max.max(1),
        }
    }

    fn acquire(&self, deadline: Instant) -> Result<GatePermit<'_>, String> {
        let mut inflight = self.inflight.lock().unwrap();
        while *inflight >= self.max {
            let now = Instant::now();
            if now >= deadline {
                return Err("deadline exceeded waiting for admission".to_string());
            }
            let (guard, timeout) = self.freed.wait_timeout(inflight, deadline - now).unwrap();
            inflight = guard;
            if timeout.timed_out() && *inflight >= self.max {
                return Err("deadline exceeded waiting for admission".to_string());
            }
        }
        *inflight += 1;
        Ok(GatePermit { gate: self })
    }
}

struct GatePermit<'a> {
    gate: &'a Gate,
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        let mut inflight = self.gate.inflight.lock().unwrap();
        *inflight -= 1;
        drop(inflight);
        self.gate.freed.notify_one();
    }
}

struct ServerState {
    config: ServeConfig,
    pool: SessionPool,
    workers: eden_par::ThreadPool,
    gate: Gate,
    stats: ServerStats,
    shutdown: AtomicBool,
}

/// Handle to a running server: shut it down and join its threads.
pub struct ServerHandle {
    socket: PathBuf,
    state: Arc<ServerState>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The socket path the server listens on.
    pub fn socket(&self) -> &PathBuf {
        &self.socket
    }

    /// Requests shutdown (idempotent): stops accepting, lets in-flight
    /// connections drain.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop.
        let _ = UnixStream::connect(&self.socket);
    }

    /// Waits until the server stops (a client's `shutdown` request, or a
    /// prior [`ServerHandle::shutdown`] call) and joins the accept loop,
    /// which itself joins every connection thread. The daemon binary's
    /// main loop.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }

    /// Shuts down and drains: [`ServerHandle::shutdown`] +
    /// [`ServerHandle::wait`].
    pub fn join(self) {
        self.shutdown();
        self.wait();
    }
}

/// Binds the socket and spawns the accept loop. Returns once the server is
/// listening; requests are served on background threads until
/// [`ServerHandle::join`] (or a `shutdown` request) stops the loop.
pub fn serve(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let _ = std::fs::remove_file(&config.socket);
    let listener = UnixListener::bind(&config.socket)?;
    let zoo = Arc::new(ModelZoo::new(config.zoo_epochs, config.zoo_seed));
    let state = Arc::new(ServerState {
        pool: SessionPool::new(zoo, config.max_sessions),
        workers: eden_par::ThreadPool::new(config.workers),
        gate: Gate::new(config.max_inflight),
        stats: ServerStats::default(),
        shutdown: AtomicBool::new(false),
        config: config.clone(),
    });
    let socket = config.socket.clone();
    let accept_state = state.clone();
    let accept = std::thread::Builder::new()
        .name("eden-serve-accept".to_string())
        .spawn(move || accept_loop(listener, accept_state))?;
    Ok(ServerHandle {
        socket,
        state,
        accept: Some(accept),
    })
}

fn accept_loop(listener: UnixListener, state: Arc<ServerState>) {
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let conn_state = state.clone();
        if let Ok(handle) = std::thread::Builder::new()
            .name("eden-serve-conn".to_string())
            .spawn(move || {
                let _ = handle_connection(stream, conn_state);
            })
        {
            connections.push(handle);
        }
        connections.retain(|h| !h.is_finished());
    }
    for handle in connections {
        let _ = handle.join();
    }
}

/// Reads one frame like [`read_json`], but wakes every 100 ms while idle to
/// observe the shutdown flag: an idle keep-alive connection closes promptly
/// on shutdown instead of pinning the drain forever, while a frame already
/// in flight is always completed (and its response sent) first.
///
/// A complete frame that is not a JSON document comes back as
/// `Ok(Some(Err(message)))`: the stream is still in sync, so the caller
/// answers it with an error frame and keeps the connection.
fn read_json_interruptible(
    stream: &mut UnixStream,
    shutdown: &AtomicBool,
) -> std::io::Result<Option<Result<Json, String>>> {
    use std::io::Read;
    let read_some = |stream: &mut UnixStream, buf: &mut [u8], mid_frame: bool| loop {
        match stream.read(buf) {
            Ok(n) => return Ok(Some(n)),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if !mid_frame && shutdown.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    };
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match read_some(stream, &mut len_buf[filled..], filled > 0)? {
            None => return Ok(None),
            Some(0) if filled == 0 => return Ok(None),
            Some(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Some(n) => filled += n,
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > crate::protocol::MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame exceeds the protocol limit",
        ));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match read_some(stream, &mut payload[filled..], true)? {
            None | Some(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Some(n) => filled += n,
        }
    }
    Ok(Some(
        std::str::from_utf8(&payload)
            .map_err(|e| e.to_string())
            .and_then(Json::parse),
    ))
}

fn handle_connection(stream: UnixStream, state: Arc<ServerState>) -> std::io::Result<()> {
    let mut reader = stream.try_clone()?;
    reader.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut writer = stream;
    while let Some(frame) = read_json_interruptible(&mut reader, &state.shutdown)? {
        state.stats.requests.fetch_add(1, Ordering::Relaxed);
        let request = match frame.and_then(|value| Request::parse(&value)) {
            Ok(request) => request,
            Err(message) => {
                state.stats.errors.fetch_add(1, Ordering::Relaxed);
                write_json(&mut writer, &error_response(message))?;
                continue;
            }
        };
        match request {
            Request::Ping => {
                write_json(
                    &mut writer,
                    &Json::obj([("ok", Json::Bool(true)), ("pong", Json::Bool(true))]),
                )?;
            }
            Request::Stats => {
                write_json(&mut writer, &stats_response(&state))?;
            }
            Request::Shutdown => {
                state.shutdown.store(true, Ordering::SeqCst);
                write_json(&mut writer, &Json::obj([("ok", Json::Bool(true))]))?;
                // Unblock the accept loop so it can observe the flag.
                let _ = UnixStream::connect(&state.config.socket);
            }
            Request::Eval { spec, ber } => match handle_eval(&state, &spec, ber, None) {
                Ok(response) => write_json(&mut writer, &response)?,
                Err(message) => {
                    state.stats.errors.fetch_add(1, Ordering::Relaxed);
                    write_json(&mut writer, &error_response(message))?;
                }
            },
            Request::EvalBatch { spec, ber, batch } => {
                match handle_eval(&state, &spec, ber, Some(batch)) {
                    Ok(response) => write_json(&mut writer, &response)?,
                    Err(message) => {
                        state.stats.errors.fetch_add(1, Ordering::Relaxed);
                        write_json(&mut writer, &error_response(message))?;
                    }
                }
            }
            Request::Sweep { spec, bers } => {
                handle_sweep(&state, &spec, &bers, &mut writer)?;
            }
        }
    }
    Ok(())
}

fn request_deadline(state: &ServerState, spec: &EvalSpec) -> Instant {
    let cap = state.config.request_timeout;
    let timeout = match spec.timeout_ms {
        Some(ms) => cap.min(Duration::from_millis(ms)),
        None => cap,
    };
    Instant::now() + timeout
}

/// Resolves the request's shard and sample slice.
fn resolve(state: &ServerState, spec: &EvalSpec) -> Result<(Arc<Shard>, bool), String> {
    let key = ShardKey::for_spec(spec)?;
    let (shard, hit) = state.pool.get_or_build_traced(key);
    let available = shard.dataset.test().len();
    if spec.start.saturating_add(spec.count) > available {
        return Err(format!(
            "sample range {}..{} out of bounds for the {} test set ({available} samples)",
            spec.start,
            spec.start + spec.count,
            spec.model.key(),
        ));
    }
    Ok((shard, hit))
}

fn build_memory(spec: &EvalSpec, ber: f64) -> Result<ApproximateMemory, String> {
    match &spec.error_model {
        None => Ok(ApproximateMemory::reliable(spec.seed)),
        Some(e) => Ok(ApproximateMemory::from_model(
            e.template()?.with_ber(ber),
            spec.seed,
        )),
    }
}

/// Runs one admitted evaluation on the server pool. Maps the empty-sample
/// NaN accuracy sentinel to `Err` so it becomes a structured error response
/// instead of a non-finite number in a JSON frame.
fn run_eval(
    state: &ServerState,
    session: &EvalSession<'static>,
    samples: &[(Tensor, usize)],
    memory: &mut ApproximateMemory,
    deadline: Instant,
    batch: Option<usize>,
) -> Result<f32, String> {
    let _permit = state.gate.acquire(deadline)?;
    if Instant::now() >= deadline {
        return Err("deadline exceeded before execution".to_string());
    }
    let accuracy = state.workers.install(|| match batch {
        Some(cap) => session.evaluate_concurrent_batched(samples, memory, cap),
        None => session.evaluate_with_faults(samples, memory),
    });
    state.stats.evals.fetch_add(1, Ordering::Relaxed);
    if accuracy.is_nan() {
        return Err(
            "empty sample set: accuracy is undefined (NaN sentinel suppressed)".to_string(),
        );
    }
    Ok(accuracy)
}

fn eval_body(accuracy: f32, memory: &ApproximateMemory, shard_hit: bool) -> Vec<(String, Json)> {
    let stats = memory.stats();
    vec![
        ("accuracy".to_string(), Json::num(accuracy as f64)),
        ("loads".to_string(), Json::num(stats.loads as f64)),
        ("bit_flips".to_string(), Json::num(stats.bit_flips as f64)),
        (
            "corrections".to_string(),
            Json::num(stats.corrections as f64),
        ),
        ("shard_hit".to_string(), Json::Bool(shard_hit)),
    ]
}

fn handle_eval(
    state: &ServerState,
    spec: &EvalSpec,
    ber: f64,
    batch: Option<usize>,
) -> Result<Json, String> {
    let deadline = request_deadline(state, spec);
    let (shard, hit) = resolve(state, spec)?;
    let samples = &shard.dataset.test()[spec.start..spec.start + spec.count];
    let mut memory = build_memory(spec, ber)?;
    let accuracy = run_eval(state, &shard.session, samples, &mut memory, deadline, batch)?;
    let mut body = vec![("ok".to_string(), Json::Bool(true))];
    body.extend(eval_body(accuracy, &memory, hit));
    Ok(Json::Obj(body.into_iter().collect()))
}

/// Streams a sweep: one `{"point": ...}` frame per BER as soon as it is
/// computed, then a terminal `{"done": true}` frame. A deadline or
/// evaluation error ends the stream with an error frame carrying `"done"`.
fn handle_sweep(
    state: &ServerState,
    spec: &EvalSpec,
    bers: &[f64],
    writer: &mut impl Write,
) -> std::io::Result<()> {
    let deadline = request_deadline(state, spec);
    let (shard, hit) = match resolve(state, spec) {
        Ok(resolved) => resolved,
        Err(message) => {
            state.stats.errors.fetch_add(1, Ordering::Relaxed);
            let mut response = error_response(message);
            if let Json::Obj(map) = &mut response {
                map.insert("done".to_string(), Json::Bool(true));
            }
            return write_json(writer, &response);
        }
    };
    let samples = &shard.dataset.test()[spec.start..spec.start + spec.count];
    let mut streamed = 0u64;
    for &ber in bers {
        let result = build_memory(spec, ber).and_then(|mut memory| {
            let accuracy = run_eval(state, &shard.session, samples, &mut memory, deadline, None)?;
            Ok((accuracy, memory))
        });
        match result {
            Ok((accuracy, memory)) => {
                streamed += 1;
                state.stats.sweep_points.fetch_add(1, Ordering::Relaxed);
                let mut point = vec![("ber".to_string(), Json::num(ber))];
                point.extend(eval_body(accuracy, &memory, hit));
                write_json(
                    writer,
                    &Json::obj([
                        ("ok", Json::Bool(true)),
                        ("point", Json::Obj(point.into_iter().collect())),
                    ]),
                )?;
            }
            Err(message) => {
                state.stats.errors.fetch_add(1, Ordering::Relaxed);
                let mut response = error_response(message);
                if let Json::Obj(map) = &mut response {
                    map.insert("done".to_string(), Json::Bool(true));
                    map.insert("points".to_string(), Json::num(streamed as f64));
                }
                return write_json(writer, &response);
            }
        }
    }
    write_json(
        writer,
        &Json::obj([
            ("ok", Json::Bool(true)),
            ("done", Json::Bool(true)),
            ("points", Json::num(streamed as f64)),
        ]),
    )
}

fn stats_response(state: &ServerState) -> Json {
    let pool = state.pool.counters();
    let weak = state.pool.weak_map_counters();
    let ckpt = state.pool.checkpoint_counters();
    let batches = state.pool.batch_counters();
    Json::obj([
        ("ok", Json::Bool(true)),
        (
            "requests",
            Json::num(state.stats.requests.load(Ordering::Relaxed) as f64),
        ),
        (
            "errors",
            Json::num(state.stats.errors.load(Ordering::Relaxed) as f64),
        ),
        (
            "evals",
            Json::num(state.stats.evals.load(Ordering::Relaxed) as f64),
        ),
        (
            "sweep_points",
            Json::num(state.stats.sweep_points.load(Ordering::Relaxed) as f64),
        ),
        ("workers", Json::num(state.workers.num_threads() as f64)),
        (
            "shards",
            Json::obj([
                ("hits", Json::num(pool.hits as f64)),
                ("misses", Json::num(pool.misses as f64)),
                ("evictions", Json::num(pool.evictions as f64)),
                ("live", Json::num(pool.live as f64)),
            ]),
        ),
        (
            "weak_maps",
            Json::obj([
                ("hits", Json::num(weak.hits as f64)),
                ("misses", Json::num(weak.misses as f64)),
                ("evictions", Json::num(weak.evictions as f64)),
            ]),
        ),
        (
            "checkpoints",
            Json::obj([
                ("hits", Json::num(ckpt.hits as f64)),
                ("misses", Json::num(ckpt.misses as f64)),
                ("evictions", Json::num(ckpt.evictions as f64)),
                ("resident_bytes", Json::num(ckpt.resident_bytes as f64)),
            ]),
        ),
        (
            "batches",
            Json::obj([
                ("groups", Json::num(batches.groups as f64)),
                ("samples_batched", Json::num(batches.batched_samples as f64)),
                (
                    "fallback_samples",
                    Json::num(batches.fallback_samples as f64),
                ),
            ]),
        ),
        (
            "models_built",
            Json::num(state.pool.zoo().models_built() as f64),
        ),
    ])
}
