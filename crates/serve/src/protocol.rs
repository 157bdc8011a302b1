//! The eden-serve wire protocol: length-prefixed JSON frames and the
//! request/response vocabulary.
//!
//! Every message is one JSON object preceded by its byte length as a
//! big-endian `u32`. Requests carry an `"op"` field; the server answers
//! `eval`/`ping`/`stats`/`shutdown` with exactly one frame, and `sweep`
//! with one `{"point": ...}` frame per BER followed by a terminal
//! `{"done": true, ...}` frame. Error responses are
//! `{"ok": false, "error": "..."}` — including the structured error the
//! server substitutes for the empty-sample NaN accuracy sentinel, which
//! must never reach the JSON writer.
//!
//! Field validation reuses the workspace `FromStr` implementations
//! ([`ModelId`], [`Precision`], [`InferenceBackend`]) so a typo like
//! `"backend": "ntaive"` fails a request with the same message the CLI
//! parsers print, instead of silently running the default configuration.

use std::io::{Read, Write};

use eden_core::inference::InferenceBackend;
use eden_dnn::zoo::ModelId;
use eden_dram::ErrorModel;
use eden_tensor::Precision;

use crate::json::Json;

/// Upper bound on one frame's payload; a length prefix beyond this is a
/// protocol error, not an allocation request.
pub const MAX_FRAME: usize = 1 << 20;

/// Reads one length-prefixed frame. Returns `Ok(None)` on clean EOF at a
/// frame boundary (the peer hung up between requests).
pub fn read_frame(reader: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = reader.read(&mut len_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame",
            ));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Writes one length-prefixed frame.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame exceeds the protocol limit",
        ));
    }
    writer.write_all(&(payload.len() as u32).to_be_bytes())?;
    writer.write_all(payload)?;
    writer.flush()
}

/// Serializes `value` and writes it as one frame.
pub fn write_json(writer: &mut impl Write, value: &Json) -> std::io::Result<()> {
    write_frame(writer, value.to_string().as_bytes())
}

/// Reads one frame and parses it as JSON. `Ok(None)` on clean EOF.
pub fn read_json(reader: &mut impl Read) -> std::io::Result<Option<Json>> {
    let Some(payload) = read_frame(reader)? else {
        return Ok(None);
    };
    let text = std::str::from_utf8(&payload)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    Json::parse(text)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// The error-model half of an evaluation spec — everything except the
/// target BER, mirroring the template-then-`with_ber` pattern the bench
/// sweeps use. Absent from a request, the evaluation runs on reliable
/// memory.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorSpec {
    /// `"uniform" | "bitline" | "wordline" | "data-dependent"`.
    pub kind: String,
    /// Weak-cell fraction (`p`).
    pub p: f64,
    /// Flip probability (`f`), or `f_one`/`f_zero` for the data-dependent
    /// model.
    pub f: f64,
    /// Spatial spread for the bitline/wordline models.
    pub spread: f64,
    /// `f_one` for the data-dependent model.
    pub f_one: f64,
    /// `f_zero` for the data-dependent model.
    pub f_zero: f64,
    /// Error-model structure seed.
    pub seed: u64,
}

impl Default for ErrorSpec {
    fn default() -> Self {
        // The fig08 template parameters.
        ErrorSpec {
            kind: "uniform".to_string(),
            p: 0.02,
            f: 0.5,
            spread: 0.9,
            f_one: 0.7,
            f_zero: 0.3,
            seed: 5,
        }
    }
}

impl ErrorSpec {
    /// Builds the pre-BER error-model template this spec describes.
    pub fn template(&self) -> Result<ErrorModel, String> {
        match self.kind.as_str() {
            "uniform" => Ok(ErrorModel::uniform(self.p, self.f, self.seed)),
            "bitline" => Ok(ErrorModel::bitline(self.p, self.f, self.spread, self.seed)),
            "wordline" => Ok(ErrorModel::wordline(self.p, self.f, self.spread, self.seed)),
            "data-dependent" => Ok(ErrorModel::data_dependent(
                self.p,
                self.f_one,
                self.f_zero,
                self.seed,
            )),
            other => Err(format!(
                "unknown error-model kind {other:?} (expected uniform, bitline, wordline \
                 or data-dependent)"
            )),
        }
    }
}

/// The shared body of `eval` and `sweep` requests.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalSpec {
    /// Which zoo model to evaluate.
    pub model: ModelId,
    /// Stored-data precision.
    pub precision: Precision,
    /// Execution backend.
    pub backend: InferenceBackend,
    /// Error model template; `None` evaluates on reliable memory.
    pub error_model: Option<ErrorSpec>,
    /// First test-set sample index.
    pub start: usize,
    /// Number of test-set samples.
    pub count: usize,
    /// Memory seed (`ApproximateMemory` load-stream seed).
    pub seed: u64,
    /// Optional per-request deadline override (clamped to the server cap).
    pub timeout_ms: Option<u64>,
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Server/pool/cache counters. The `batches` object reports
    /// weight-stationary groups formed (`groups`), samples executed inside
    /// them (`samples_batched`) and samples that ran as a group of one
    /// (`fallback_samples`).
    Stats,
    /// Graceful shutdown: drain connections, then exit the accept loop.
    Shutdown,
    /// One accuracy evaluation at `ber`.
    Eval { spec: EvalSpec, ber: f64 },
    /// One accuracy evaluation at `ber` with an explicit weight-stationary
    /// batch-group cap (`batch == 1` runs every sample as a group of one). Results
    /// are bit-identical to `eval` at any cap; only the throughput differs.
    EvalBatch {
        spec: EvalSpec,
        ber: f64,
        batch: usize,
    },
    /// A streamed accuracy-vs-BER sweep.
    Sweep { spec: EvalSpec, bers: Vec<f64> },
}

fn parse_error_spec(value: &Json) -> Result<ErrorSpec, String> {
    let mut spec = ErrorSpec::default();
    if let Some(kind) = value.get("kind") {
        spec.kind = kind
            .as_str()
            .ok_or("error_model.kind must be a string")?
            .to_string();
    }
    for (field, slot) in [
        ("p", &mut spec.p),
        ("f", &mut spec.f),
        ("spread", &mut spec.spread),
        ("f_one", &mut spec.f_one),
        ("f_zero", &mut spec.f_zero),
    ] {
        if let Some(v) = value.get(field) {
            *slot = v
                .as_f64()
                .ok_or_else(|| format!("error_model.{field} must be a number"))?;
        }
    }
    if let Some(v) = value.get("seed") {
        spec.seed = v
            .as_u64()
            .ok_or("error_model.seed must be a whole number")?;
    }
    // Fail construction problems (unknown kind) at parse time, not when the
    // shard is already being built.
    spec.template()?;
    Ok(spec)
}

fn parse_spec(value: &Json) -> Result<EvalSpec, String> {
    let model: ModelId = value
        .get("model")
        .and_then(Json::as_str)
        .ok_or("missing string field \"model\"")?
        .parse()?;
    let precision: Precision = value
        .get("precision")
        .and_then(Json::as_str)
        .ok_or("missing string field \"precision\"")?
        .parse()?;
    let backend = match value.get("backend") {
        None => InferenceBackend::default(),
        Some(v) => v
            .as_str()
            .ok_or("\"backend\" must be a string")?
            .parse::<InferenceBackend>()?,
    };
    let error_model = match value.get("error_model") {
        None | Some(Json::Null) => None,
        Some(v) => Some(parse_error_spec(v)?),
    };
    let start = match value.get("start") {
        None => 0,
        Some(v) => v.as_u64().ok_or("\"start\" must be a whole number")? as usize,
    };
    let count = value
        .get("count")
        .ok_or("missing field \"count\"")?
        .as_u64()
        .ok_or("\"count\" must be a whole number")? as usize;
    let seed = match value.get("seed") {
        None => 11,
        Some(v) => v.as_u64().ok_or("\"seed\" must be a whole number")?,
    };
    let timeout_ms = match value.get("timeout_ms") {
        None => None,
        Some(v) => Some(v.as_u64().ok_or("\"timeout_ms\" must be a whole number")?),
    };
    Ok(EvalSpec {
        model,
        precision,
        backend,
        error_model,
        start,
        count,
        seed,
        timeout_ms,
    })
}

impl Request {
    /// Parses and validates one request frame.
    pub fn parse(value: &Json) -> Result<Request, String> {
        let op = value
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing string field \"op\"")?;
        match op {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "eval" | "eval-batch" => {
                let spec = parse_spec(value)?;
                let ber = match value.get("ber") {
                    None => 0.0,
                    Some(v) => v.as_f64().ok_or("\"ber\" must be a number")?,
                };
                if !(0.0..=1.0).contains(&ber) {
                    return Err(format!("\"ber\" must be in [0, 1], got {ber}"));
                }
                if spec.error_model.is_some() && value.get("ber").is_none() {
                    return Err(format!("{op} with an error_model requires \"ber\""));
                }
                if op == "eval" {
                    return Ok(Request::Eval { spec, ber });
                }
                let batch = match value.get("batch") {
                    None => eden_core::session::DEFAULT_BATCH_LIMIT,
                    Some(v) => v.as_u64().ok_or("\"batch\" must be a whole number")? as usize,
                };
                if batch == 0 {
                    return Err("\"batch\" must be at least 1".to_string());
                }
                Ok(Request::EvalBatch { spec, ber, batch })
            }
            "sweep" => {
                let spec = parse_spec(value)?;
                if spec.error_model.is_none() {
                    return Err("sweep requires an \"error_model\"".to_string());
                }
                let points = value
                    .get("bers")
                    .and_then(Json::as_arr)
                    .ok_or("missing array field \"bers\"")?;
                if points.is_empty() {
                    return Err("\"bers\" must not be empty".to_string());
                }
                let mut bers = Vec::with_capacity(points.len());
                for p in points {
                    let ber = p.as_f64().ok_or("\"bers\" entries must be numbers")?;
                    if !(0.0..=1.0).contains(&ber) {
                        return Err(format!("\"bers\" entries must be in [0, 1], got {ber}"));
                    }
                    bers.push(ber);
                }
                Ok(Request::Sweep { spec, bers })
            }
            other => Err(format!(
                "unknown op {other:?} (expected ping, stats, eval, eval-batch, sweep or shutdown)"
            )),
        }
    }
}

/// Builds the standard error response frame.
pub fn error_response(message: impl Into<String>) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_json(&mut buf, &Json::obj([("op", Json::str("ping"))])).unwrap();
        write_json(&mut buf, &Json::obj([("op", Json::str("stats"))])).unwrap();
        let mut cursor = Cursor::new(buf);
        let a = read_json(&mut cursor).unwrap().unwrap();
        let b = read_json(&mut cursor).unwrap().unwrap();
        assert_eq!(a.get("op").and_then(Json::as_str), Some("ping"));
        assert_eq!(b.get("op").and_then(Json::as_str), Some("stats"));
        assert!(read_json(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_and_truncated_frames_are_errors() {
        let huge = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        assert!(read_frame(&mut Cursor::new(huge)).is_err());
        let truncated = vec![0, 0, 0, 9, b'{'];
        assert!(read_frame(&mut Cursor::new(truncated)).is_err());
    }

    fn parse(doc: &str) -> Result<Request, String> {
        Request::parse(&Json::parse(doc).unwrap())
    }

    #[test]
    fn eval_requests_parse_with_defaults() {
        let req = parse(
            r#"{"op":"eval","model":"lenet","precision":"int8","count":8,
                "error_model":{"kind":"uniform"},"ber":0.001}"#,
        )
        .unwrap();
        match req {
            Request::Eval { spec, ber } => {
                assert_eq!(spec.model, ModelId::LeNet);
                assert_eq!(spec.precision, Precision::Int8);
                assert_eq!(spec.backend, InferenceBackend::default());
                assert_eq!(spec.start, 0);
                assert_eq!(spec.count, 8);
                assert_eq!(spec.seed, 11);
                assert_eq!(ber, 1e-3);
                assert_eq!(spec.error_model.unwrap().kind, "uniform");
            }
            other => panic!("expected eval, got {other:?}"),
        }
    }

    #[test]
    fn typos_fail_validation_like_the_cli_parsers() {
        // The exact failure class that used to be downgraded to a stderr
        // note by parse_backend: a typo'd backend.
        let err = parse(
            r#"{"op":"eval","model":"lenet","precision":"int8","count":8,
                "backend":"ntaive"}"#,
        )
        .unwrap_err();
        assert!(err.contains("ntaive"), "{err}");
        assert!(parse(r#"{"op":"eval","model":"nope","precision":"int8","count":8}"#).is_err());
        assert!(parse(r#"{"op":"eval","model":"lenet","precision":"int9","count":8}"#).is_err());
        assert!(parse(
            r#"{"op":"eval","model":"lenet","precision":"int8","count":8,
                "error_model":{"kind":"unifrom"},"ber":0.01}"#
        )
        .is_err());
        assert!(parse(r#"{"op":"evla"}"#).is_err());
    }

    #[test]
    fn eval_batch_requests_parse_and_validate_the_cap() {
        let req = parse(
            r#"{"op":"eval-batch","model":"lenet","precision":"int8","count":8,
                "error_model":{"kind":"uniform"},"ber":0.001,"batch":8}"#,
        )
        .unwrap();
        match req {
            Request::EvalBatch { spec, ber, batch } => {
                assert_eq!(spec.model, ModelId::LeNet);
                assert_eq!(ber, 1e-3);
                assert_eq!(batch, 8);
            }
            other => panic!("expected eval-batch, got {other:?}"),
        }
        // The cap defaults to the session default and rejects zero.
        let req =
            parse(r#"{"op":"eval-batch","model":"lenet","precision":"int8","count":8}"#).unwrap();
        match req {
            Request::EvalBatch { batch, .. } => {
                assert_eq!(batch, eden_core::session::DEFAULT_BATCH_LIMIT);
            }
            other => panic!("expected eval-batch, got {other:?}"),
        }
        assert!(parse(
            r#"{"op":"eval-batch","model":"lenet","precision":"int8","count":8,"batch":0}"#
        )
        .is_err());
        assert!(parse(
            r#"{"op":"eval-batch","model":"lenet","precision":"int8","count":8,
                "error_model":{"kind":"uniform"}}"#
        )
        .is_err());
    }

    #[test]
    fn sweep_requires_error_model_and_valid_bers() {
        assert!(parse(
            r#"{"op":"sweep","model":"lenet","precision":"int8","count":8,
                "bers":[0.001]}"#
        )
        .is_err());
        assert!(parse(
            r#"{"op":"sweep","model":"lenet","precision":"int8","count":8,
                "error_model":{"kind":"uniform"},"bers":[]}"#
        )
        .is_err());
        assert!(parse(
            r#"{"op":"sweep","model":"lenet","precision":"int8","count":8,
                "error_model":{"kind":"uniform"},"bers":[2.0]}"#
        )
        .is_err());
        let req = parse(
            r#"{"op":"sweep","model":"lenet","precision":"int8","count":8,
                "error_model":{"kind":"wordline","spread":0.8},"bers":[0.001,0.01]}"#,
        )
        .unwrap();
        match req {
            Request::Sweep { spec, bers } => {
                assert_eq!(bers, vec![1e-3, 1e-2]);
                assert_eq!(spec.error_model.unwrap().spread, 0.8);
            }
            other => panic!("expected sweep, got {other:?}"),
        }
    }
}
