//! Small shared helpers for the experiment binaries.

use eden_core::inference::InferenceBackend;
use eden_dnn::data::SyntheticVision;
use eden_dnn::train::{TrainConfig, Trainer};
use eden_dnn::zoo::ModelId;
use eden_dnn::{Dataset, Network};

/// Extracts the value of a `--flag value` / `--flag=value` pair from an
/// argument list. `Some(Err(..))` means the flag was present but malformed
/// (no value followed it).
fn flag_value(args: &[String], flag: &str) -> Option<Result<String, String>> {
    let prefix = format!("{flag}=");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(v) = arg.strip_prefix(&prefix) {
            return Some(Ok(v.to_string()));
        }
        if arg == flag {
            return Some(match it.next() {
                Some(v) => Ok(v.clone()),
                None => Err(format!("{flag} requires a value")),
            });
        }
    }
    None
}

/// Parses the `--threads` request out of an argument list: `Ok(None)` when
/// the flag is absent, `Ok(Some(n))` for a valid positive count, `Err` for
/// anything else. Zero and unparseable values (`--threads abc`,
/// `--threads=-1`) are hard errors: a load measurement silently running at
/// the default pool size is exactly the failure mode this must prevent.
pub fn threads_from_args(args: &[String]) -> Result<Option<usize>, String> {
    let Some(value) = flag_value(args, "--threads") else {
        return Ok(None);
    };
    let value = value?;
    match value.parse::<usize>() {
        Ok(0) => Err("--threads 0 is invalid: the pool needs at least one worker".to_string()),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(format!(
            "--threads {value:?} is invalid: expected a positive integer"
        )),
    }
}

/// Applies the `--threads N` CLI flag (falling back to the `EDEN_THREADS`
/// environment variable, then to the machine parallelism) to the global
/// `eden-par` pool, and returns the effective worker count.
///
/// Every experiment binary calls this first thing in `main`, before any
/// parallel work, so the requested size always takes effect. Thread count
/// never changes results — only wall-clock time (see the README's
/// threading-model section). An invalid or zero `--threads` value aborts
/// the run with a non-zero exit instead of silently measuring at the
/// default pool size.
pub fn init_threads() -> usize {
    let args: Vec<String> = std::env::args().collect();
    match threads_from_args(&args) {
        Ok(Some(n)) => {
            if !eden_par::configure_threads(n) {
                eprintln!("--threads {n} ignored: thread pool already started");
            }
        }
        Ok(None) => {}
        Err(e) => fatal(&e),
    }
    let effective = eden_par::current_num_threads();
    eprintln!("eden-par: {effective} worker thread(s)");
    effective
}

/// [`parse_backend`] on an explicit argument list, returning `Err` instead
/// of exiting — the form eden-serve request validation reuses. The CLI flag
/// takes precedence, then the `EDEN_BACKEND` environment variable, then the
/// default; an unknown value is an `Err`.
pub fn backend_from_args(args: &[String]) -> Result<InferenceBackend, String> {
    let choice = match flag_value(args, "--backend") {
        Some(v) => Some(v?),
        None => std::env::var("EDEN_BACKEND").ok(),
    };
    choice.map_or(Ok(InferenceBackend::default()), |v| v.parse())
}

/// Applies the `--backend simulated|native` CLI flag (falling back to the
/// `EDEN_BACKEND` environment variable, then to the simulated-f32 default)
/// and returns the selected inference backend.
///
/// The native backend executes quantized models on the integer kernels
/// (faster, integer precisions only); the simulated backend is the seed
/// behavior. Both model the same approximate DRAM — see the README's
/// inference-backends section. An unknown backend name exits non-zero: a
/// typo (`--backend ntaive`) must not silently measure the default
/// configuration for a whole A/B run.
pub fn parse_backend() -> InferenceBackend {
    let args: Vec<String> = std::env::args().collect();
    let backend = backend_from_args(&args).unwrap_or_else(|e| fatal(&e));
    eprintln!("inference backend: {backend}");
    backend
}

/// Prints a CLI error and exits non-zero.
fn fatal(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// Trains the scaled-down zoo model `id` on its synthetic dataset and returns
/// the trained network together with the dataset.
pub fn train_model(id: ModelId, epochs: usize, seed: u64) -> (Network, SyntheticVision) {
    let dataset = id.dataset(seed);
    let mut net = id.build(&dataset.spec(), seed);
    Trainer::new(TrainConfig {
        epochs,
        seed,
        ..TrainConfig::default()
    })
    .train(&mut net, &dataset);
    (net, dataset)
}

/// Prints a section header in the style used by all experiment binaries.
pub fn header(experiment: &str, description: &str) {
    println!("==============================================================");
    println!("{experiment}: {description}");
    println!("==============================================================");
}

/// Formats a fraction as a percentage with one decimal. The empty-sample
/// NaN accuracy sentinel renders as an explicit `n/a` marker — `NaN%` in a
/// figure or table would read as a formatting bug rather than "no samples".
pub fn pct(x: f64) -> String {
    if x.is_nan() {
        return "n/a".to_string();
    }
    format!("{:.1}%", 100.0 * x)
}

/// Formats an accuracy fraction as the 3-decimal cell used by the sweep
/// printers, with the NaN sentinel rendered as `n/a`.
pub fn acc(x: f32) -> String {
    if x.is_nan() {
        return "n/a".to_string();
    }
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn pct_formats_fractions() {
        assert_eq!(pct(0.215), "21.5%");
    }

    #[test]
    fn nan_sentinel_renders_as_na() {
        // The empty-sample accuracy sentinel must never leak as "NaN%".
        assert_eq!(pct(f64::NAN), "n/a");
        assert_eq!(acc(f32::NAN), "n/a");
        assert_eq!(acc(0.4375), "0.438");
    }

    #[test]
    fn init_threads_reports_a_positive_pool_size() {
        assert!(init_threads() >= 1);
    }

    #[test]
    fn threads_from_args_accepts_positive_counts() {
        assert_eq!(threads_from_args(&args(&["bin"])), Ok(None));
        assert_eq!(
            threads_from_args(&args(&["bin", "--threads", "4"])),
            Ok(Some(4))
        );
        assert_eq!(
            threads_from_args(&args(&["bin", "--threads=8"])),
            Ok(Some(8))
        );
    }

    #[test]
    fn threads_from_args_rejects_invalid_and_zero_values() {
        // Each of these used to silently fall through to the default pool
        // size (or pass 0 straight to configure_threads).
        assert!(threads_from_args(&args(&["bin", "--threads", "abc"])).is_err());
        assert!(threads_from_args(&args(&["bin", "--threads=-1"])).is_err());
        assert!(threads_from_args(&args(&["bin", "--threads", "0"])).is_err());
        assert!(threads_from_args(&args(&["bin", "--threads=0"])).is_err());
        assert!(threads_from_args(&args(&["bin", "--threads"])).is_err());
    }

    #[test]
    fn parse_backend_defaults_to_simulated() {
        assert_eq!(parse_backend(), InferenceBackend::SimulatedF32);
    }

    #[test]
    fn backend_from_args_rejects_typos() {
        assert_eq!(
            backend_from_args(&args(&["bin", "--backend", "native"])),
            Ok(InferenceBackend::NativeInt)
        );
        // A typo must be a hard error, not a silent run of the default
        // configuration.
        assert!(backend_from_args(&args(&["bin", "--backend", "ntaive"])).is_err());
        assert!(backend_from_args(&args(&["bin", "--backend=ntaive"])).is_err());
        assert!(backend_from_args(&args(&["bin", "--backend"])).is_err());
    }

    #[test]
    fn train_model_returns_a_runnable_network() {
        let (net, dataset) = train_model(ModelId::LeNet, 1, 0);
        assert!(net.param_count() > 0);
        assert!(!dataset.test().is_empty());
    }
}
