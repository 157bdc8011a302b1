//! Reusable evaluation sessions: the probe-loop backbone of EDEN.
//!
//! Every stage of the EDEN pipeline is dominated by *repeated* accuracy
//! evaluations of one network at one precision: the coarse binary search
//! (Table 3) probes a dozen BER operating points, the fine-grained sweep
//! (Figure 11) runs `sites × rounds` probes, the BER tolerance curves
//! (Figure 8) fan dozens of points out, and curricular retraining evaluates
//! after every boost iteration. Rebuilding the evaluation state per call
//! would redo the clean quantized weight bit images, the corrupted-weight
//! pools, and — through a fresh [`ApproximateMemory`] per probe — every
//! placement's O(total bits) weak-cell scan.
//!
//! [`EvalSession`] is the one evaluation API those loops share. Constructed
//! once from `(network, precision, backend)`, it owns:
//!
//! * the clean quantized **weight bit images** ([`Network::weight_images`]),
//!   captured once instead of once per probe;
//! * the reusable **corrupted-weight pools** ([`NativeWeights`] slots on the
//!   session's per-layer plan), checked out per probe and patched in place
//!   per refetch;
//! * the **per-worker scratch arena** of the group executor;
//! * the cached **reliable baseline** per evaluated sample set;
//! * a keyed cache of **per-placement injectors and weak-cell maps**
//!   ([`WeakMapCache`]) shared by every memory the session evaluates with,
//!   so a probe that changes one site's BER recomputes one map, not all of
//!   them;
//! * per-image **clean-image bounding corrections**, computed once per
//!   threshold set for the overlay refetch path.
//!
//! # Sparse overlay refetches
//!
//! Every weight refetch is served as a set of sparse [`CorruptionOverlay`]s
//! ([`ApproximateMemory::corrupt_overlay`]): the pool's corrupted copies are
//! held at the dequantized-clean baseline
//! ([`NativeWeights::refresh_clean`]) and only the words a fault draw
//! touches are patched — and reverted before the next draw
//! (`apply ∘ revert` is the identity). At the BERs the paper operates at
//! this makes the per-refetch weight cost O(flips) instead of O(total
//! weights), which is the dominant cost of the characterization and
//! tolerance-curve probe loops. It is the only way the library loads
//! weights; the workspace `overlay_equivalence` suite pins the session bit
//! for bit against a test-local reference that corrupts a copy of every
//! clean image per refetch, loads the copies whole and runs each sample on
//! its own.
//!
//! # One executor
//!
//! Samples run in weight-stationary groups: maximal runs of consecutive
//! samples whose corrupted weight states are provably equal, up to the batch
//! cap ([`EvalSession::with_batch_limit`]). Each group runs layer by layer
//! through [`qexec::forward_native_batch_observed`], the group executor of
//! both backends, with one GEMM per layer over the whole group; a single
//! sample is simply a group of one. The backend only picks the per-layer
//! plan a slot's [`NativeWeights`] is built with: the native plan for
//! [`InferenceBackend::NativeInt`] at an integer precision, the all-f32
//! plan ([`NativeWeights::simulated`]) for
//! [`InferenceBackend::SimulatedF32`] and for FP32.
//!
//! # Incremental re-evaluation
//!
//! Characterization and mapping probes perturb only a few data sites; every
//! layer below the first perturbed one computes exactly what the previous
//! probe computed. The session exploits this with a **clean-activation
//! checkpoint store** ([`EvalSession::checkpoint_counters`]): during any
//! evaluation, each sample lane harvests the f32 activations crossing the
//! layer boundaries that the probed memory provably cannot have touched
//! (every boundary for small nets, every k-th for large ones), keyed by
//! `(sample-set content, sample index, boundary, bounding thresholds)`. A
//! later probe whose [`ApproximateMemory::first_dirty_layer`] is `L` resumes
//! each lane from the deepest stored boundary `≤ L`: the boundary activation
//! is restored, the lane's load cursor advances past the clean prefix
//! ([`ApproximateMemory::skip_clean_loads`], re-accounting the prefix's
//! deterministic bounding corrections), and only the suffix executes. The
//! result is **bit-identical** to the full pass — the prefix is skipped, not
//! approximated: prefix loads are served by provably error-free injectors
//! (zero flips), and bounding corrections on clean data are a pure function
//! of the data and the thresholds in the key. Per-probe cost drops from
//! O(layers) to O(suffix from the probed site).
//!
//! The store is byte-budgeted (64 MiB by default,
//! [`EvalSession::with_checkpoint_budget`]) with least-recently-used
//! eviction ([`crate::lru::BudgetedLru`]), drained by
//! [`EvalSession::release_transient_state`], and can be disabled
//! ([`EvalSession::with_checkpoints`]) — it is a pure cache, so eviction,
//! draining and disabling never change results, only recomputation cost.
//! The workspace `overlay_equivalence` suite pins checkpoints-on against
//! checkpoints-off bit for bit.
//!
//! Reusing a session is **bit-for-bit identical** to evaluating every probe
//! on a fresh session: everything the session reuses is either a pure
//! function of unchanged inputs (images, weak maps, layouts) or state that
//! each probe fully re-initializes (pools, scratch). The workspace
//! `session_equivalence` suite pins this across backends, precisions and
//! thread counts.
//!
//! # Example
//!
//! ```
//! use eden_core::faults::ApproximateMemory;
//! use eden_core::inference::InferenceBackend;
//! use eden_core::session::EvalSession;
//! use eden_dnn::{data::SyntheticVision, zoo, Dataset};
//! use eden_dram::ErrorModel;
//! use eden_tensor::Precision;
//!
//! let dataset = SyntheticVision::tiny(0);
//! let net = zoo::lenet(&dataset.spec(), 1);
//! let session = EvalSession::new(&net, Precision::Int8, InferenceBackend::SimulatedF32);
//! let template = ErrorModel::uniform(0.001, 0.5, 7);
//! // Probe two operating points; the second reuses the session's images,
//! // pools and weak-cell maps.
//! for ber in [1e-4, 1e-3] {
//!     let mut memory = ApproximateMemory::from_model(template.with_ber(ber), 3);
//!     let accuracy = session.evaluate_with_faults(&dataset.test()[..8], &mut memory);
//!     assert!((0.0..=1.0).contains(&accuracy));
//! }
//! ```

use crate::bounding::{BoundingLogic, CorrectionPolicy};
use crate::faults::{ApproximateMemory, MemoryStats, WeakMapCache};
use crate::inference::InferenceBackend;
use crate::lru::BudgetedLru;
use eden_dnn::network::WeightImage;
use eden_dnn::qexec::{self, NativeWeights, QuantScratch, ScratchArena};
use eden_dnn::Network;
use eden_dram::inject::Injector;
use eden_dram::util::stream;
use eden_dram::ErrorModel;
use eden_tensor::{CorruptionOverlay, Precision, Tensor};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};

/// Samples per weight refetch: the corrupted weight copy is re-loaded from
/// approximate DRAM once per this many samples, modelling periodic
/// re-fetching (the same constant the seed implementation chunked by).
pub const WEIGHT_REFETCH_PERIOD: usize = 16;

/// Samples per window: at most 16 corrupted weight copies are resident at
/// once, wide enough to keep every worker busy.
const WINDOW: usize = 16 * WEIGHT_REFETCH_PERIOD;

/// Number of refetch slots a window needs.
fn refetch_slots(window_len: usize) -> usize {
    window_len.div_ceil(WEIGHT_REFETCH_PERIOD)
}

/// Default cap on the samples of one weight-stationary batch group
/// ([`EvalSession::with_batch_limit`]).
pub const DEFAULT_BATCH_LIMIT: usize = 32;

/// Cumulative batch-group counters of a session's evaluations
/// ([`EvalSession::batch_counters`]): how the overlay-grouping rule resolved
/// each evaluated sample. `batched_samples` counts samples executed inside a
/// multi-sample weight-stationary group (one of `groups`);
/// `fallback_samples` counts samples that ran as a group of one — either
/// because their corrupted weight state matched no neighbour's or because
/// the batch limit is 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchCounters {
    /// Multi-sample groups formed (each executed as one batched forward).
    pub groups: u64,
    /// Samples executed inside a multi-sample group.
    pub batched_samples: u64,
    /// Samples that ran as a group of one.
    pub fallback_samples: u64,
}

/// Lock-free accumulators behind [`BatchCounters`] (grouping runs inside
/// concurrent probes sharing one `&SessionCore`).
#[derive(Default)]
struct BatchStats {
    groups: AtomicU64,
    batched_samples: AtomicU64,
    fallback_samples: AtomicU64,
}

/// How a session holds its network: borrowed from the caller's frame (the
/// classic stack-scoped probe loops) or shared ownership of an `Arc` (the
/// serving layer, where sessions outlive any request frame and reference the
/// `Arc`-shared model zoo — see [`EvalSession::new_shared`]).
enum NetRef<'a> {
    Borrowed(&'a Network),
    Shared(Arc<Network>),
}

impl std::ops::Deref for NetRef<'_> {
    type Target = Network;

    fn deref(&self) -> &Network {
        match self {
            NetRef::Borrowed(net) => net,
            NetRef::Shared(net) => net,
        }
    }
}

/// The shareable, probe-invariant part of a session: everything that depends
/// only on `(network, precision, backend)` and can therefore back any number
/// of concurrent probes (the BER sweep fans probes out over the `eden-par`
/// pool with one borrowed `SessionCore`).
struct SessionCore<'a> {
    net: NetRef<'a>,
    precision: Precision,
    backend: InferenceBackend,
    /// Clean quantized bit images of every weight parameter, in
    /// [`Network::weight_images`] order — captured once per session.
    images: Vec<WeightImage>,
    /// Weak-cell maps and placements shared by every memory this session
    /// evaluates with.
    weak_maps: Arc<WeakMapCache>,
    /// Per-image clean-image bounding corrections, keyed by the exact
    /// threshold bits — computed once per `(images, bounding)` pair so the
    /// overlay refetch path folds corrections in O(corrections) per load
    /// instead of re-scanning every weight value
    /// ([`BoundingLogic::clean_corrections`]).
    clean_corrections: Mutex<HashMap<BoundingKey, Arc<CleanCorrections>>>,
    /// Executor scratch buffers, checked out per worker pass.
    scratch: ScratchArena<QuantScratch>,
    /// Corrupted-weight pools, one checked out per probe: lazily grown to
    /// the refetch-slot count and patched sparsely in place per refetch, so
    /// probes never re-clone the network object graph. Which pool a probe
    /// gets cannot affect numerics — every refetch fully determines the
    /// weight state from the slot's tracked overlay state — so checkout
    /// order is free to vary with thread count while results stay
    /// bit-identical. At one thread every probe reuses the same pool.
    pool_arena: ScratchArena<Vec<Slot>>,
    /// Clean-activation checkpoints backing incremental re-evaluation; see
    /// the [module docs](self) and [`CheckpointStore`].
    checkpoints: CheckpointStore,
    /// Harvest every `checkpoint_stride`-th boundary (1 for small nets).
    checkpoint_stride: usize,
    /// Whether evaluations may consult and populate the checkpoint store
    /// (on by default; results are bit-identical either way).
    checkpoints_enabled: bool,
    /// Cap on the samples of one weight-stationary batch group; 1 runs
    /// every sample as a group of one.
    batch_limit: usize,
    /// Batch-group accounting, surfaced by [`EvalSession::batch_counters`].
    batch_stats: BatchStats,
}

/// Exact-value cache key of one [`BoundingLogic`]: every field as bits, so
/// two logics share clean corrections iff they correct identically.
type BoundingKey = (u32, u32, CorrectionPolicy, u32);

/// The clean-image bounding corrections of every weight image, in image
/// order ([`BoundingLogic::clean_corrections`] per image).
type CleanCorrections = Vec<Vec<(u32, u32)>>;

fn bounding_key(b: &BoundingLogic) -> BoundingKey {
    (
        b.lower.to_bits(),
        b.upper.to_bits(),
        b.policy,
        b.latency_cycles,
    )
}

/// Default byte budget of a session's clean-activation checkpoint store.
const CHECKPOINT_BUDGET_BYTES: usize = 64 << 20;

/// Per-sample byte target used to pick the checkpoint stride: a net whose
/// boundary activations together fit this budget checkpoints every boundary;
/// larger nets checkpoint every k-th boundary.
const CHECKPOINT_SAMPLE_BUDGET_BYTES: usize = 256 << 10;

/// Key of one clean-activation checkpoint:
/// `(sample-set content key, sample index, boundary layer, bounding key)`.
///
/// The precision and backend are *not* in the key because the store lives on
/// a [`SessionCore`], which is itself one `(network, precision, backend)`
/// triple — the per-(sample, precision, backend) scoping the design calls
/// for. The bounding key is required: bounding corrects clean out-of-range
/// values too, so the clean activation entering a boundary (and the
/// correction count the prefix loads accumulate) depends on the exact
/// thresholds in force; `None` keys the bounding-free evaluations.
type CheckpointKey = (u64, u32, u32, Option<BoundingKey>);

/// One checkpointed clean boundary activation: the exact f32 bits entering
/// the boundary layer, plus the bounding corrections the prefix IFM loads
/// accumulated on the way there (deterministic for clean data, so part of
/// the checkpoint rather than recomputed).
struct Checkpoint {
    data: Vec<f32>,
    shape: Vec<usize>,
    corrections: u64,
}

impl Checkpoint {
    fn bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.data.len() * std::mem::size_of::<f32>()
            + self.shape.len() * std::mem::size_of::<usize>()
    }
}

/// Cumulative counters of a session's checkpoint store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointCounters {
    /// Lane evaluations resumed from a checkpointed boundary.
    pub hits: u64,
    /// Lane evaluations with a clean prefix but no stored boundary (ran the
    /// full forward pass and harvested checkpoints along the way).
    pub misses: u64,
    /// Checkpoints evicted under the byte budget.
    pub evictions: u64,
    /// Bytes currently held by resident checkpoints.
    pub resident_bytes: u64,
}

/// The per-session store of clean boundary activations backing incremental
/// re-evaluation (see the [module docs](self)).
///
/// Entries are a pure cache: a lookup either returns the bit-exact
/// activation a full forward pass would compute at that boundary or nothing,
/// so eviction (and the store being disabled entirely) can never change
/// results — only how much of each forward pass is recomputed. The entries
/// live in a [`BudgetedLru`] whose cost is each checkpoint's byte size.
struct CheckpointStore {
    entries: Mutex<BudgetedLru<CheckpointKey, Arc<Checkpoint>>>,
    /// Lane-level resume outcomes, one per lane with a clean prefix (the
    /// store's own lookups count every boundary probed).
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CheckpointStore {
    fn new(budget: usize) -> Self {
        Self {
            entries: Mutex::new(BudgetedLru::new(budget)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The checkpoint stored under `key`, refreshing its LRU position.
    fn get(&self, key: &CheckpointKey) -> Option<Arc<Checkpoint>> {
        self.entries.lock().unwrap().get(key).cloned()
    }

    /// Stores `make()` under `key` unless an entry already exists (the
    /// existing entry's LRU position is refreshed instead — concurrent lanes
    /// of one window harvest the same boundaries, and the first insert
    /// wins), evicting least-recently-used checkpoints past the byte budget.
    fn insert_with(&self, key: CheckpointKey, make: impl FnOnce() -> Checkpoint) {
        let (_, evicted) = self.entries.lock().unwrap().insert_with(key, || {
            let checkpoint = make();
            let bytes = checkpoint.bytes();
            (Arc::new(checkpoint), bytes)
        });
        // Evicted activations are freed here, outside the lock.
        drop(evicted);
    }

    /// Drops every checkpoint, keeping the cumulative counters.
    fn clear(&self) {
        self.entries.lock().unwrap().clear();
    }

    fn counters(&self) -> CheckpointCounters {
        let store = self.entries.lock().unwrap().counters();
        CheckpointCounters {
            hits: self.hits.load(AtomicOrdering::Relaxed),
            misses: self.misses.load(AtomicOrdering::Relaxed),
            evictions: store.evictions,
            resident_bytes: store.resident,
        }
    }
}

/// The checkpoint plumbing of one `evaluate` call: the store plus everything
/// the per-lane resume/harvest decisions need — the sample-set and bounding
/// key components, the highest provably-clean boundary of the probed memory,
/// and the harvest stride.
struct CheckpointCtx<'c> {
    store: &'c CheckpointStore,
    skey: u64,
    bkey: Option<BoundingKey>,
    /// Highest boundary whose entering activation is clean under the probed
    /// memory: `min(first dirty layer, depth - 1)`. 0 disables both resume
    /// and harvest (corruption reaches layer 0).
    top: usize,
    /// Harvest every `stride`-th boundary (1 for small nets).
    stride: usize,
}

impl CheckpointCtx<'_> {
    /// The deepest stored checkpoint usable for `sample`, scanning from the
    /// highest clean boundary down. One hit or miss is recorded per lane
    /// with a non-trivial clean prefix, not per boundary probed.
    fn resume(&self, sample: u32) -> Option<(usize, Arc<Checkpoint>)> {
        if self.top == 0 {
            return None;
        }
        for boundary in (1..=self.top).rev() {
            if let Some(ck) = self
                .store
                .get(&(self.skey, sample, boundary as u32, self.bkey))
            {
                self.store.hits.fetch_add(1, AtomicOrdering::Relaxed);
                return Some((boundary, ck));
            }
        }
        self.store.misses.fetch_add(1, AtomicOrdering::Relaxed);
        None
    }

    /// Offers boundary `boundary`'s entering activation (with the lane's
    /// cumulative prefix corrections) for storage; kept iff the boundary is
    /// clean under the probed memory and on the stride grid.
    fn harvest(&self, sample: u32, boundary: usize, x: &Tensor, corrections: u64) {
        if boundary == 0 || boundary > self.top || !boundary.is_multiple_of(self.stride) {
            return;
        }
        let key = (self.skey, sample, boundary as u32, self.bkey);
        self.store.insert_with(key, || Checkpoint {
            data: x.data().to_vec(),
            shape: x.shape().to_vec(),
            corrections,
        });
    }
}

/// The checkpoint stride of `net`: every boundary while the per-sample
/// checkpoint footprint fits [`CHECKPOINT_SAMPLE_BUDGET_BYTES`], every k-th
/// boundary beyond it.
fn checkpoint_stride(net: &Network) -> usize {
    let shapes = net.data_flow_shapes();
    if shapes.len() < 2 {
        return 1;
    }
    // shapes[b - 1] is the activation entering boundary b, for b in 1..depth.
    let per_sample: usize = shapes[..shapes.len() - 1]
        .iter()
        .map(|s| s.iter().product::<usize>() * std::mem::size_of::<f32>())
        .sum();
    per_sample.div_ceil(CHECKPOINT_SAMPLE_BUDGET_BYTES).max(1)
}

/// One reusable corrupted-weight slot: the weight state (on the session's
/// plan) plus the overlays currently patched into it. `None` marks a fresh
/// slot, whose parameters still hold the master network's raw values and
/// need a full clean load before the first patch; after that, reverting the
/// overlays restores the clean baseline in O(flips).
struct Slot {
    weights: NativeWeights,
    overlays: Option<Vec<CorruptionOverlay>>,
}

/// A reusable evaluation session for one `(network, precision, backend)`
/// triple. See the [module docs](self) for what it owns and why.
///
/// The session borrows the network immutably: construct a fresh session
/// after mutating weights (e.g. between boost iterations of the pipeline).
/// Cached baselines assume the evaluated sample sets are immutable for the
/// session's lifetime — they are keyed by sample *content*, so a mutated
/// set is never confused with its previous contents, merely re-evaluated.
pub struct EvalSession<'a> {
    core: SessionCore<'a>,
    /// Reliable-baseline accuracy per sample-set content key.
    baselines: HashMap<u64, f32>,
    /// Injectors keyed by `(error-model fingerprint, BER bits)`.
    injectors: HashMap<(u64, u64), Injector>,
}

impl<'a> EvalSession<'a> {
    /// Creates a session, capturing the clean quantized weight bit images of
    /// `net` at `precision`.
    pub fn new(net: &'a Network, precision: Precision, backend: InferenceBackend) -> Self {
        Self::from_net_ref(NetRef::Borrowed(net), precision, backend)
    }

    fn from_net_ref(net: NetRef<'a>, precision: Precision, backend: InferenceBackend) -> Self {
        Self {
            core: SessionCore {
                images: net.weight_images(precision),
                checkpoint_stride: checkpoint_stride(&net),
                net,
                precision,
                backend,
                weak_maps: Arc::new(WeakMapCache::new()),
                clean_corrections: Mutex::new(HashMap::new()),
                scratch: ScratchArena::new(),
                pool_arena: ScratchArena::new(),
                checkpoints: CheckpointStore::new(CHECKPOINT_BUDGET_BYTES),
                checkpoints_enabled: true,
                batch_limit: DEFAULT_BATCH_LIMIT,
                batch_stats: BatchStats::default(),
            },
            baselines: HashMap::new(),
            injectors: HashMap::new(),
        }
    }

    /// The network under evaluation.
    pub fn net(&self) -> &Network {
        &self.core.net
    }

    /// The stored-data precision of the session.
    pub fn precision(&self) -> Precision {
        self.core.precision
    }

    /// The execution backend of the session.
    pub fn backend(&self) -> InferenceBackend {
        self.core.backend
    }

    /// The session's shared weak-map cache. Attach it to memories evaluated
    /// outside the session (it is attached automatically to every memory
    /// passed through the session's own methods).
    pub fn weak_map_cache(&self) -> Arc<WeakMapCache> {
        self.core.weak_maps.clone()
    }

    /// Enables or disables the clean-activation checkpoint store (on by
    /// default). Checkpoints are a pure cache — results are bit-identical
    /// either way — so disabling exists for cost comparisons and as the
    /// reference the incremental path is pinned against.
    pub fn with_checkpoints(mut self, enabled: bool) -> Self {
        self.core.checkpoints_enabled = enabled;
        self
    }

    /// Whether the checkpoint store is consulted by evaluations.
    pub fn checkpoints_enabled(&self) -> bool {
        self.core.checkpoints_enabled
    }

    /// Overrides the checkpoint store's byte budget (default 64 MiB). A
    /// budget too small for even one window's boundaries just means constant
    /// eviction — every lane falls back to the full forward pass, results
    /// unchanged.
    pub fn with_checkpoint_budget(mut self, bytes: usize) -> Self {
        self.core.checkpoints = CheckpointStore::new(bytes);
        self
    }

    /// Cumulative checkpoint-store counters (hits, misses, evictions,
    /// resident bytes) — the session-stats accounting of incremental
    /// re-evaluation, surfaced by the serving layer next to the weak-map
    /// cache counters.
    pub fn checkpoint_counters(&self) -> CheckpointCounters {
        self.core.checkpoints.counters()
    }

    /// Overrides the cap on weight-stationary batch-group size (default
    /// [`DEFAULT_BATCH_LIMIT`]; clamped to at least 1). A limit of 1 runs
    /// every sample as a group of one; results are bit-identical at any
    /// limit.
    pub fn with_batch_limit(mut self, limit: usize) -> Self {
        self.core.batch_limit = limit.max(1);
        self
    }

    /// The session's batch-group size cap.
    pub fn batch_limit(&self) -> usize {
        self.core.batch_limit
    }

    /// Cumulative batch-group counters (groups formed, samples batched,
    /// groups of one) across every evaluation the session has run —
    /// surfaced by the serving layer next to the checkpoint counters.
    pub fn batch_counters(&self) -> BatchCounters {
        let s = &self.core.batch_stats;
        BatchCounters {
            groups: s.groups.load(AtomicOrdering::Relaxed),
            batched_samples: s.batched_samples.load(AtomicOrdering::Relaxed),
            fallback_samples: s.fallback_samples.load(AtomicOrdering::Relaxed),
        }
    }

    /// Classification accuracy over `samples` served from `memory`, with
    /// the session amortizing images, pools and weak-cell maps across calls.
    ///
    /// Weights are re-loaded (and re-corrupted) once per
    /// [`WEIGHT_REFETCH_PERIOD`] samples to model periodic re-fetching from
    /// DRAM. Samples run batch-parallel on the current `eden-par` pool: the
    /// weight refetches consume `memory`'s own load streams in sequence,
    /// while each sample's IFM loads come from `memory.fork(sample index)`,
    /// so the accuracy and the accumulated [`ApproximateMemory::stats`] are
    /// bit-identical for any thread count.
    ///
    /// Takes `&self`: concurrent calls (the serving layer holds one session
    /// behind an `Arc`, the coarse search runs two probes at once) each
    /// check a corrupted-weight pool out of the session while sharing its
    /// images, weak-map cache, clean-correction tables and scratch arenas;
    /// results are bit-identical to sequential calls.
    ///
    /// An **empty** sample slice has no defined accuracy: the method returns
    /// [`f32::NAN`] as an explicit sentinel (distinguishable from a genuinely
    /// collapsed model's `0.0`).
    pub fn evaluate_with_faults(
        &self,
        samples: &[(Tensor, usize)],
        memory: &mut ApproximateMemory,
    ) -> f32 {
        self.core.evaluate(samples, memory, None)
    }

    /// Accuracy of the network on reliable memory, cached per sample-set
    /// content so repeated characterizations of the same validation slice
    /// evaluate it once. Returns [`f32::NAN`] for an empty slice.
    pub fn evaluate_reliable(&mut self, samples: &[(Tensor, usize)]) -> f32 {
        let key = samples_key(samples);
        if let Some(&accuracy) = self.baselines.get(&key) {
            return accuracy;
        }
        let mut memory = ApproximateMemory::reliable(0);
        let accuracy = self.evaluate_with_faults(samples, &mut memory);
        self.baselines.insert(key, accuracy);
        accuracy
    }

    /// Accuracy at a sequence of bit error rates using a template error
    /// model (the sweep behind the paper's error-tolerance curves, Figure 8).
    /// The points are mutually independent — each builds its own
    /// [`ApproximateMemory`] from `seed` — so they fan out over the
    /// `eden-par` pool and share the session's images and weak-map cache.
    /// An empty `samples` slice yields [`f32::NAN`] at every point.
    pub fn accuracy_vs_ber(
        &mut self,
        samples: &[(Tensor, usize)],
        template: &ErrorModel,
        bers: &[f64],
        bounding: Option<BoundingLogic>,
        seed: u64,
    ) -> Vec<(f64, f32)> {
        let core = &self.core;
        eden_par::par_map(bers, |_, &ber| {
            let model = template.with_ber(ber);
            let mut memory = ApproximateMemory::from_model(model, seed);
            if let Some(b) = bounding {
                memory = memory.with_bounding(b);
            }
            (ber, core.evaluate(samples, &mut memory, None))
        })
    }

    /// One forward pass with weights and IFMs served from `memory`,
    /// returning the output logits: one overlay refetch of the first slot
    /// of a checked-out pool, then the group executor with `memory` itself
    /// as the single lane.
    pub fn forward_with_faults(&self, input: &Tensor, memory: &mut ApproximateMemory) -> Tensor {
        let core = &self.core;
        memory.attach_weak_map_cache(core.weak_maps.clone());
        core.pool_arena
            .with(|pool| core.forward_one(pool, input, memory))
    }

    /// The model-backed injector for `template.with_ber(ber)` at the default
    /// layout, cached by `(template, BER)` so per-site tolerance sweeps
    /// rebuild one injector per distinct operating point instead of one per
    /// site per probe.
    pub fn injector_for(&mut self, template: &ErrorModel, ber: f64) -> Injector {
        self.injectors
            .entry((template.fingerprint(), ber.to_bits()))
            .or_insert_with(|| Injector::from_model(template.with_ber(ber)))
            .clone()
    }

    /// [`EvalSession::evaluate_with_faults`] with a per-call batch-group
    /// size cap overriding the session's [`EvalSession::batch_limit`] — the
    /// serving layer's batched-evaluation entry point. `batch == 1` runs
    /// every sample as a group of one; results are bit-identical at any cap.
    pub fn evaluate_concurrent_batched(
        &self,
        samples: &[(Tensor, usize)],
        memory: &mut ApproximateMemory,
        batch: usize,
    ) -> f32 {
        self.core.evaluate(samples, memory, Some(batch))
    }

    /// Releases the session's transient probe state — the corrupted-weight
    /// pools, cached reliable baselines, cached injectors, clean-correction
    /// tables, clean-activation checkpoints and checked-in scratch buffers —
    /// keeping only the clean bit images and the weak-map cache. The serving
    /// layer calls this when a shard goes cold (session eviction under
    /// memory pressure); results are unaffected either way, the released
    /// state is simply rebuilt on demand by the next probe.
    pub fn release_transient_state(&mut self) {
        self.baselines.clear();
        self.injectors.clear();
        self.core.clean_corrections.lock().unwrap().clear();
        self.core.checkpoints.clear();
        self.core.scratch.drain();
        self.core.pool_arena.drain();
    }
}

impl EvalSession<'static> {
    /// Creates a session that *owns* a share of its network: the session can
    /// outlive the constructing frame, which is what lets a long-running
    /// evaluation service keep sessions hot across requests while the model
    /// zoo shares one `Arc` per network. Behaves identically to
    /// [`EvalSession::new`] in every other respect.
    pub fn new_shared(net: Arc<Network>, precision: Precision, backend: InferenceBackend) -> Self {
        Self::from_net_ref(NetRef::Shared(net), precision, backend)
    }
}

/// Content hash of a sample set: length, labels and every input's f32 bit
/// pattern. Two slices with identical contents share a baseline entry; any
/// content change produces a different key.
fn samples_key(samples: &[(Tensor, usize)]) -> u64 {
    let mut h = stream(0xBA5E_11E5, samples.len() as u64);
    for (x, label) in samples {
        h = stream(h, *label as u64);
        h = stream(h, x.data().len() as u64);
        for v in x.data() {
            h = h
                .rotate_left(9)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(v.to_bits() as u64);
        }
        h = stream(h, 0x5A17);
    }
    h
}

impl SessionCore<'_> {
    /// The batch evaluator behind [`EvalSession::evaluate_with_faults`]:
    /// identical window/refetch structure (and load-stream consumption) to
    /// the seed implementation, with the per-call state drawn from the
    /// session instead of rebuilt.
    fn evaluate(
        &self,
        samples: &[(Tensor, usize)],
        memory: &mut ApproximateMemory,
        batch: Option<usize>,
    ) -> f32 {
        if samples.is_empty() {
            return f32::NAN;
        }
        memory.attach_weak_map_cache(self.weak_maps.clone());
        // Pin every site's DRAM placement before forking so all forks agree
        // on addresses without having to communicate.
        memory.preallocate(&self.net, self.precision);
        let ckpt = self.checkpoint_ctx(samples, memory);
        let correct = self
            .pool_arena
            .with(|pool| self.evaluate_pool(samples, memory, pool, ckpt.as_ref(), batch));
        correct as f32 / samples.len() as f32
    }

    /// Partitions one window's samples into weight-stationary batch groups:
    /// maximal runs of consecutive samples whose corrupted weight states are
    /// provably equal, split to the batch cap. Samples sharing a refetch
    /// slot trivially qualify; a run extends across a slot boundary iff both
    /// slots hold equal overlay sets — an O(flips) comparison (every slot
    /// has been refetched, so none is fresh) — which makes batched execution
    /// bit-identical by
    /// construction (the group genuinely shares one weight state, and each
    /// lane's fault stream is keyed by its own global sample index either
    /// way).
    ///
    /// Also the single accounting point of [`BatchCounters`]: every returned
    /// group increments either the group/batched-sample counters or the
    /// group-of-one counter.
    fn batch_groups(
        &self,
        window_len: usize,
        slots: &[Slot],
        batch: Option<usize>,
    ) -> Vec<std::ops::Range<usize>> {
        let limit = batch.unwrap_or(self.batch_limit).max(1);
        let mergeable = |a: usize, b: usize| slots[a].overlays == slots[b].overlays;
        let mut groups = Vec::new();
        let mut start = 0usize;
        for i in 1..=window_len {
            let split = i == window_len || i - start == limit || {
                let (a, b) = ((i - 1) / WEIGHT_REFETCH_PERIOD, i / WEIGHT_REFETCH_PERIOD);
                a != b && !mergeable(a, b)
            };
            if split {
                groups.push(start..i);
                start = i;
            }
        }
        for g in &groups {
            if g.len() > 1 {
                self.batch_stats
                    .groups
                    .fetch_add(1, AtomicOrdering::Relaxed);
                self.batch_stats
                    .batched_samples
                    .fetch_add(g.len() as u64, AtomicOrdering::Relaxed);
            } else {
                self.batch_stats
                    .fallback_samples
                    .fetch_add(1, AtomicOrdering::Relaxed);
            }
        }
        groups
    }

    /// The checkpoint context of one `evaluate` call (`None` when the store
    /// is disabled or the net is too shallow to have an interior boundary):
    /// keys the store by sample-set content and bounding configuration, and
    /// caps resume/harvest at the probed memory's first dirty layer.
    fn checkpoint_ctx(
        &self,
        samples: &[(Tensor, usize)],
        memory: &ApproximateMemory,
    ) -> Option<CheckpointCtx<'_>> {
        if !self.checkpoints_enabled {
            return None;
        }
        let depth = self.net.depth();
        if depth < 2 {
            return None;
        }
        let first_dirty = memory.first_dirty_layer(depth);
        Some(CheckpointCtx {
            store: &self.checkpoints,
            skey: samples_key(samples),
            bkey: memory.bounding().map(bounding_key),
            top: first_dirty.min(depth - 1),
            stride: self.checkpoint_stride,
        })
    }

    /// The clean-image bounding corrections for `memory`'s bounding logic
    /// (None without bounding), computed once per distinct threshold set
    /// and shared from then on.
    fn clean_corrections(&self, memory: &ApproximateMemory) -> Option<Arc<CleanCorrections>> {
        let bounding = *memory.bounding()?;
        let mut cache = self.clean_corrections.lock().unwrap();
        Some(
            cache
                .entry(bounding_key(&bounding))
                .or_insert_with(|| {
                    Arc::new(
                        self.images
                            .iter()
                            .map(|img| {
                                // A fully-plausible integer grid has no
                                // corrections by construction, and
                                // `corrupt_overlay` never consults the slice
                                // for such images — skip the O(values) scan.
                                if bounding.covers_grid(&img.clean) {
                                    Vec::new()
                                } else {
                                    bounding.clean_corrections(&img.clean)
                                }
                            })
                            .collect(),
                    )
                })
                .clone(),
        )
    }

    /// A fresh refetch slot on the session's plan: the native plan for
    /// `NativeInt` at an integer precision, the all-f32 plan for
    /// `SimulatedF32` and for FP32 (which has no integer representation).
    fn new_slot(&self) -> Slot {
        let native = self.backend == InferenceBackend::NativeInt && self.precision.is_integer();
        Slot {
            weights: if native {
                NativeWeights::prepare(&self.net)
            } else {
                NativeWeights::simulated(&self.net)
            },
            overlays: None,
        }
    }

    /// One weight refetch of a pool slot: revert the previous draw (or
    /// establish the clean baseline in a fresh slot), draw the new overlays
    /// from `memory` and patch them in — O(flips).
    fn refetch_slot(
        &self,
        slot: &mut Slot,
        memory: &mut ApproximateMemory,
        corrections: Option<&CleanCorrections>,
    ) {
        let overlays = self.refetch_overlays(memory, corrections.map(Vec::as_slice));
        match slot.overlays.take() {
            Some(old) => slot.weights.revert_overlay(&self.images, &old),
            None => slot.weights.refresh_clean(&self.images),
        }
        slot.weights.apply_overlay(&self.images, &overlays);
        slot.overlays = Some(overlays);
    }

    /// Serves one weight refetch as overlays: one
    /// [`ApproximateMemory::corrupt_overlay`] per weight image, in image
    /// order — consuming exactly the load streams (and accumulating exactly
    /// the statistics) that corrupting a copy of every image through
    /// [`eden_dnn::FaultHook::corrupt`] would.
    fn refetch_overlays(
        &self,
        memory: &mut ApproximateMemory,
        corrections: Option<&[Vec<(u32, u32)>]>,
    ) -> Vec<CorruptionOverlay> {
        self.images
            .iter()
            .enumerate()
            .map(|(i, img)| {
                memory.corrupt_overlay(&img.site, &img.clean, corrections.map(|c| c[i].as_slice()))
            })
            .collect()
    }

    /// The window loop behind [`SessionCore::evaluate`]: identical window/refetch structure (and load-stream
    /// consumption) to the seed implementation. Per window, every refetch
    /// slot's weights are re-drawn sequentially from the parent memory's
    /// stream, in sample order; the pool's slots are created lazily (at most
    /// once per slot, i.e. ≤ 16 times per session) and patched in place.
    /// The window's samples then run as weight-stationary groups across the
    /// `eden-par` pool, and each lane's statistics merge back in order.
    fn evaluate_pool(
        &self,
        samples: &[(Tensor, usize)],
        memory: &mut ApproximateMemory,
        pool: &mut Vec<Slot>,
        ckpt: Option<&CheckpointCtx<'_>>,
        batch: Option<usize>,
    ) -> usize {
        let corrections = self.clean_corrections(memory);
        let mut correct = 0usize;
        for (w, window) in samples.chunks(WINDOW).enumerate() {
            let slots = refetch_slots(window.len());
            while pool.len() < slots {
                pool.push(self.new_slot());
            }
            for slot in pool.iter_mut().take(slots) {
                self.refetch_slot(slot, memory, corrections.as_deref());
            }

            let base = w * WINDOW;
            let shared: &ApproximateMemory = memory;
            let pool_ref: &[Slot] = &pool[..slots];
            let groups = self.batch_groups(window.len(), pool_ref, batch);
            let outcomes = eden_par::par_map(&groups, |_, g| {
                let weights = &pool_ref[g.start / WEIGHT_REFETCH_PERIOD].weights;
                self.run_group(weights, window, g.clone(), base, shared, ckpt)
            });

            for (ok, stats) in outcomes.into_iter().flatten() {
                if ok {
                    correct += 1;
                }
                memory.merge_stats(stats);
            }
        }
        correct
    }

    /// One weight-stationary group of a window: every sample gets its own
    /// fault lane, forked by its *global* index (invariant under the window
    /// size, the thread count and the grouping), and its own checkpoint
    /// resume layer — the deepest clean boundary stored for it, with the
    /// lane's load cursor advanced past the skipped prefix. The group then
    /// runs through `weights`, harvesting clean boundary activations on the
    /// way. Per sample, the sequence of IFM loads, harvests and layer
    /// computations depends only on that sample, so outcomes and per-lane
    /// statistics are independent of the grouping.
    fn run_group(
        &self,
        weights: &NativeWeights,
        window: &[(Tensor, usize)],
        g: std::ops::Range<usize>,
        base: usize,
        shared: &ApproximateMemory,
        ckpt: Option<&CheckpointCtx<'_>>,
    ) -> Vec<(bool, MemoryStats)> {
        let mut lanes: Vec<ApproximateMemory> =
            g.clone().map(|i| shared.fork((base + i) as u64)).collect();
        let mut starts = vec![0usize; g.len()];
        let mut xs: Vec<Tensor> = Vec::with_capacity(g.len());
        for (j, i) in g.clone().enumerate() {
            match ckpt.and_then(|c| c.resume((base + i) as u32)) {
                Some((boundary, ck)) => {
                    lanes[j].skip_clean_loads(boundary as u64, ck.corrections);
                    starts[j] = boundary;
                    xs.push(Tensor::from_vec(ck.data.clone(), &ck.shape));
                }
                None => xs.push(window[i].0.clone()),
            }
        }
        let first = (base + g.start) as u32;
        let logits =
            self.forward_group(weights, &xs, &starts, &mut lanes, |j, boundary, x, lane| {
                if let Some(ctx) = ckpt {
                    if boundary > starts[j] {
                        ctx.harvest(first + j as u32, boundary, x, lane.stats().corrections);
                    }
                }
            });
        lanes
            .into_iter()
            .zip(logits)
            .zip(g)
            .map(|((lane, y), i)| (y.argmax() == window[i].1, lane.stats()))
            .collect()
    }

    /// [`EvalSession::forward_with_faults`] on a checked-out pool: refetch
    /// its first slot from `memory` and run `input` as a group of one with
    /// `memory` as its lane.
    fn forward_one(
        &self,
        pool: &mut Vec<Slot>,
        input: &Tensor,
        memory: &mut ApproximateMemory,
    ) -> Tensor {
        if pool.is_empty() {
            pool.push(self.new_slot());
        }
        let corrections = self.clean_corrections(memory);
        let slot = &mut pool[0];
        self.refetch_slot(slot, memory, corrections.as_deref());
        let mut out = self.forward_group(
            &slot.weights,
            std::slice::from_ref(input),
            &[0],
            std::slice::from_mut(memory),
            |_, _, _, _| {},
        );
        out.pop().expect("one output per input")
    }

    /// Runs a group through [`qexec::forward_native_batch_observed`] with a
    /// checked-out scratch buffer (contents never influence results, so
    /// reuse across groups is thread-count invariant).
    fn forward_group(
        &self,
        weights: &NativeWeights,
        inputs: &[Tensor],
        starts: &[usize],
        lanes: &mut [ApproximateMemory],
        observe: impl FnMut(usize, usize, &Tensor, &mut ApproximateMemory),
    ) -> Vec<Tensor> {
        self.scratch.with(|scratch| {
            qexec::forward_native_batch_observed(
                &self.net,
                weights,
                inputs,
                starts,
                self.precision,
                lanes,
                scratch,
                observe,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_dnn::data::SyntheticVision;
    use eden_dnn::train::{TrainConfig, Trainer};
    use eden_dnn::{zoo, DataKind, DataSite, Dataset, NoFaults};

    fn trained_lenet(seed: u64) -> (Network, SyntheticVision) {
        let dataset = SyntheticVision::tiny(seed);
        let mut net = zoo::lenet(&dataset.spec(), seed);
        Trainer::new(TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        })
        .train(&mut net, &dataset);
        (net, dataset)
    }

    #[test]
    fn session_reuse_matches_one_shot_calls_bit_for_bit() {
        let (net, dataset) = trained_lenet(0);
        let samples = &dataset.test()[..24];
        let template = ErrorModel::uniform(0.02, 0.5, 3);
        for backend in [InferenceBackend::SimulatedF32, InferenceBackend::NativeInt] {
            let session = EvalSession::new(&net, Precision::Int8, backend);
            // A probe sequence revisiting earlier operating points, as the
            // characterization loops do.
            for ber in [1e-3, 1e-2, 1e-3, 5e-2] {
                let model = template.with_ber(ber);
                let mut session_memory = ApproximateMemory::from_model(model, 7);
                let mut fresh_memory = ApproximateMemory::from_model(model, 7);
                let via_session = session.evaluate_with_faults(samples, &mut session_memory);
                let via_fresh = EvalSession::new(&net, Precision::Int8, backend)
                    .evaluate_with_faults(samples, &mut fresh_memory);
                assert_eq!(via_session.to_bits(), via_fresh.to_bits(), "{backend}");
                assert_eq!(session_memory.stats(), fresh_memory.stats(), "{backend}");
            }
        }
    }

    #[test]
    fn overlay_refetch_matches_image_reload_refetch() {
        // The session's overlay refetch against the image-reload oracle,
        // refetch by refetch: same weights (same outputs on a probe input)
        // and same memory statistics, across both backends' weight states,
        // with bounding (so the sparse correction fold is exercised) and
        // across a probe sequence that reuses the slots (revert + re-apply).
        let (net, dataset) = trained_lenet(7);
        let x = &dataset.test()[0].0;
        let template = ErrorModel::uniform(0.02, 0.5, 3);
        let bounding =
            crate::bounding::BoundingLogic::new(-6.0, 6.0, crate::bounding::CorrectionPolicy::Zero);
        let session = EvalSession::new(&net, Precision::Int8, InferenceBackend::NativeInt);
        let simulated_session =
            EvalSession::new(&net, Precision::Int8, InferenceBackend::SimulatedF32);
        let core = &session.core;
        let out = |w: &NativeWeights| {
            let mut out = qexec::forward_native_batch_observed(
                &net,
                w,
                std::slice::from_ref(x),
                &[0],
                Precision::Int8,
                &mut [NoFaults],
                &mut QuantScratch::new(),
                |_, _, _, _| {},
            );
            out.pop().unwrap()
        };
        let mut simulated = simulated_session.core.new_slot();
        let mut native = core.new_slot();
        for ber in [1e-3, 1e-2, 1e-3, 5e-2] {
            let model = template.with_ber(ber);
            let make = || ApproximateMemory::from_model(model, 7).with_bounding(bounding);

            let (mut a, mut b) = (make(), make());
            let corrections = core.clean_corrections(&a);
            core.refetch_slot(&mut simulated, &mut a, corrections.as_deref());
            let mut reloaded = net.clone();
            reloaded.load_clean_weights(&crate::corrupted_images(&core.images, &mut b));
            let reference = reloaded.forward_with_ifm_hook(x, Precision::Int8, &mut NoFaults);
            assert_eq!(out(&simulated.weights), reference, "{ber}");
            assert_eq!(a.stats(), b.stats(), "{ber}");

            let (mut a, mut b) = (make(), make());
            core.refetch_slot(&mut native, &mut a, corrections.as_deref());
            let mut refreshed = NativeWeights::prepare(&net);
            refreshed.refresh_clean(&crate::corrupted_images(&core.images, &mut b));
            assert_eq!(out(&native.weights), out(&refreshed), "{ber}");
            assert_eq!(a.stats(), b.stats(), "{ber}");
        }
    }

    #[test]
    fn reliable_baseline_is_cached_per_sample_content() {
        let (net, dataset) = trained_lenet(1);
        let mut session = EvalSession::new(&net, Precision::Int8, InferenceBackend::default());
        let a = session.evaluate_reliable(&dataset.test()[..16]);
        assert_eq!(session.baselines.len(), 1);
        // Same contents (even through a different slice expression) hit the
        // cache; a different set gets its own entry.
        let b = session.evaluate_reliable(&dataset.test()[0..16]);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(session.baselines.len(), 1);
        let c = session.evaluate_reliable(&dataset.test()[..8]);
        assert_eq!(session.baselines.len(), 2);
        let fresh = EvalSession::new(&net, Precision::Int8, InferenceBackend::default())
            .evaluate_reliable(&dataset.test()[..8]);
        assert_eq!(c.to_bits(), fresh.to_bits());
    }

    #[test]
    fn session_sweep_matches_one_shot_sweep() {
        let (net, dataset) = trained_lenet(2);
        let samples = &dataset.test()[..16];
        let template = ErrorModel::uniform(0.02, 0.5, 5);
        let bers = [1e-4, 1e-3, 1e-2];
        let mut session = EvalSession::new(&net, Precision::Int8, InferenceBackend::NativeInt);
        let via_session = session.accuracy_vs_ber(samples, &template, &bers, None, 11);
        let via_fresh = EvalSession::new(&net, Precision::Int8, InferenceBackend::NativeInt)
            .accuracy_vs_ber(samples, &template, &bers, None, 11);
        assert_eq!(via_session, via_fresh);
    }

    #[test]
    fn evaluate_pair_matches_sequential_probes() {
        let (net, dataset) = trained_lenet(3);
        let samples = &dataset.test()[..16];
        let template = ErrorModel::uniform(0.02, 0.5, 2);
        let session = EvalSession::new(&net, Precision::Int8, InferenceBackend::default());
        let make = |ber: f64| ApproximateMemory::from_model(template.with_ber(ber), 9);
        let (mut a, mut b) = (make(1e-4), make(1e-2));
        let (pair_lo, pair_hi) = eden_par::join(
            || session.evaluate_with_faults(samples, &mut a),
            || session.evaluate_with_faults(samples, &mut b),
        );
        let (mut a2, mut b2) = (make(1e-4), make(1e-2));
        let seq_lo = session.evaluate_with_faults(samples, &mut a2);
        let seq_hi = session.evaluate_with_faults(samples, &mut b2);
        assert_eq!(pair_lo.to_bits(), seq_lo.to_bits());
        assert_eq!(pair_hi.to_bits(), seq_hi.to_bits());
        assert_eq!(a.stats(), a2.stats());
        assert_eq!(b.stats(), b2.stats());
    }

    #[test]
    fn injector_cache_is_keyed_by_model_and_ber() {
        let (net, _) = trained_lenet(4);
        let mut session = EvalSession::new(&net, Precision::Int8, InferenceBackend::default());
        let template = ErrorModel::uniform(0.02, 0.5, 3);
        let a = session.injector_for(&template, 1e-3);
        let _b = session.injector_for(&template, 1e-2);
        let a_again = session.injector_for(&template, 1e-3);
        assert_eq!(session.injectors.len(), 2);
        assert!((a.expected_ber() - a_again.expected_ber()).abs() < 1e-15);
        // A different template under the same BER is a distinct entry.
        let other = ErrorModel::bitline(0.02, 0.5, 0.8, 3);
        session.injector_for(&other, 1e-3);
        assert_eq!(session.injectors.len(), 3);
    }

    #[test]
    fn empty_sample_slice_returns_the_nan_sentinel() {
        let (net, _) = trained_lenet(5);
        let mut session = EvalSession::new(&net, Precision::Int8, InferenceBackend::default());
        let mut memory = ApproximateMemory::reliable(0);
        assert!(session.evaluate_with_faults(&[], &mut memory).is_nan());
        assert!(session.evaluate_reliable(&[]).is_nan());
    }

    #[test]
    fn shared_session_is_sync_and_matches_the_borrowed_session_bit_for_bit() {
        // The serving layer holds `EvalSession<'static>` behind an `Arc` and
        // evaluates through `&self` from many threads at once; both the
        // ownership mode and the concurrent entry point must be invisible in
        // the results.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EvalSession<'static>>();

        let (net, dataset) = trained_lenet(8);
        let samples = &dataset.test()[..24];
        let template = ErrorModel::uniform(0.02, 0.5, 3);
        let net = Arc::new(net);
        for backend in [InferenceBackend::SimulatedF32, InferenceBackend::NativeInt] {
            let shared = EvalSession::new_shared(net.clone(), Precision::Int8, backend);
            let borrowed = EvalSession::new(&net, Precision::Int8, backend);
            for ber in [1e-3, 1e-2] {
                let model = template.with_ber(ber);
                let mut memory_a = ApproximateMemory::from_model(model, 7);
                let mut memory_b = ApproximateMemory::from_model(model, 7);
                let via_shared = shared.evaluate_with_faults(samples, &mut memory_a);
                let via_borrowed = borrowed.evaluate_with_faults(samples, &mut memory_b);
                assert_eq!(via_shared.to_bits(), via_borrowed.to_bits(), "{backend}");
                assert_eq!(memory_a.stats(), memory_b.stats(), "{backend}");
            }
        }
    }

    #[test]
    fn release_transient_state_does_not_change_results() {
        let (net, dataset) = trained_lenet(9);
        let samples = &dataset.test()[..16];
        let template = ErrorModel::uniform(0.02, 0.5, 3);
        let mut session = EvalSession::new(&net, Precision::Int8, InferenceBackend::default());
        let model = template.with_ber(1e-3);
        let mut before = ApproximateMemory::from_model(model, 5);
        let a = session.evaluate_with_faults(samples, &mut before);
        session.injector_for(&template, 1e-3);
        session.release_transient_state();
        assert_eq!(session.core.pool_arena.resident(), 0);
        assert!(session.baselines.is_empty() && session.injectors.is_empty());
        let mut after = ApproximateMemory::from_model(model, 5);
        let b = session.evaluate_with_faults(samples, &mut after);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(before.stats(), after.stats());
    }

    #[test]
    fn weak_map_cache_fills_once_and_is_shared_across_probes() {
        let (net, dataset) = trained_lenet(6);
        let samples = &dataset.test()[..8];
        let template = ErrorModel::uniform(0.02, 0.5, 3);
        let session = EvalSession::new(&net, Precision::Int8, InferenceBackend::default());
        let mut memory = ApproximateMemory::from_model(template.with_ber(1e-3), 1);
        session.evaluate_with_faults(samples, &mut memory);
        let filled = session.core.weak_maps.len();
        assert!(filled > 0, "model-backed probes must populate the cache");
        // A second probe at the same operating point adds nothing; a new BER
        // adds exactly the maps of the new model.
        let mut memory2 = ApproximateMemory::from_model(template.with_ber(1e-3), 2);
        session.evaluate_with_faults(samples, &mut memory2);
        assert_eq!(session.core.weak_maps.len(), filled);
        let mut memory3 = ApproximateMemory::from_model(template.with_ber(1e-2), 2);
        session.evaluate_with_faults(samples, &mut memory3);
        assert_eq!(session.core.weak_maps.len(), 2 * filled);
    }

    /// A memory whose only error source is a model injector at the given
    /// site — every other site is provably clean, so the prefix below the
    /// site's layer is checkpoint-resumable.
    fn single_site_memory(site: &DataSite, ber: f64, seed: u64) -> ApproximateMemory {
        let mut memory = ApproximateMemory::reliable(seed);
        memory.assign_site(
            site.clone(),
            Injector::from_model(ErrorModel::uniform(0.02, 0.5, 3).with_ber(ber)),
        );
        memory
    }

    /// The deepest IFM site of the network — dirtying it leaves the longest
    /// clean prefix, so checkpoint resume has the most to skip.
    fn deepest_ifm(net: &Network) -> DataSite {
        net.data_sites()
            .into_iter()
            .filter(|info| info.site.kind == DataKind::Ifm)
            .max_by_key(|info| info.site.layer_index)
            .expect("network has IFM sites")
            .site
    }

    #[test]
    fn checkpointed_resume_matches_full_forward_bit_for_bit() {
        let (net, dataset) = trained_lenet(10);
        let samples = &dataset.test()[..16];
        let site = deepest_ifm(&net);
        for backend in [InferenceBackend::SimulatedF32, InferenceBackend::NativeInt] {
            let on = EvalSession::new(&net, Precision::Int8, backend);
            let off = EvalSession::new(&net, Precision::Int8, backend).with_checkpoints(false);
            assert!(on.checkpoints_enabled());
            assert!(!off.checkpoints_enabled());
            // A probe sequence over the same samples: from the second probe
            // on, the resuming session serves every sample's clean prefix
            // from the checkpoint store while the full session re-executes
            // it — the results and the memory statistics must not tell.
            for ber in [1e-3, 1e-2, 5e-2] {
                let (mut a, mut b) = (
                    single_site_memory(&site, ber, 21),
                    single_site_memory(&site, ber, 21),
                );
                let resumed = on.evaluate_with_faults(samples, &mut a);
                let full = off.evaluate_with_faults(samples, &mut b);
                assert_eq!(resumed.to_bits(), full.to_bits(), "{backend} {ber}");
                assert_eq!(a.stats(), b.stats(), "{backend} {ber}");
            }
            let counters = on.checkpoint_counters();
            assert!(counters.hits > 0, "{backend}: later probes must resume");
            assert!(counters.misses > 0, "{backend}: the first probe is cold");
            assert!(counters.resident_bytes > 0, "{backend}");
            assert_eq!(off.checkpoint_counters(), CheckpointCounters::default());
        }
    }

    #[test]
    fn checkpointed_resume_is_identical_under_bounding() {
        // Bounding corrects clean prefix activations too, so resumed lanes
        // must replay the recorded correction counts; the checkpoint key
        // separates threshold sets.
        let (net, dataset) = trained_lenet(11);
        let samples = &dataset.test()[..16];
        let site = deepest_ifm(&net);
        let bounding = BoundingLogic::new(-6.0, 6.0, CorrectionPolicy::Zero);
        let on = EvalSession::new(&net, Precision::Int8, InferenceBackend::NativeInt);
        let off = EvalSession::new(&net, Precision::Int8, InferenceBackend::NativeInt)
            .with_checkpoints(false);
        for ber in [1e-2, 1e-2, 5e-2] {
            let make = |seed| single_site_memory(&site, ber, seed).with_bounding(bounding);
            let (mut a, mut b) = (make(4), make(4));
            let resumed = on.evaluate_with_faults(samples, &mut a);
            let full = off.evaluate_with_faults(samples, &mut b);
            assert_eq!(resumed.to_bits(), full.to_bits(), "{ber}");
            assert_eq!(a.stats(), b.stats(), "{ber}");
        }
        assert!(on.checkpoint_counters().hits > 0);
    }

    #[test]
    fn checkpoint_eviction_under_a_tiny_budget_keeps_results_identical() {
        // A budget below one boundary activation forces continual eviction:
        // the cold (miss → full forward) path must stay bit-identical, and
        // the counters must record the churn instead of hiding it.
        let (net, dataset) = trained_lenet(12);
        let samples = &dataset.test()[..16];
        let site = deepest_ifm(&net);
        let tiny = EvalSession::new(&net, Precision::Int8, InferenceBackend::default())
            .with_checkpoint_budget(64);
        let off = EvalSession::new(&net, Precision::Int8, InferenceBackend::default())
            .with_checkpoints(false);
        for ber in [1e-3, 1e-3, 1e-2] {
            let (mut a, mut b) = (
                single_site_memory(&site, ber, 13),
                single_site_memory(&site, ber, 13),
            );
            let evicting = tiny.evaluate_with_faults(samples, &mut a);
            let full = off.evaluate_with_faults(samples, &mut b);
            assert_eq!(evicting.to_bits(), full.to_bits(), "{ber}");
            assert_eq!(a.stats(), b.stats(), "{ber}");
        }
        let counters = tiny.checkpoint_counters();
        assert!(counters.evictions > 0, "a 64-byte budget must evict");
        assert!(counters.resident_bytes <= 64 * 1024);
    }

    #[test]
    fn release_transient_state_drains_checkpoints() {
        let (net, dataset) = trained_lenet(13);
        let samples = &dataset.test()[..8];
        let site = deepest_ifm(&net);
        let mut session = EvalSession::new(&net, Precision::Int8, InferenceBackend::default());
        let mut memory = single_site_memory(&site, 1e-3, 2);
        let before = session.evaluate_with_faults(samples, &mut memory);
        assert!(session.checkpoint_counters().resident_bytes > 0);
        session.release_transient_state();
        assert_eq!(session.checkpoint_counters().resident_bytes, 0);
        // The store refills on demand and results are unaffected.
        let mut again = single_site_memory(&site, 1e-3, 2);
        let after = session.evaluate_with_faults(samples, &mut again);
        assert_eq!(before.to_bits(), after.to_bits());
        assert_eq!(memory.stats(), again.stats());
    }

    #[test]
    fn batched_execution_matches_per_sample_bit_for_bit() {
        // The default (batched) session against a batch-limit-1 session —
        // every sample a group of one — across backends: same accuracies,
        // same memory statistics.
        let (net, dataset) = trained_lenet(14);
        let samples = &dataset.test()[..24];
        let template = ErrorModel::uniform(0.02, 0.5, 3);
        for backend in [InferenceBackend::SimulatedF32, InferenceBackend::NativeInt] {
            let batched = EvalSession::new(&net, Precision::Int8, backend);
            let solo = EvalSession::new(&net, Precision::Int8, backend).with_batch_limit(1);
            assert_eq!(batched.batch_limit(), DEFAULT_BATCH_LIMIT);
            assert_eq!(solo.batch_limit(), 1);
            for ber in [1e-3, 1e-2] {
                let model = template.with_ber(ber);
                let mut a = ApproximateMemory::from_model(model, 7);
                let mut b = ApproximateMemory::from_model(model, 7);
                let via_batched = batched.evaluate_with_faults(samples, &mut a);
                let via_solo = solo.evaluate_with_faults(samples, &mut b);
                assert_eq!(via_batched.to_bits(), via_solo.to_bits(), "{backend}");
                assert_eq!(a.stats(), b.stats(), "{backend}");
            }
            let c = batched.batch_counters();
            assert!(c.groups > 0, "{backend}: slot-mates must batch");
            assert!(c.batched_samples > 0, "{backend}");
            let s = solo.batch_counters();
            assert_eq!(s.groups, 0, "{backend}: limit 1 never batches");
            assert_eq!(s.batched_samples, 0, "{backend}");
            assert_eq!(s.fallback_samples, 2 * samples.len() as u64);
        }
    }

    #[test]
    fn equal_overlays_merge_batch_groups_across_refetch_slots() {
        // With a weak-cell flip probability of 1.0 every refetch draws the
        // same overlays, so consecutive slots hold provably equal weights
        // and the overlay-grouping rule forms groups wider than one slot —
        // up to the batch cap.
        let (net, dataset) = trained_lenet(15);
        let samples = &dataset.test()[..48]; // 3 refetch slots
        let model = ErrorModel::uniform(0.02, 1.0, 3).with_ber(1e-3);
        let session = EvalSession::new(&net, Precision::Int8, InferenceBackend::NativeInt);
        let mut memory = ApproximateMemory::from_model(model, 7);
        let accuracy = session.evaluate_with_faults(samples, &mut memory);
        let c = session.batch_counters();
        // 48 equal-weight samples under a cap of 32 split into 32 + 16.
        assert_eq!(c.groups, 2);
        assert_eq!(c.batched_samples, 48);
        assert_eq!(c.fallback_samples, 0);
        // And the cross-slot groups stay pinned to groups of one.
        let solo = EvalSession::new(&net, Precision::Int8, InferenceBackend::NativeInt)
            .with_batch_limit(1);
        let mut memory2 = ApproximateMemory::from_model(model, 7);
        let reference = solo.evaluate_with_faults(samples, &mut memory2);
        assert_eq!(accuracy.to_bits(), reference.to_bits());
        assert_eq!(memory.stats(), memory2.stats());
    }

    #[test]
    fn evaluate_concurrent_batched_overrides_the_session_cap() {
        let (net, dataset) = trained_lenet(16);
        let samples = &dataset.test()[..16]; // one slot: every sample groupable
        let model = ErrorModel::uniform(0.02, 0.5, 3).with_ber(1e-2);
        let session = EvalSession::new(&net, Precision::Int8, InferenceBackend::SimulatedF32);
        let mut memory = ApproximateMemory::from_model(model, 7);
        let capped = session.evaluate_concurrent_batched(samples, &mut memory, 4);
        // A cap of 4 over 16 slot-sharing samples forms exactly 4 groups.
        let c = session.batch_counters();
        assert_eq!(c.groups, 4);
        assert_eq!(c.batched_samples, 16);
        let mut memory2 = ApproximateMemory::from_model(model, 7);
        let reference = session.evaluate_concurrent_batched(samples, &mut memory2, 1);
        assert_eq!(capped.to_bits(), reference.to_bits());
        assert_eq!(memory.stats(), memory2.stats());
        assert_eq!(session.batch_counters().fallback_samples, 16);
    }

    #[test]
    fn batching_composes_with_checkpoint_resume_inside_a_group() {
        // Probe sequences resume individual samples at their own boundaries;
        // a batch group must honour each member's resume layer while the
        // suffix layers still execute batched.
        let (net, dataset) = trained_lenet(17);
        let samples = &dataset.test()[..16];
        let site = deepest_ifm(&net);
        for backend in [InferenceBackend::SimulatedF32, InferenceBackend::NativeInt] {
            let batched = EvalSession::new(&net, Precision::Int8, backend);
            let solo = EvalSession::new(&net, Precision::Int8, backend).with_batch_limit(1);
            for ber in [1e-3, 1e-2, 5e-2] {
                let (mut a, mut b) = (
                    single_site_memory(&site, ber, 23),
                    single_site_memory(&site, ber, 23),
                );
                let via_batched = batched.evaluate_with_faults(samples, &mut a);
                let via_solo = solo.evaluate_with_faults(samples, &mut b);
                assert_eq!(via_batched.to_bits(), via_solo.to_bits(), "{backend} {ber}");
                assert_eq!(a.stats(), b.stats(), "{backend} {ber}");
            }
            assert!(
                batched.checkpoint_counters().hits > 0,
                "{backend}: later probes must resume inside batch groups"
            );
            assert!(batched.batch_counters().groups > 0, "{backend}");
        }
    }
}
