//! The approximate-memory fault hook.
//!
//! [`ApproximateMemory`] models DNN data living in approximate DRAM: every
//! time the DNN "loads" a weight tensor or IFM, the configured error source
//! (a fitted error model or the simulated device itself) corrupts the stored
//! bits, and the optional bounding logic corrects implausible values — the
//! same flow as Figure 6 of the paper. Different data types can be backed by
//! different error rates (fine-grained mapping) and are placed at different
//! DRAM addresses.
//!
//! # Randomness and parallelism
//!
//! Instead of threading one shared RNG through every load, each load draws
//! its failures from an independent stream derived from
//! `(memory seed, load index)`. The flip set of a load is therefore a pure
//! function of the memory's seed and the load's position in this memory's
//! deterministic load sequence — never of wall-clock interleaving. The
//! batch-parallel inference engine exploits this through
//! [`ApproximateMemory::fork`]: each sample of a batch gets a child memory
//! whose seed is derived from the parent seed and the *sample index*, making
//! results bit-identical for any thread count.
//!
//! # Execution backends
//!
//! The memory model is backend-neutral: both inference backends
//! ([`crate::inference::InferenceBackend`]) corrupt the same [`QuantTensor`]
//! stored bits through the same [`FaultHook`] entry point and consume load
//! streams in the same order.
//!
//! # Weight loads as sparse overlays
//!
//! Weight sites are served from cached clean bit images
//! ([`Network::weight_images`]). A load is answered with a
//! [`CorruptionOverlay`] ([`ApproximateMemory::corrupt_overlay`]): the
//! `(word, xor mask)` deltas of the draw's flips, with any bounding
//! corrections folded in sparsely, which the evaluator patches into (and
//! later reverts from) a persistent corrupted copy. Per refetch this costs
//! O(flips), not O(total weights).
//!
//! The overlay consumes the same load stream, and records the same
//! statistics, as corrupting a copy of the clean image in place through
//! [`FaultHook::corrupt`]; the workspace `overlay_equivalence` suite pins
//! the two against each other with a test-local reference that loads such
//! copies whole.
//!
//! # Multi-module span placement
//!
//! A site need not live in one partition: [`ApproximateMemory::assign_site_spans`]
//! places contiguous spans of a site's stored values into different
//! `(module, partition, operating point)` triples of a
//! [`eden_dram::MemorySystem`], each span backed by its own [`Injector`] and
//! [`Layout`]. A load then emits one [`CorruptionOverlay`] per span from the
//! span's own seed stream and composes them with [`CorruptionOverlay::merge`]
//! into a single O(flips) overlay — bit-identical (and pinned so by
//! [`SpanComposition::Independent`], the merge-free reference composition) to
//! corrupting each span's slice separately, at any thread count.

use crate::bounding::BoundingLogic;
use crate::lru::BudgetedLru;
use eden_dnn::{DataKind, DataSite, FaultHook, Network};
use eden_dram::error_model::{Layout, WeakCellMap};
use eden_dram::inject::{AddressAllocator, Injector};
use eden_dram::util::{seed_mix, stream};
use eden_dram::ErrorModel;
use eden_tensor::{CorruptionOverlay, Precision, QuantTensor};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

pub use crate::lru::CacheCounters;

/// Salt separating fork-lane seeds from the parent's own load streams.
const FORK_SALT: u64 = 0xF0_4B_1A_9E_5A_17_ED_01;

/// Cache key of one precomputed weak-cell map: the injector's fingerprint
/// ([`Injector::fingerprint`]: the error model's parameters, or the device,
/// partition and operating point) plus the exact placement and tensor
/// geometry the map was computed for. A map is a pure function of this key,
/// so sharing cached entries across memories can never change results.
type WeakMapKey = (u64, Layout, usize, u32);

/// A shared, thread-safe cache of precomputed [`WeakCellMap`]s, keyed by
/// `(injector fingerprint, placement, tensor geometry)`.
///
/// Every [`ApproximateMemory`] keeps its own per-site map cache, but that
/// cache dies with the memory — and characterization sweeps build a *fresh*
/// memory per probe, recomputing the O(total bits) weak-cell scans dozens of
/// times for placements whose error model never changed between probes.
/// Attaching one `WeakMapCache` (via
/// [`ApproximateMemory::attach_weak_map_cache`]) to every probe's memory
/// makes those scans run once per distinct `(injector, placement, geometry)`
/// and be shared from then on. [`crate::session::EvalSession`] owns one such
/// cache and attaches it to every memory it evaluates with.
///
/// The cache is bounded: a fine-grained sweep inserts one map per *rejected*
/// candidate BER that is never looked up again, so an unbounded cache would
/// grow monotonically for the owning session's lifetime. It holds at most
/// [`WeakMapCache::MAX_ENTRIES`] maps in a [`BudgetedLru`]: the hot maps (the
/// currently-accepted tolerances, re-stamped on every probe) survive, the
/// dead rejected-candidate entries go first — so an overflow mid-sweep never
/// triggers an O(total bits) recompute storm of the maps every in-flight
/// probe is about to use again. Results are unaffected either way: an
/// evicted map is simply recomputed on its next (if any) use.
///
/// Hit/miss/eviction totals are tracked ([`WeakMapCache::counters`]) so
/// long-running consumers — the evaluation service in particular — can
/// report cache effectiveness.
#[derive(Debug)]
pub struct WeakMapCache {
    maps: Mutex<BudgetedLru<WeakMapKey, Arc<WeakCellMap>>>,
}

impl Default for WeakMapCache {
    fn default() -> Self {
        Self {
            maps: Mutex::new(BudgetedLru::new(Self::MAX_ENTRIES)),
        }
    }
}

impl WeakMapCache {
    /// Entry cap; generous enough that a Figure 11-scale sweep (hundreds of
    /// distinct `(model, placement)` pairs alive at once) never evicts
    /// mid-round, small enough to bound a long session's resident maps.
    pub const MAX_ENTRIES: usize = 4096;

    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached maps.
    pub fn len(&self) -> usize {
        self.maps.lock().unwrap().len()
    }

    /// Whether the cache holds no maps.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative hit/miss/eviction totals since the cache was created, and
    /// the number of resident maps.
    pub fn counters(&self) -> CacheCounters {
        self.maps.lock().unwrap().counters()
    }

    /// The cached map for `key`, computing it with `compute` on a miss.
    ///
    /// `compute` runs outside the cache lock (a weak-cell scan can be long,
    /// and concurrent probes must not serialize on it); if two threads race
    /// on the same key, the first inserted map wins, both observe it and the
    /// second insert evicts nothing — the maps are identical by
    /// construction, so the race is benign.
    fn get_or_compute(
        &self,
        key: WeakMapKey,
        compute: impl FnOnce() -> WeakCellMap,
    ) -> Arc<WeakCellMap> {
        if let Some(map) = self.maps.lock().unwrap().get(&key) {
            return map.clone();
        }
        let map = Arc::new(compute());
        self.maps.lock().unwrap().insert_with(key, || (map, 1)).0
    }
}

/// One contiguous span of a data site's stored values placed on its own
/// DRAM partition: corruption for the span is drawn by `injector` against the
/// span's slice of the clean image and lifted back into whole-image word
/// coordinates.
///
/// Spans cover loads lazily: a load shorter than the site's longest tensor
/// (a layer's bias sharing its weight site, say) only intersects the leading
/// spans, and the intersection is clipped to the tensor's length.
#[derive(Debug, Clone)]
pub struct PlacedSpan {
    /// Error source of the span's `(module, partition, operating point)`.
    pub injector: Injector,
    /// First value index of the span within the site's stored image.
    pub start_value: usize,
    /// Number of stored values the span covers.
    pub values: usize,
    /// DRAM placement of the span within its partition.
    pub layout: Layout,
}

/// How the per-span overlays of a multi-span site are combined into the one
/// overlay a load returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpanComposition {
    /// Compose with [`CorruptionOverlay::merge`] — the O(flips) production
    /// path.
    #[default]
    Merged,
    /// Reference composition: apply each span's lifted overlay to a scratch
    /// copy sequentially and diff the result, never calling `merge`. Exists
    /// to pin the production path bit-identical to evaluating each
    /// partition's faults separately.
    Independent,
}

/// Statistics accumulated while serving loads from approximate memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Tensor loads served.
    pub loads: u64,
    /// Bits flipped by the error source.
    pub bit_flips: u64,
    /// Values corrected by the bounding logic.
    pub corrections: u64,
}

/// DRAM placement and error-source state shared (copy-on-write) by a memory
/// and all of its forks.
///
/// The batch evaluator takes one fork per *sample*; with this state behind
/// an `Arc`, a fork is a constant-time clone instead of a deep copy of
/// several `DataSite`-keyed maps. A fork that lazily allocates a *new*
/// placement after forking diverges via `Arc::make_mut` — exactly the
/// pre-existing semantics that fork-local allocations are not written back.
#[derive(Clone)]
struct PlacementState {
    default_injector: Option<Injector>,
    site_injectors: HashMap<DataSite, Injector>,
    /// Multi-partition placements; a site present here bypasses
    /// `site_injectors`/`site_layouts` entirely. `Arc` so per-sample forks
    /// share the span lists.
    site_spans: HashMap<DataSite, Arc<Vec<PlacedSpan>>>,
    site_layouts: HashMap<DataSite, Layout>,
    /// Precomputed weak-cell maps per site — a layer's weight and bias
    /// tensors share a site but have different lengths, one memory may serve
    /// loads at several precisions, and a span-placed site has one map per
    /// span.
    weak_maps: HashMap<DataSite, Vec<SiteMap>>,
    allocator: AddressAllocator,
}

/// One precomputed weak-cell map of a site: span `span` (0 for a site with a
/// single placement) loaded as `values × bits`. `Arc` so per-sample forks
/// share the maps instead of recomputing them.
#[derive(Clone)]
struct SiteMap {
    span: usize,
    values: usize,
    bits: u32,
    map: Arc<WeakCellMap>,
}

impl PlacementState {
    fn new(default_injector: Option<Injector>) -> Self {
        Self {
            default_injector,
            site_injectors: HashMap::new(),
            site_spans: HashMap::new(),
            site_layouts: HashMap::new(),
            weak_maps: HashMap::new(),
            allocator: AddressAllocator::new(2048 * 8),
        }
    }

    fn injector_for(&self, site: &DataSite) -> Option<&Injector> {
        self.site_injectors
            .get(site)
            .or(self.default_injector.as_ref())
    }
}

/// Approximate DRAM backing the DNN's weights and feature maps.
#[derive(Clone)]
pub struct ApproximateMemory {
    placement: Arc<PlacementState>,
    /// Optional cross-memory map cache (see [`WeakMapCache`]); consulted on a
    /// local miss before falling back to a fresh weak-cell scan.
    shared_maps: Option<Arc<WeakMapCache>>,
    bounding: Option<BoundingLogic>,
    /// How multi-span sites compose their per-span overlays.
    span_composition: SpanComposition,
    /// Master seed; every load's RNG stream is derived from it.
    seed: u64,
    /// Index of the next load in this memory's deterministic load sequence.
    next_load: u64,
    stats: MemoryStats,
}

impl ApproximateMemory {
    /// Memory in which every data type is backed by the same error model
    /// (coarse-grained operation).
    pub fn from_model(model: ErrorModel, seed: u64) -> Self {
        Self::from_injector(Injector::from_model(model), seed)
    }

    /// Memory backed by an arbitrary injector (e.g. the simulated device).
    pub fn from_injector(injector: Injector, seed: u64) -> Self {
        Self {
            placement: Arc::new(PlacementState::new(Some(injector))),
            shared_maps: None,
            bounding: None,
            span_composition: SpanComposition::default(),
            seed,
            next_load: 0,
            stats: MemoryStats::default(),
        }
    }

    /// Reliable memory: no errors are ever injected.
    pub fn reliable(seed: u64) -> Self {
        Self {
            placement: Arc::new(PlacementState::new(None)),
            shared_maps: None,
            bounding: None,
            span_composition: SpanComposition::default(),
            seed,
            next_load: 0,
            stats: MemoryStats::default(),
        }
    }

    /// Attaches a shared weak-map cache: local misses consult (and populate)
    /// `cache` before falling back to a fresh weak-cell scan. Maps are pure
    /// functions of `(injector, placement, geometry)`, so attaching a
    /// cache never changes injection results — only how often the O(total
    /// bits) scans run. Forks and clones share the attachment.
    pub fn attach_weak_map_cache(&mut self, cache: Arc<WeakMapCache>) {
        self.shared_maps = Some(cache);
    }

    /// Enables implausible-value correction on every load.
    pub fn with_bounding(mut self, bounding: BoundingLogic) -> Self {
        self.bounding = Some(bounding);
        self
    }

    /// Backs one specific data type with its own error source (fine-grained
    /// mapping: different partitions have different BERs).
    pub fn assign_site(&mut self, site: DataSite, injector: Injector) {
        let state = Arc::make_mut(&mut self.placement);
        // Any maps computed under the previous error source are stale.
        state.weak_maps.remove(&site);
        state.site_injectors.insert(site, injector);
    }

    /// Places one data site across several DRAM partitions: span `k` of
    /// `spans` covers stored values `[start_value, start_value + values)` and
    /// is corrupted by its own injector at its own layout, from the sub-seed
    /// stream `seed_mix(load stream, k)`. Spans must be non-empty, sorted by
    /// `start_value`, disjoint, and start at value 0 with no gaps — every
    /// stored value belongs to exactly one span.
    ///
    /// A site placed here bypasses any [`ApproximateMemory::assign_site`]
    /// override and the default injector.
    ///
    /// # Panics
    ///
    /// Panics if `spans` is empty or violates the coverage contract.
    pub fn assign_site_spans(&mut self, site: DataSite, spans: Vec<PlacedSpan>) {
        assert!(
            !spans.is_empty(),
            "a span placement needs at least one span"
        );
        let mut next = 0usize;
        for span in &spans {
            assert!(span.values > 0, "empty span at value {}", span.start_value);
            assert_eq!(
                span.start_value, next,
                "spans must tile the value space contiguously from 0"
            );
            next += span.values;
        }
        let state = Arc::make_mut(&mut self.placement);
        // Any maps computed under the previous error source are stale (and
        // the span path draws per-span, not per-site, corruption).
        state.weak_maps.remove(&site);
        state.site_spans.insert(site, Arc::new(spans));
    }

    /// Selects how multi-span sites compose their per-span overlays (the
    /// production [`SpanComposition::Merged`] by default).
    pub fn with_span_composition(mut self, composition: SpanComposition) -> Self {
        self.span_composition = composition;
        self
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> MemoryStats {
        self.stats
    }

    /// The bounding logic, if enabled.
    pub fn bounding(&self) -> Option<&BoundingLogic> {
        self.bounding.as_ref()
    }

    /// Creates an independent child memory for one lane of parallel work
    /// (e.g. one sample of a batch).
    ///
    /// The child shares this memory's injectors, DRAM placements and bounding
    /// logic but derives its RNG streams from `(parent seed, lane)`, so its
    /// flip sets depend only on the lane index and its own load order — two
    /// forks of the same lane replay identically, and forks of different
    /// lanes never interact. Call [`ApproximateMemory::preallocate`] first if
    /// the forks must agree on site addresses that the parent has not served
    /// yet; fork-local lazy allocations are not written back.
    ///
    /// Fork statistics start at zero; merge them back with
    /// [`ApproximateMemory::merge_stats`].
    ///
    /// Forking is O(1): the placement state (injectors, layouts, weak-cell
    /// maps) is shared copy-on-write, so the per-sample forks of a batch
    /// evaluation cost an `Arc` clone each rather than a deep copy of the
    /// site maps.
    pub fn fork(&self, lane: u64) -> ApproximateMemory {
        let mut child = self.clone();
        child.seed = seed_mix(self.seed ^ FORK_SALT, &[lane]);
        child.next_load = 0;
        child.stats = MemoryStats::default();
        child
    }

    /// A cursor into this memory's own load sequence, starting `ahead`
    /// loads past the next one: same seed, placements and bounding, zero
    /// statistics.
    ///
    /// Where [`ApproximateMemory::fork`] re-seeds a lane, a cursor replays
    /// the draws the parent itself would make at those positions — so a
    /// sequence of loads can be split into disjoint ranges served in
    /// parallel, each by the cursor at its range's start, bit-identical to
    /// the parent serving them in turn. Call
    /// [`ApproximateMemory::preallocate`] first (placements a cursor
    /// allocates lazily are not written back), then
    /// [`ApproximateMemory::merge_stats`] the cursors' statistics and
    /// [`ApproximateMemory::advance`] the parent past the ranges they served.
    pub fn cursor(&self, ahead: u64) -> ApproximateMemory {
        let mut child = self.clone();
        child.next_load += ahead;
        child.stats = MemoryStats::default();
        child
    }

    /// Moves the load cursor past `loads` loads served elsewhere (by
    /// [`ApproximateMemory::cursor`]s), without touching the statistics.
    pub fn advance(&mut self, loads: u64) {
        self.next_load += loads;
    }

    /// Accumulates statistics from a fork (or any other source) into this
    /// memory. Counter addition is commutative, so the merge order of
    /// parallel forks does not affect the totals.
    pub fn merge_stats(&mut self, stats: MemoryStats) {
        self.stats.loads += stats.loads;
        self.stats.bit_flips += stats.bit_flips;
        self.stats.corrections += stats.corrections;
    }

    /// Assigns DRAM placements to every data site of `net` (weights and
    /// IFMs, in network order) that does not have one yet, and precomputes
    /// each placement's weak-cell maps (one per span of a span-placed site).
    ///
    /// Lazy allocation is deterministic for a *single* memory serving loads
    /// in sequence, but forks must agree on addresses without communicating;
    /// pre-allocating from the network structure pins every site's placement
    /// before the forks are taken. The weak-cell maps shift the O(total
    /// bits) weak-cell scan from every load to this one call: forks share
    /// the precomputed maps, so per-sample loads touch only the weak cells.
    pub fn preallocate(&mut self, net: &Network, precision: Precision) {
        let bits = precision.bits();
        for info in net.data_sites() {
            // Span-placed sites carry explicit per-span layouts.
            if !self.placement.site_spans.contains_key(&info.site) {
                self.layout_for(&info.site, info.elements as u64 * bits as u64);
            }
            if info.site.kind == DataKind::Ifm {
                self.site_maps(&info.site, info.elements, bits);
            }
        }
        // Weight sites serve one load per *parameter tensor* (a layer's
        // weight and bias share the site), so map each geometry separately.
        for (i, layer) in net.layers().iter().enumerate() {
            if layer.param_count() == 0 {
                continue;
            }
            let site = DataSite::new(i, layer.name(), DataKind::Weight);
            layer.visit_params_ref(&mut |_, t| {
                self.site_maps(&site, t.len(), bits);
            });
        }
    }

    /// Precomputes the weak-cell maps a `values × bits` load of `site`
    /// draws from: one per span it intersects, or its single placement's.
    fn site_maps(&mut self, site: &DataSite, values: usize, bits: u32) {
        match self.placement.site_spans.get(site).cloned() {
            Some(spans) => {
                for (k, span) in spans.iter().enumerate() {
                    let lo = span.start_value.min(values);
                    let hi = (span.start_value + span.values).min(values);
                    if lo < hi {
                        self.span_map_for(site, k, span, hi - lo, bits);
                    }
                }
            }
            None => {
                self.weak_map_for(site, values, bits);
            }
        }
    }

    /// The cached weak-cell map of a `(site, tensor length)` placement,
    /// computing and caching it if absent (`None` for reliable memory).
    fn weak_map_for(
        &mut self,
        site: &DataSite,
        values: usize,
        bits: u32,
    ) -> Option<Arc<WeakCellMap>> {
        if let Some(map) = self.cached_map(site, 0, values, bits) {
            return Some(map);
        }
        let layout = self.layout_for(site, values as u64 * bits as u64);
        let injector = self.placement.injector_for(site)?.clone();
        Some(self.compute_map(site, 0, &injector, layout, values, bits))
    }

    /// The cached weak-cell map of span `k` of a span-placed site, for the
    /// `values` of it a load intersects.
    fn span_map_for(
        &mut self,
        site: &DataSite,
        k: usize,
        span: &PlacedSpan,
        values: usize,
        bits: u32,
    ) -> Arc<WeakCellMap> {
        match self.cached_map(site, k, values, bits) {
            Some(map) => map,
            None => self.compute_map(site, k, &span.injector, span.layout, values, bits),
        }
    }

    fn cached_map(
        &self,
        site: &DataSite,
        span: usize,
        values: usize,
        bits: u32,
    ) -> Option<Arc<WeakCellMap>> {
        // Borrowed-key lookup: cloning the `DataSite` (and its name string)
        // on every load would dominate the hit path.
        self.placement.weak_maps.get(site).and_then(|maps| {
            maps.iter()
                .find(|m| (m.span, m.values, m.bits) == (span, values, bits))
                .map(|m| m.map.clone())
        })
    }

    /// Computes (or fetches from the shared cache — the map depends only on
    /// the injector and placement, not the site name, so probes sweeping
    /// per-site error rates share every unchanged map) and records the map
    /// of one placement.
    fn compute_map(
        &mut self,
        site: &DataSite,
        span: usize,
        injector: &Injector,
        layout: Layout,
        values: usize,
        bits: u32,
    ) -> Arc<WeakCellMap> {
        let compute = || injector.weak_map(values, bits, &layout);
        let map = match &self.shared_maps {
            Some(shared) => {
                shared.get_or_compute((injector.fingerprint(), layout, values, bits), compute)
            }
            None => Arc::new(compute()),
        };
        Arc::make_mut(&mut self.placement)
            .weak_maps
            .entry(site.clone())
            .or_default()
            .push(SiteMap {
                span,
                values,
                bits,
                map: map.clone(),
            });
        map
    }

    /// Serves one load of `site` as a sparse [`CorruptionOverlay`] over its
    /// clean stored image instead of mutating a tensor — the O(flips)
    /// counterpart of the [`FaultHook::corrupt`] entry point, consuming the
    /// same load stream, updating the same statistics, and (with bounding
    /// enabled) folding the corrections the full scan would make into the
    /// overlay's masks.
    ///
    /// `clean_corrections` are the [`BoundingLogic::clean_corrections`] of
    /// `clean` under this memory's bounding logic; pass a precomputed slice
    /// on hot paths (they depend only on the clean image and the thresholds,
    /// so a session computes them once per image). When `None` and bounding
    /// is enabled they are derived on the fly.
    ///
    /// Applying the returned overlay to `clean` is bit-identical to calling
    /// `corrupt` on a copy of it at the same point of the load sequence.
    pub fn corrupt_overlay(
        &mut self,
        site: &DataSite,
        clean: &QuantTensor,
        clean_corrections: Option<&[(u32, u32)]>,
    ) -> CorruptionOverlay {
        let load_stream = stream(self.seed, self.next_load);
        self.next_load += 1;
        self.stats.loads += 1;
        let mut overlay = match self.placement.site_spans.get(site).cloned() {
            Some(spans) => self.span_overlay(site, &spans, clean, load_stream),
            None if self.site_is_dirty(site) => {
                let map = self
                    .weak_map_for(site, clean.len(), clean.bits_per_value())
                    .expect("dirty site has an injector");
                let injector = self.placement.injector_for(site).expect("checked dirty");
                injector.overlay_mapped(clean, load_stream, &map)
            }
            None => CorruptionOverlay::empty(clean.len(), clean.bits_per_value()),
        };
        self.stats.bit_flips += overlay.bit_flips();
        if let Some(bounding) = &self.bounding {
            // Same elision as the mutating hook: a fully-plausible integer
            // grid can never produce a correction, so the fold is skipped.
            if !bounding.covers_grid(clean) {
                let computed;
                let corrections = match clean_corrections {
                    Some(c) => c,
                    None => {
                        computed = bounding.clean_corrections(clean);
                        &computed
                    }
                };
                overlay = bounding.fold_overlay(clean, overlay, corrections);
                self.stats.corrections += overlay.corrections();
            }
        }
        overlay
    }

    /// Composes the per-span overlays of one load of a span-placed site into
    /// a single whole-image overlay (see [`SpanComposition`]).
    ///
    /// Span `k` corrupts the clean image's values
    /// `[start_value, start_value + values) ∩ [0, clean.len())` — spans past
    /// the end of a short load are skipped, partial intersections clipped —
    /// from the sub-seed stream `seed_mix(load_stream, k)`. The sub-seed is
    /// indexed by span *position*, so the draw of a span depends only on the
    /// memory seed, the load index and the span list — never on thread
    /// interleaving.
    fn span_overlay(
        &mut self,
        site: &DataSite,
        spans: &[PlacedSpan],
        clean: &QuantTensor,
        load_stream: u64,
    ) -> CorruptionOverlay {
        let values = clean.len();
        let bits = clean.bits_per_value();
        let mut sub_overlays = Vec::with_capacity(spans.len());
        for (k, span) in spans.iter().enumerate() {
            let lo = span.start_value.min(values);
            let hi = (span.start_value + span.values).min(values);
            if lo >= hi || span.injector.is_provably_clean() {
                continue;
            }
            let map = self.span_map_for(site, k, span, hi - lo, bits);
            let sub = map.draw_overlay(
                &clean.stored()[lo..hi],
                seed_mix(load_stream, &[k as u64]),
                span.injector.flip_thresholds(),
            );
            sub_overlays.push(sub.lifted(lo, values));
        }
        match self.span_composition {
            SpanComposition::Merged => {
                let mut composed = CorruptionOverlay::empty(values, bits);
                for sub in sub_overlays {
                    composed.merge(&sub);
                }
                composed
            }
            SpanComposition::Independent => {
                // Apply each span's corruption to a scratch image in turn and
                // diff — the "evaluate every partition's faults separately"
                // reference. Spans are disjoint, so the diff's deltas equal
                // the union of the per-span masks; the flip counters are
                // summed per span because a diff cannot see a span's
                // self-cancelling double flips.
                let mut scratch = clean.clone();
                let mut flips = 0u64;
                let mut corrections = 0u64;
                for sub in sub_overlays {
                    sub.apply(&mut scratch);
                    flips += sub.bit_flips();
                    corrections += sub.corrections();
                }
                let diff = CorruptionOverlay::from_diff(clean, &scratch);
                CorruptionOverlay::new(values, bits, diff.deltas().to_vec(), flips, corrections)
            }
        }
    }

    /// The first layer whose forward computation this memory's error sources
    /// could perturb — the "first dirty layer" of incremental re-evaluation.
    ///
    /// A data site dirties the layer that loads it: a Weight site its own
    /// layer, an Ifm site the layer consuming that activation — both are the
    /// site's `layer_index`. A site is dirty when the injector serving it is
    /// not provably error-free ([`Injector::is_provably_clean`]); a
    /// span-placed site is dirty when *any* of its spans is. Returns
    /// `num_layers` when no site below it is dirty (a fully reliable memory):
    /// every boundary activation is then clean.
    ///
    /// Bounding logic does **not** dirty a prefix: corrections on clean loads
    /// are a deterministic function of the clean data and the thresholds
    /// alone, so activations (and correction counts) at clean boundaries are
    /// identical across probes evaluated under the *same* bounding — which is
    /// why checkpoint consumers key their stores by bounding configuration
    /// rather than consulting it here.
    pub fn first_dirty_layer(&self, num_layers: usize) -> usize {
        let dirty_default = self
            .placement
            .default_injector
            .as_ref()
            .is_some_and(|inj| !inj.is_provably_clean());
        if dirty_default {
            // Every unassigned site (all layers, in general) is dirty.
            return 0;
        }
        let mut first = num_layers;
        for (site, injector) in &self.placement.site_injectors {
            if !injector.is_provably_clean() {
                first = first.min(site.layer_index);
            }
        }
        for (site, spans) in &self.placement.site_spans {
            if spans.iter().any(|s| !s.injector.is_provably_clean()) {
                first = first.min(site.layer_index);
            }
        }
        first
    }

    /// Advances the load cursor past `loads` loads that are known to be
    /// error-free, accounting `corrections` bounding corrections they would
    /// have made — the resume half of incremental re-evaluation.
    ///
    /// Each skipped load consumes exactly one stream index (every load does,
    /// regardless of outcome), flips zero bits (the prefix is provably
    /// clean), and contributes its recorded clean-data correction count. The
    /// memory's subsequent draws are therefore bit-identical to having
    /// served the `loads` prefix loads against clean data.
    pub fn skip_clean_loads(&mut self, loads: u64, corrections: u64) {
        self.next_load += loads;
        self.stats.loads += loads;
        self.stats.corrections += corrections;
    }

    /// Whether a load of `site` can flip bits: it resolves to an injector
    /// that is not provably clean.
    ///
    /// Both load paths gate their layout allocation and weak-map lookup on
    /// this, so a load served by reliable memory (or a provably clean
    /// injector) is a complete no-op apart from its stream index — in
    /// particular it must **not** advance the lazy address allocator.
    /// [`ApproximateMemory::skip_clean_loads`] depends on that: a resumed
    /// lane that skips its clean prefix must leave the allocator exactly
    /// where a full pass over the same prefix would have, or the dirty
    /// sites' layouts (and with them every subsequent draw) would diverge.
    fn site_is_dirty(&self, site: &DataSite) -> bool {
        self.placement
            .injector_for(site)
            .is_some_and(|inj| !inj.is_provably_clean())
    }

    fn layout_for(&mut self, site: &DataSite, total_bits: u64) -> Layout {
        if let Some(layout) = self.placement.site_layouts.get(site) {
            return *layout;
        }
        let state = Arc::make_mut(&mut self.placement);
        let layout = state.allocator.allocate(total_bits);
        state.site_layouts.insert(site.clone(), layout);
        layout
    }
}

impl FaultHook for ApproximateMemory {
    fn corrupt(&mut self, site: &DataSite, tensor: &mut QuantTensor) {
        let load_stream = stream(self.seed, self.next_load);
        self.next_load += 1;
        self.stats.loads += 1;
        if let Some(spans) = self.placement.site_spans.get(site).cloned() {
            // The tensor's bits are the clean image at load time, so
            // composing the per-span overlays against them and applying the
            // result equals corrupting each span's slice in place.
            let overlay = self.span_overlay(site, &spans, tensor, load_stream);
            self.stats.bit_flips += overlay.bit_flips();
            overlay.apply(tensor);
        } else if self.site_is_dirty(site) {
            let map = self
                .weak_map_for(site, tensor.len(), tensor.bits_per_value())
                .expect("dirty site has an injector");
            let injector = self.placement.injector_for(site).expect("checked dirty");
            self.stats.bit_flips += injector.corrupt_mapped(tensor, load_stream, &map);
        }
        if let Some(bounding) = &self.bounding {
            // Integer tensors whose whole quantization grid is plausible can
            // never hold a correctable value (every corrupted word is still
            // on the grid), so the O(values) scan is skipped outright — the
            // common case for calibrated thresholds, and what keeps the
            // per-sample IFM loads O(weak cells) end to end.
            if !bounding.covers_grid(tensor) {
                self.stats.corrections += bounding.correct(tensor) as u64;
            }
        }
    }
}

impl std::fmt::Debug for ApproximateMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ApproximateMemory(default: {}, {} site overrides, {} span placements, stats: {:?})",
            self.placement
                .default_injector
                .as_ref()
                .map(|i| format!("BER {:.2e}", i.expected_ber()))
                .unwrap_or_else(|| "reliable".to_string()),
            self.placement.site_injectors.len(),
            self.placement.site_spans.len(),
            self.stats
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounding::CorrectionPolicy;
    use eden_dnn::DataKind;
    use eden_tensor::{Precision, Tensor};

    fn site(i: usize, kind: DataKind) -> DataSite {
        DataSite::new(i, format!("layer{i}"), kind)
    }

    fn stored(n: usize) -> QuantTensor {
        QuantTensor::quantize(
            &Tensor::from_vec((0..n).map(|i| (i as f32 * 0.11).sin()).collect(), &[n]),
            Precision::Int8,
        )
    }

    #[test]
    fn weak_map_cache_is_bounded() {
        let cache = WeakMapCache::new();
        let model = ErrorModel::uniform(0.02, 0.5, 1);
        // Distinct fingerprints simulate a long sweep of rejected candidate
        // BERs; the cache must evict at the cap instead of growing forever.
        for i in 0..(WeakMapCache::MAX_ENTRIES + 10) as u64 {
            let key = (i, Layout::default(), 64, 8);
            cache.get_or_compute(key, || model.weak_map(64, 8, &Layout::default()));
        }
        assert!(cache.len() <= WeakMapCache::MAX_ENTRIES);
        assert!(!cache.is_empty());
        let counters = cache.counters();
        assert_eq!(counters.hits, 0);
        assert_eq!(counters.misses, (WeakMapCache::MAX_ENTRIES + 10) as u64);
    }

    #[test]
    fn weak_map_cache_eviction_preserves_hot_entries() {
        // The regression this pins: the cap used to wipe the *entire* cache,
        // evicting the hot currently-accepted maps alongside dead
        // rejected-candidate entries and triggering recompute storms
        // mid-sweep. Eviction must now preserve recently-used entries: a key
        // that is touched throughout a flood of one-shot inserts survives
        // the overflow without ever being recomputed.
        let cache = WeakMapCache::new();
        let model = ErrorModel::uniform(0.02, 0.5, 1);
        let layout = Layout::default();
        let hot = (u64::MAX, layout, 64, 8);
        let mut hot_computes = 0usize;
        cache.get_or_compute(hot, || {
            hot_computes += 1;
            model.weak_map(64, 8, &layout)
        });
        // Flood well past the cap, re-touching the hot key all along (every
        // probe of an in-flight sweep re-reads its accepted maps).
        for i in 0..(2 * WeakMapCache::MAX_ENTRIES) as u64 {
            let key = (i, layout, 64, 8);
            cache.get_or_compute(key, || model.weak_map(64, 8, &layout));
            if i % 64 == 0 {
                cache.get_or_compute(hot, || {
                    hot_computes += 1;
                    model.weak_map(64, 8, &layout)
                });
            }
        }
        assert_eq!(
            hot_computes, 1,
            "hot key must survive every overflow without recomputation"
        );
        assert!(cache.len() <= WeakMapCache::MAX_ENTRIES);
        // Eviction kept roughly the recent half, not a single survivor.
        assert!(cache.len() > WeakMapCache::MAX_ENTRIES / 4);
        assert!(cache.counters().hits > 0);
    }

    #[test]
    fn weak_map_cache_race_on_a_present_key_evicts_nothing() {
        // Two probes miss on the same key; the second's insert finds the
        // first's map already resident. With the cache at its cap, that
        // insert must keep the resident map and evict nothing (it used to
        // evict half the cache before discovering the key was present).
        let cache = WeakMapCache::new();
        let model = ErrorModel::uniform(0.02, 0.5, 1);
        let layout = Layout::default();
        for i in 0..(WeakMapCache::MAX_ENTRIES - 1) as u64 {
            cache.get_or_compute((i, layout, 64, 8), || model.weak_map(64, 8, &layout));
        }
        let raced = (u64::MAX, layout, 64, 8);
        let mut winner = None;
        let loser = cache.get_or_compute(raced, || {
            // The racing probe completes its insert while this one computes
            // outside the lock, filling the cache to its cap.
            winner = Some(cache.get_or_compute(raced, || model.weak_map(64, 8, &layout)));
            model.weak_map(64, 8, &layout)
        });
        assert!(Arc::ptr_eq(&loser, &winner.unwrap()), "first insert wins");
        assert_eq!(cache.len(), WeakMapCache::MAX_ENTRIES);
        let counters = cache.counters();
        assert_eq!(counters.evictions, 0);
        assert_eq!(counters.misses, WeakMapCache::MAX_ENTRIES as u64 + 1);
        assert_eq!(counters.resident, WeakMapCache::MAX_ENTRIES as u64);
    }

    #[test]
    fn reliable_memory_never_corrupts() {
        let mut mem = ApproximateMemory::reliable(0);
        let clean = stored(512);
        let mut t = clean.clone();
        mem.corrupt(&site(0, DataKind::Weight), &mut t);
        assert_eq!(t, clean);
        assert_eq!(mem.stats().bit_flips, 0);
        assert_eq!(mem.stats().loads, 1);
    }

    #[test]
    fn model_backed_memory_flips_bits() {
        let mut mem = ApproximateMemory::from_model(ErrorModel::uniform(0.02, 0.5, 1), 2);
        let clean = stored(4096);
        let mut t = clean.clone();
        mem.corrupt(&site(0, DataKind::Ifm), &mut t);
        assert!(mem.stats().bit_flips > 0);
        assert_eq!(clean.bit_differences(&t), mem.stats().bit_flips);
    }

    #[test]
    fn different_sites_get_different_addresses() {
        let mut mem = ApproximateMemory::from_model(ErrorModel::uniform(0.02, 1.0, 3), 4);
        let clean = stored(2048);
        let mut a = clean.clone();
        let mut b = clean.clone();
        mem.corrupt(&site(0, DataKind::Weight), &mut a);
        mem.corrupt(&site(1, DataKind::Weight), &mut b);
        // With deterministic weak cells (F = 1), identical data corrupted at
        // different addresses must differ.
        assert_ne!(a, b);
    }

    #[test]
    fn same_site_reuses_its_address() {
        let mut mem = ApproximateMemory::from_model(ErrorModel::uniform(0.02, 1.0, 5), 6);
        let clean = stored(2048);
        let mut a = clean.clone();
        let mut b = clean.clone();
        let s = site(2, DataKind::Weight);
        mem.corrupt(&s, &mut a);
        mem.corrupt(&s, &mut b);
        // Same weak cells, F = 1 → identical corruption.
        assert_eq!(a, b);
    }

    #[test]
    fn site_overrides_take_precedence() {
        let mut mem = ApproximateMemory::from_model(ErrorModel::uniform(0.05, 1.0, 7), 8);
        let quiet_site = site(3, DataKind::Weight);
        mem.assign_site(
            quiet_site.clone(),
            Injector::from_model(ErrorModel::uniform(0.0, 0.0, 7)),
        );
        let clean = stored(2048);
        let mut protected = clean.clone();
        mem.corrupt(&quiet_site, &mut protected);
        assert_eq!(protected, clean, "site mapped to an error-free partition");
        let mut unprotected = clean.clone();
        mem.corrupt(&site(4, DataKind::Weight), &mut unprotected);
        assert_ne!(unprotected, clean);
    }

    #[test]
    fn same_lane_forks_replay_identically_and_lanes_differ() {
        let base = ApproximateMemory::from_model(ErrorModel::uniform(0.02, 0.5, 1), 9);
        let clean = stored(4096);
        let run = |mut mem: ApproximateMemory| {
            let mut t = clean.clone();
            mem.corrupt(&site(0, DataKind::Ifm), &mut t);
            t
        };
        assert_eq!(run(base.fork(3)), run(base.fork(3)));
        assert_ne!(run(base.fork(3)), run(base.fork(4)));
        // Forking must not perturb the parent's own stream: the parent
        // corrupts identically whether or not forks were taken.
        let mut a = base.clone();
        let mut b = base.clone();
        let _ = b.fork(0);
        let mut ta = clean.clone();
        let mut tb = clean.clone();
        a.corrupt(&site(1, DataKind::Weight), &mut ta);
        b.corrupt(&site(1, DataKind::Weight), &mut tb);
        assert_eq!(ta, tb);
    }

    #[test]
    fn cursors_split_the_parent_load_sequence_exactly() {
        // Seven loads alternating over two sites, served in turn by one
        // memory, against: the first two on the parent (placing both
        // sites), loads 2-3 and 4-5 on cursors 0 and 2 ahead, then the
        // parent merged and advanced past them for load 6.
        let model = ErrorModel::uniform(0.02, 0.5, 1).with_ber(5e-2);
        let sites = [site(0, DataKind::Ifm), site(1, DataKind::Ifm)];
        let clean = stored(2048);
        let load = |mem: &mut ApproximateMemory, k: usize| {
            let mut t = clean.clone();
            mem.corrupt(&sites[k % 2], &mut t);
            t
        };
        let mut sequential = ApproximateMemory::from_model(model, 4);
        let expected: Vec<QuantTensor> = (0..7).map(|k| load(&mut sequential, k)).collect();

        let mut parent = ApproximateMemory::from_model(model, 4);
        let mut actual: Vec<QuantTensor> = (0..2).map(|k| load(&mut parent, k)).collect();
        let mut cursors = [parent.cursor(0), parent.cursor(2)];
        for (c, cursor) in cursors.iter_mut().enumerate() {
            assert_eq!(cursor.stats(), MemoryStats::default());
            for k in 2 + 2 * c..4 + 2 * c {
                actual.push(load(cursor, k));
            }
        }
        for cursor in &cursors {
            parent.merge_stats(cursor.stats());
        }
        parent.advance(4);
        actual.push(load(&mut parent, 6));
        assert_eq!(actual, expected);
        assert_eq!(parent.stats(), sequential.stats());
        assert!(parent.stats().bit_flips > 0);
    }

    #[test]
    fn one_memory_serves_loads_at_several_precisions() {
        // The weak-map cache is keyed by (site, length, bits): the same
        // memory corrupting the same site at different precisions (or the
        // same precision with different tensor lengths, as a layer's weight
        // and bias do) must not mix up maps — and each mapped corruption
        // must equal the unmapped full scan.
        let model = ErrorModel::uniform(0.05, 0.5, 4);
        let s = site(0, DataKind::Weight);
        let values = Tensor::from_vec((0..512).map(|i| (i as f32 * 0.3).sin()).collect(), &[512]);
        for precision in [Precision::Int8, Precision::Int4, Precision::Int16] {
            let mut mem = ApproximateMemory::from_model(model, 9);
            // Prime the cache at a different precision and length first.
            let mut primer = QuantTensor::quantize(&values, Precision::Int8);
            mem.corrupt(&s, &mut primer);
            let mut small = QuantTensor::quantize(
                &Tensor::from_vec(values.data()[..100].to_vec(), &[100]),
                precision,
            );
            mem.corrupt(&s, &mut small);
            let mut full = QuantTensor::quantize(&values, precision);
            mem.corrupt(&s, &mut full);
            assert!(mem.stats().loads == 3, "{precision}");
        }
    }

    #[test]
    fn corrupt_overlay_matches_hook_corruption() {
        // The overlay form of a load must equal the mutating form at every
        // position of the load sequence — same bits, same statistics — with
        // and without bounding, for model-backed and reliable memory.
        let model = ErrorModel::data_dependent(0.03, 0.8, 0.2, 5);
        let bounding = BoundingLogic::new(-0.6, 0.6, CorrectionPolicy::Zero);
        let clean = stored(6000);
        for with_bounding in [false, true] {
            let make = || {
                let mem = ApproximateMemory::from_model(model, 11);
                if with_bounding {
                    mem.with_bounding(bounding)
                } else {
                    mem
                }
            };
            let mut via_hook = make();
            let mut via_overlay = make();
            for (i, kind) in [DataKind::Weight, DataKind::Ifm, DataKind::Weight]
                .into_iter()
                .enumerate()
            {
                let s = site(i % 2, kind);
                let mut corrupted = clean.clone();
                via_hook.corrupt(&s, &mut corrupted);
                let overlay = via_overlay.corrupt_overlay(&s, &clean, None);
                let mut patched = clean.clone();
                overlay.apply(&mut patched);
                assert_eq!(patched, corrupted, "load {i}, bounding={with_bounding}");
                assert_eq!(
                    via_hook.stats(),
                    via_overlay.stats(),
                    "load {i}, bounding={with_bounding}"
                );
            }
            assert!(via_hook.stats().bit_flips > 0);
            if with_bounding {
                assert!(via_hook.stats().corrections > 0);
            }
        }
        // Reliable memory with bounding: the overlay still carries the
        // clean-image corrections the scan would make.
        let outliers = {
            let mut v: Vec<f32> = (0..256).map(|i| (i as f32 * 0.1).sin() * 0.3).collect();
            v[7] = 100.0;
            QuantTensor::quantize(&Tensor::from_vec(v, &[256]), Precision::Fp32)
        };
        let mut reliable = ApproximateMemory::reliable(0).with_bounding(bounding);
        let overlay = reliable.corrupt_overlay(&site(0, DataKind::Weight), &outliers, None);
        assert_eq!(overlay.bit_flips(), 0);
        assert_eq!(overlay.corrections(), 1);
        assert_eq!(reliable.stats().corrections, 1);
        let mut patched = outliers.clone();
        overlay.apply(&mut patched);
        let mut scanned = outliers.clone();
        reliable.corrupt(&site(0, DataKind::Weight), &mut scanned);
        assert_eq!(patched, scanned);
    }

    #[test]
    fn merge_stats_accumulates_fork_counters() {
        let mut mem = ApproximateMemory::from_model(ErrorModel::uniform(0.02, 0.5, 2), 3);
        let mut fork = mem.fork(0);
        let mut t = stored(4096);
        fork.corrupt(&site(0, DataKind::Ifm), &mut t);
        let flips = fork.stats().bit_flips;
        assert!(flips > 0);
        mem.merge_stats(fork.stats());
        mem.merge_stats(fork.stats());
        assert_eq!(mem.stats().loads, 2);
        assert_eq!(mem.stats().bit_flips, 2 * flips);
    }

    /// A model-backed span over `[start, start + values)` with its own BER,
    /// seed and DRAM placement (one row per ~2 KB, offset so spans never
    /// share weak rows).
    fn span(start: usize, values: usize, ber: f64, seed: u64) -> PlacedSpan {
        PlacedSpan {
            injector: Injector::from_model(ErrorModel::uniform(ber, 0.5, seed)),
            start_value: start,
            values,
            layout: Layout::new(2048 * 8, start / 64),
        }
    }

    fn span_memory(composition: SpanComposition) -> (ApproximateMemory, DataSite) {
        let s = site(0, DataKind::Weight);
        let mut mem = ApproximateMemory::reliable(17).with_span_composition(composition);
        mem.assign_site_spans(
            s.clone(),
            vec![
                span(0, 1500, 0.03, 31),
                span(1500, 2000, 0.0, 32), // error-free middle partition
                span(3500, 2500, 0.09, 33),
            ],
        );
        (mem, s)
    }

    #[test]
    fn span_merge_matches_independent_reference() {
        // The production merge composition must be bit-identical — bits and
        // statistics — to the reference that applies every span's corruption
        // separately, at full and clipped load lengths.
        for len in [6000, 2000, 900] {
            let clean = stored(len);
            let (mut merged, s) = span_memory(SpanComposition::Merged);
            let (mut independent, _) = span_memory(SpanComposition::Independent);
            for load in 0..3 {
                let a = merged.corrupt_overlay(&s, &clean, None);
                let b = independent.corrupt_overlay(&s, &clean, None);
                assert_eq!(a.deltas(), b.deltas(), "load {load}, len {len}");
                assert_eq!(a.bit_flips(), b.bit_flips(), "load {load}, len {len}");
                assert_eq!(
                    merged.stats(),
                    independent.stats(),
                    "load {load}, len {len}"
                );
            }
            assert!(merged.stats().bit_flips > 0, "len {len}");
        }
    }

    #[test]
    fn span_overlay_load_matches_hook_corruption() {
        // The O(flips) overlay form of a span-placed load must equal the
        // mutating hook at every position of the load sequence, with and
        // without bounding.
        let bounding = BoundingLogic::new(-0.6, 0.6, CorrectionPolicy::Zero);
        let clean = stored(6000);
        for with_bounding in [false, true] {
            let make = || {
                let (mem, s) = span_memory(SpanComposition::Merged);
                let mem = if with_bounding {
                    mem.with_bounding(bounding)
                } else {
                    mem
                };
                (mem, s)
            };
            let (mut via_hook, s) = make();
            let (mut via_overlay, _) = make();
            for load in 0..3 {
                let mut corrupted = clean.clone();
                via_hook.corrupt(&s, &mut corrupted);
                let overlay = via_overlay.corrupt_overlay(&s, &clean, None);
                let mut patched = clean.clone();
                overlay.apply(&mut patched);
                assert_eq!(patched, corrupted, "load {load}, bounding={with_bounding}");
                assert_eq!(
                    via_hook.stats(),
                    via_overlay.stats(),
                    "load {load}, bounding={with_bounding}"
                );
            }
            assert!(via_hook.stats().bit_flips > 0);
        }
    }

    #[test]
    fn span_forks_replay_identically_and_lanes_differ() {
        let (base, s) = span_memory(SpanComposition::Merged);
        let clean = stored(6000);
        let run = |mut mem: ApproximateMemory| {
            let overlay = mem.corrupt_overlay(&s, &clean, None);
            let mut t = clean.clone();
            overlay.apply(&mut t);
            t
        };
        assert_eq!(run(base.fork(3)), run(base.fork(3)));
        assert_ne!(run(base.fork(3)), run(base.fork(4)));
    }

    #[test]
    fn error_free_span_stays_clean() {
        // Values covered by the error-free middle span must never change,
        // while both neighbouring spans corrupt.
        let (mut mem, s) = span_memory(SpanComposition::Merged);
        let clean = stored(6000);
        let overlay = mem.corrupt_overlay(&s, &clean, None);
        assert!(overlay.bit_flips() > 0);
        assert!(
            overlay
                .deltas()
                .iter()
                .all(|&(w, _)| !(1500..3500).contains(&(w as usize))),
            "flips leaked into the error-free span"
        );
    }

    #[test]
    #[should_panic]
    fn gapped_spans_rejected() {
        let mut mem = ApproximateMemory::reliable(0);
        mem.assign_site_spans(
            site(0, DataKind::Weight),
            vec![span(0, 100, 0.01, 1), span(150, 100, 0.01, 2)],
        );
    }

    #[test]
    fn first_dirty_layer_tracks_the_lowest_dirty_site() {
        let clean_inj = Injector::from_model(ErrorModel::uniform(0.05, 0.5, 3).with_ber(0.0));
        let dirty_inj = Injector::from_model(ErrorModel::uniform(0.01, 0.5, 3));

        // Reliable memory: nothing is ever dirty.
        let mut mem = ApproximateMemory::reliable(0);
        assert_eq!(mem.first_dirty_layer(5), 5);

        // A provably clean per-site override stays clean.
        mem.assign_site(site(1, DataKind::Weight), clean_inj.clone());
        assert_eq!(mem.first_dirty_layer(5), 5);

        // Dirty overrides: the minimum layer index wins, for both kinds.
        mem.assign_site(site(3, DataKind::Ifm), dirty_inj.clone());
        assert_eq!(mem.first_dirty_layer(5), 3);
        mem.assign_site(site(2, DataKind::Weight), dirty_inj.clone());
        assert_eq!(mem.first_dirty_layer(5), 2);

        // A dirty default injector dirties everything.
        let coarse = ApproximateMemory::from_model(ErrorModel::uniform(0.01, 0.5, 1), 0);
        assert_eq!(coarse.first_dirty_layer(5), 0);
        // …but a zero-BER default is provably clean.
        let zeroed = ApproximateMemory::from_injector(clean_inj.clone(), 0);
        assert_eq!(zeroed.first_dirty_layer(5), 5);

        // Span placements: dirty iff any span is dirty.
        let mut spanned = ApproximateMemory::reliable(1);
        spanned.assign_site_spans(
            site(4, DataKind::Weight),
            vec![span(0, 100, 0.0, 1), span(100, 100, 0.0, 2)],
        );
        assert_eq!(spanned.first_dirty_layer(6), 6);
        spanned.assign_site_spans(
            site(2, DataKind::Weight),
            vec![span(0, 100, 0.0, 1), span(100, 100, 0.02, 2)],
        );
        assert_eq!(spanned.first_dirty_layer(6), 2);
    }

    #[test]
    fn skip_clean_loads_matches_serving_clean_prefix_loads() {
        // Serving N loads through reliable sites, then a dirty one, must be
        // bit-identical to skipping the N clean loads and serving only the
        // dirty one — same draw, same statistics.
        let dirty_site = site(3, DataKind::Ifm);
        let make = || {
            let mut mem = ApproximateMemory::reliable(21);
            mem.assign_site(
                dirty_site.clone(),
                Injector::from_model(ErrorModel::uniform(0.02, 0.5, 5)),
            );
            mem
        };
        let clean = stored(4096);
        let mut served = make();
        for i in 0..3 {
            let mut t = clean.clone();
            served.corrupt(&site(i, DataKind::Ifm), &mut t);
            assert_eq!(t, clean, "prefix load {i} must be clean");
        }
        let mut via_serve = clean.clone();
        served.corrupt(&dirty_site, &mut via_serve);

        let mut skipped = make();
        skipped.skip_clean_loads(3, 0);
        let mut via_skip = clean.clone();
        skipped.corrupt(&dirty_site, &mut via_skip);

        assert_eq!(via_skip, via_serve);
        assert_eq!(skipped.stats(), served.stats());
        assert!(skipped.stats().bit_flips > 0);
        assert_eq!(skipped.stats().loads, 4);
    }

    #[test]
    fn bounding_corrects_fp32_explosions() {
        let model = ErrorModel::uniform(0.01, 0.8, 11);
        let mut mem = ApproximateMemory::from_model(model, 12).with_bounding(BoundingLogic::new(
            -16.0,
            16.0,
            CorrectionPolicy::Zero,
        ));
        let t = Tensor::from_vec(
            (0..2048).map(|i| (i as f32 * 0.01).sin()).collect(),
            &[2048],
        );
        let mut q = QuantTensor::quantize(&t, Precision::Fp32);
        mem.corrupt(&site(0, DataKind::Weight), &mut q);
        let max = q.dequantize().abs_max();
        assert!(
            max <= 16.0,
            "bounding must cap corrupted magnitudes, got {max}"
        );
    }
}
