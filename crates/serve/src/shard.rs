//! Session sharding: one hot [`EvalSession`] per distinct serving
//! configuration, pooled with LRU eviction.
//!
//! A shard is keyed by `(model id, precision, backend, error-model template
//! fingerprint)` — exactly the state an `EvalSession` amortizes. Requests
//! that differ only in BER, memory seed or sample slice land on the same
//! shard and share its clean bit images, weak-map cache and scratch arenas;
//! the per-request `ApproximateMemory` carries everything that varies.
//!
//! The pool holds `Arc<OnceLock<Arc<Shard>>>` slots so the map lock is
//! released before any model training or session construction runs: two
//! racing requests for the same new key serialize on the slot's `OnceLock`
//! while requests for other keys proceed. Eviction removes the
//! least-recently-used slot (by logical tick, for determinism); in-flight
//! requests keep an evicted shard alive through their own `Arc` and simply
//! finish on it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use eden_core::faults::CacheCounters;
use eden_core::inference::InferenceBackend;
use eden_core::session::{BatchCounters, CheckpointCounters, EvalSession};
use eden_dnn::zoo::{ModelId, ModelZoo};
use eden_dnn::SyntheticVision;
use eden_tensor::Precision;

use crate::protocol::EvalSpec;

/// Identity of a session shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardKey {
    /// Zoo model served by the shard.
    pub model: ModelId,
    /// Stored-data precision.
    pub precision: Precision,
    /// Execution backend.
    pub backend: InferenceBackend,
    /// [`eden_dram::ErrorModel::fingerprint`] of the pre-BER template, or 0
    /// for reliable-memory evaluation.
    pub model_fingerprint: u64,
}

impl ShardKey {
    /// The shard key a request spec maps to.
    pub fn for_spec(spec: &EvalSpec) -> Result<ShardKey, String> {
        let model_fingerprint = match &spec.error_model {
            None => 0,
            Some(e) => e.template()?.fingerprint(),
        };
        Ok(ShardKey {
            model: spec.model,
            precision: spec.precision,
            backend: spec.backend,
            model_fingerprint,
        })
    }
}

/// One live serving shard: a hot session plus the dataset requests slice
/// their samples from.
pub struct Shard {
    /// The shard's identity.
    pub key: ShardKey,
    /// The shared session; requests evaluate through
    /// [`EvalSession::evaluate_concurrent`].
    pub session: EvalSession<'static>,
    /// The model's dataset (test split served to requests).
    pub dataset: Arc<SyntheticVision>,
}

struct SlotEntry {
    cell: Arc<OnceLock<Arc<Shard>>>,
    last_used: u64,
}

struct PoolState {
    slots: HashMap<ShardKey, SlotEntry>,
    tick: u64,
}

/// Snapshot of the pool's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Lookups that found a live shard.
    pub hits: u64,
    /// Lookups that had to build a shard.
    pub misses: u64,
    /// Shards evicted by the LRU policy.
    pub evictions: u64,
    /// Shards currently pooled.
    pub live: usize,
}

/// The LRU pool of session shards.
pub struct SessionPool {
    zoo: Arc<ModelZoo>,
    capacity: usize,
    state: Mutex<PoolState>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl SessionPool {
    /// Creates a pool holding at most `capacity` live shards, building
    /// networks through `zoo`.
    pub fn new(zoo: Arc<ModelZoo>, capacity: usize) -> Self {
        SessionPool {
            zoo,
            capacity: capacity.max(1),
            state: Mutex::new(PoolState {
                slots: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The zoo the pool builds shards from.
    pub fn zoo(&self) -> &Arc<ModelZoo> {
        &self.zoo
    }

    /// The shard for `key`, building it (and possibly evicting the
    /// least-recently-used shard) on a miss. Model training and session
    /// construction run outside the pool lock; concurrent requests for the
    /// same new key serialize on the slot's `OnceLock`, so each shard is
    /// built exactly once.
    pub fn get_or_build(&self, key: ShardKey) -> Arc<Shard> {
        self.get_or_build_traced(key).0
    }

    /// Like [`SessionPool::get_or_build`], also reporting whether the lookup
    /// hit a live shard (for per-request cache attribution in responses).
    pub fn get_or_build_traced(&self, key: ShardKey) -> (Arc<Shard>, bool) {
        let cell = {
            let mut state = self.state.lock().unwrap();
            state.tick += 1;
            let tick = state.tick;
            if let Some(entry) = state.slots.get_mut(&key) {
                entry.last_used = tick;
                let cell = entry.cell.clone();
                drop(state);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (self.init(cell, key), true);
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
            if state.slots.len() >= self.capacity {
                self.evict_lru(&mut state);
            }
            let cell = Arc::new(OnceLock::new());
            state.slots.insert(
                key,
                SlotEntry {
                    cell: cell.clone(),
                    last_used: tick,
                },
            );
            cell
        };
        (self.init(cell, key), false)
    }

    fn init(&self, cell: Arc<OnceLock<Arc<Shard>>>, key: ShardKey) -> Arc<Shard> {
        cell.get_or_init(|| {
            let entry = self.zoo.get(key.model);
            let session = EvalSession::new_shared(entry.net, key.precision, key.backend);
            Arc::new(Shard {
                key,
                session,
                dataset: entry.dataset,
            })
        })
        .clone()
    }

    /// Evicts the least-recently-used slot. Requests still holding the
    /// shard's `Arc` finish on it; if the pool held the last reference, the
    /// session's transient probe state is released immediately so the memory
    /// comes back before the `Arc` drops.
    fn evict_lru(&self, state: &mut PoolState) {
        let Some(victim) = state
            .slots
            .iter()
            .min_by_key(|(_, entry)| entry.last_used)
            .map(|(key, _)| *key)
        else {
            return;
        };
        let entry = state.slots.remove(&victim).unwrap();
        self.evictions.fetch_add(1, Ordering::Relaxed);
        if let Ok(lock) = Arc::try_unwrap(entry.cell) {
            if let Some(mut shard) = lock.into_inner().and_then(|a| Arc::try_unwrap(a).ok()) {
                shard.session.release_transient_state();
            }
        }
    }

    /// The pool's hit/miss/eviction counters.
    pub fn counters(&self) -> PoolCounters {
        PoolCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            live: self.state.lock().unwrap().slots.len(),
        }
    }

    /// Weak-map cache hits/misses summed over the live shards.
    pub fn weak_map_counters(&self) -> CacheCounters {
        let state = self.state.lock().unwrap();
        let mut total = CacheCounters { hits: 0, misses: 0 };
        for entry in state.slots.values() {
            if let Some(shard) = entry.cell.get() {
                let c = shard.session.weak_map_cache().counters();
                total.hits += c.hits;
                total.misses += c.misses;
            }
        }
        total
    }

    /// Clean-activation checkpoint counters summed over the live shards
    /// (incremental re-evaluation: resumed lanes / cold lanes / evicted
    /// checkpoints / bytes currently resident across every shard's store).
    pub fn checkpoint_counters(&self) -> CheckpointCounters {
        let state = self.state.lock().unwrap();
        let mut total = CheckpointCounters::default();
        for entry in state.slots.values() {
            if let Some(shard) = entry.cell.get() {
                let c = shard.session.checkpoint_counters();
                total.hits += c.hits;
                total.misses += c.misses;
                total.evictions += c.evictions;
                total.resident_bytes += c.resident_bytes;
            }
        }
        total
    }

    /// Batch-group counters summed over the live shards (weight-stationary
    /// batching: multi-sample groups formed, samples executed batched,
    /// samples that ran as a group of one).
    pub fn batch_counters(&self) -> BatchCounters {
        let state = self.state.lock().unwrap();
        let mut total = BatchCounters::default();
        for entry in state.slots.values() {
            if let Some(shard) = entry.cell.get() {
                let c = shard.session.batch_counters();
                total.groups += c.groups;
                total.batched_samples += c.batched_samples;
                total.fallback_samples += c.fallback_samples;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ErrorSpec;

    fn spec(model: ModelId, precision: Precision) -> EvalSpec {
        EvalSpec {
            model,
            precision,
            backend: InferenceBackend::default(),
            error_model: Some(ErrorSpec::default()),
            start: 0,
            count: 4,
            seed: 11,
            timeout_ms: None,
        }
    }

    #[test]
    fn shard_keys_ignore_ber_but_not_the_template() {
        let base = spec(ModelId::LeNet, Precision::Int8);
        let mut other_kind = base.clone();
        other_kind.error_model = Some(ErrorSpec {
            kind: "bitline".to_string(),
            ..ErrorSpec::default()
        });
        let mut other_seed = base.clone();
        other_seed.seed = 99; // memory seed: not part of the shard key
        assert_eq!(
            ShardKey::for_spec(&base).unwrap(),
            ShardKey::for_spec(&other_seed).unwrap()
        );
        assert_ne!(
            ShardKey::for_spec(&base).unwrap(),
            ShardKey::for_spec(&other_kind).unwrap()
        );
        let mut reliable = base.clone();
        reliable.error_model = None;
        assert_eq!(ShardKey::for_spec(&reliable).unwrap().model_fingerprint, 0);
    }

    #[test]
    fn pool_reuses_shards_and_evicts_the_coldest() {
        let zoo = Arc::new(ModelZoo::new(1, 3));
        let pool = SessionPool::new(zoo, 2);
        let k8 = ShardKey::for_spec(&spec(ModelId::LeNet, Precision::Int8)).unwrap();
        let k4 = ShardKey::for_spec(&spec(ModelId::LeNet, Precision::Int4)).unwrap();
        let k16 = ShardKey::for_spec(&spec(ModelId::LeNet, Precision::Int16)).unwrap();

        let a = pool.get_or_build(k8);
        let b = pool.get_or_build(k8);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one shard");
        pool.get_or_build(k4);
        pool.get_or_build(k8); // refresh k8 so k4 is the LRU victim
        pool.get_or_build(k16); // capacity 2: evicts k4
        let c = pool.get_or_build(k8);
        assert!(Arc::ptr_eq(&a, &c), "hot shard must survive the eviction");

        let counters = pool.counters();
        assert_eq!(counters.misses, 3, "k8, k4, k16 each built once");
        assert_eq!(counters.hits, 3);
        assert_eq!(counters.evictions, 1);
        assert_eq!(counters.live, 2);
        // The zoo built the network once even though three shards used it.
        assert_eq!(pool.zoo().models_built(), 1);
    }
}
