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
//! least-recently-used slot ([`BudgetedLru`], exact and deterministic);
//! in-flight requests keep an evicted shard alive through their own `Arc`
//! and simply finish on it.

use std::sync::{Arc, Mutex, OnceLock};

use eden_core::faults::CacheCounters;
use eden_core::inference::InferenceBackend;
use eden_core::lru::BudgetedLru;
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
    /// [`EvalSession::evaluate_with_faults`].
    pub session: EvalSession<'static>,
    /// The model's dataset (test split served to requests).
    pub dataset: Arc<SyntheticVision>,
}

/// A pooled shard slot: filled once by whichever request builds the shard.
type ShardCell = Arc<OnceLock<Arc<Shard>>>;

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

/// The LRU pool of session shards: a [`BudgetedLru`] in which every shard
/// costs 1 and the budget is the shard capacity.
pub struct SessionPool {
    zoo: Arc<ModelZoo>,
    slots: Mutex<BudgetedLru<ShardKey, ShardCell>>,
}

impl SessionPool {
    /// Creates a pool holding at most `capacity` live shards, building
    /// networks through `zoo`.
    pub fn new(zoo: Arc<ModelZoo>, capacity: usize) -> Self {
        SessionPool {
            zoo,
            slots: Mutex::new(BudgetedLru::new(capacity.max(1))),
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
        let (cell, hit, evicted) = {
            let mut slots = self.slots.lock().unwrap();
            match slots.get(&key).cloned() {
                Some(cell) => (cell, true, Vec::new()),
                None => {
                    let (cell, evicted) = slots.insert_with(key, || (ShardCell::default(), 1));
                    (cell, false, evicted)
                }
            }
        };
        evicted.into_iter().for_each(release);
        (self.init(cell, key), hit)
    }

    fn init(&self, cell: ShardCell, key: ShardKey) -> Arc<Shard> {
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

    /// The pool's hit/miss/eviction counters.
    pub fn counters(&self) -> PoolCounters {
        let slots = self.slots.lock().unwrap();
        let c = slots.counters();
        PoolCounters {
            hits: c.hits,
            misses: c.misses,
            evictions: c.evictions,
            live: slots.len(),
        }
    }

    /// Weak-map cache counters summed over the live shards.
    pub fn weak_map_counters(&self) -> CacheCounters {
        self.sum_over_shards(|total: &mut CacheCounters, shard| {
            let c = shard.session.weak_map_cache().counters();
            total.hits += c.hits;
            total.misses += c.misses;
            total.evictions += c.evictions;
            total.resident += c.resident;
        })
    }

    /// Clean-activation checkpoint counters summed over the live shards
    /// (incremental re-evaluation: resumed lanes / cold lanes / evicted
    /// checkpoints / bytes currently resident across every shard's store).
    pub fn checkpoint_counters(&self) -> CheckpointCounters {
        self.sum_over_shards(|total: &mut CheckpointCounters, shard| {
            let c = shard.session.checkpoint_counters();
            total.hits += c.hits;
            total.misses += c.misses;
            total.evictions += c.evictions;
            total.resident_bytes += c.resident_bytes;
        })
    }

    /// Batch-group counters summed over the live shards (weight-stationary
    /// batching: multi-sample groups formed, samples executed batched,
    /// samples that ran as a group of one).
    pub fn batch_counters(&self) -> BatchCounters {
        self.sum_over_shards(|total: &mut BatchCounters, shard| {
            let c = shard.session.batch_counters();
            total.groups += c.groups;
            total.batched_samples += c.batched_samples;
            total.fallback_samples += c.fallback_samples;
        })
    }

    /// Folds `add` over the pooled shards that have finished building,
    /// under the pool lock.
    fn sum_over_shards<T: Default>(&self, mut add: impl FnMut(&mut T, &Shard)) -> T {
        let slots = self.slots.lock().unwrap();
        let mut total = T::default();
        for shard in slots.values().filter_map(|cell| cell.get()) {
            add(&mut total, shard);
        }
        total
    }
}

/// Disposes of an evicted slot. Requests still holding the shard's `Arc`
/// finish on it; if the pool held the last reference, the session's
/// transient probe state is released immediately so the memory comes back
/// before the `Arc` drops.
fn release(cell: ShardCell) {
    if let Ok(lock) = Arc::try_unwrap(cell) {
        if let Some(mut shard) = lock.into_inner().and_then(|a| Arc::try_unwrap(a).ok()) {
            shard.session.release_transient_state();
        }
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
