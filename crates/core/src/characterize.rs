//! DNN error-tolerance characterization (Section 3.3).
//!
//! * **Coarse-grained**: find the highest single BER the whole DNN tolerates
//!   while staying within the user's accuracy budget, via a logarithmic-scale
//!   binary search (DNN error-tolerance curves are monotonically
//!   decreasing).
//! * **Fine-grained**: find a per-data-type tolerable BER by iteratively
//!   sweeping over the DNN's weights and IFMs, raising each data type's BER
//!   until accuracy would drop below the target (Figure 11).

use crate::bounding::BoundingLogic;
use crate::faults::ApproximateMemory;
use crate::inference::InferenceBackend;
use crate::session::EvalSession;
use eden_dnn::network::DataTypeInfo;
use eden_dnn::Dataset;
use eden_dram::inject::Injector;
use eden_dram::util::seed_mix;
use eden_dram::ErrorModel;
use eden_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Configuration of coarse-grained characterization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoarseConfig {
    /// Maximum tolerated accuracy drop relative to the reliable baseline
    /// (the paper's headline setting is 0.01, i.e. "within 1%").
    pub accuracy_drop: f32,
    /// Number of validation samples used per accuracy estimate.
    pub eval_samples: usize,
    /// Lower end of the BER search range.
    pub ber_min: f64,
    /// Upper end of the BER search range.
    pub ber_max: f64,
    /// Binary-search iterations on the logarithmic BER axis.
    pub iterations: usize,
    /// Injection seed.
    pub seed: u64,
    /// The backend the caller builds its [`EvalSession`] with. The
    /// characterization itself reads the session's backend, never this
    /// field; it records which backend a configuration was meant for.
    pub backend: InferenceBackend,
}

impl Default for CoarseConfig {
    fn default() -> Self {
        Self {
            accuracy_drop: 0.01,
            eval_samples: 64,
            ber_min: 1e-5,
            ber_max: 0.3,
            iterations: 8,
            seed: 0,
            backend: InferenceBackend::default(),
        }
    }
}

/// Result of coarse-grained characterization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoarseCharacterization {
    /// Accuracy of the DNN on reliable memory.
    pub baseline_accuracy: f32,
    /// Minimum acceptable accuracy (`baseline − accuracy_drop`).
    pub accuracy_floor: f32,
    /// The highest BER that keeps accuracy at or above the floor.
    pub max_tolerable_ber: f64,
    /// `(BER, accuracy)` points probed during the search.
    pub probes: Vec<(f64, f32)>,
}

/// Finds the maximum BER the whole DNN tolerates (coarse-grained, Table 3)
/// on a caller-provided [`EvalSession`].
///
/// The session's network, precision and backend are authoritative, and
/// `cfg.backend` is not read. Callers running several characterizations of
/// the same network (e.g. a coarse bootstrap followed by a fine-grained
/// sweep, as Figure 11 does) share one session, and with it the cached
/// weight images, pools and weak-cell maps.
pub fn coarse_characterize_session(
    session: &mut EvalSession<'_>,
    dataset: &dyn Dataset,
    template: &ErrorModel,
    bounding: Option<BoundingLogic>,
    cfg: &CoarseConfig,
) -> CoarseCharacterization {
    let samples = eval_slice(dataset, cfg.eval_samples);
    let baseline = session.evaluate_reliable(samples);
    let floor = baseline - cfg.accuracy_drop;

    let memory_at = |ber: f64| -> ApproximateMemory {
        let mut memory = ApproximateMemory::from_model(template.with_ber(ber), cfg.seed);
        if let Some(b) = bounding {
            memory = memory.with_bounding(b);
        }
        memory
    };

    let mut probes = Vec::new();
    // Quick exits: if even the minimum BER fails, or the maximum passes. The
    // two boundary probes are independent, so evaluate them concurrently —
    // deliberately speculative: when the min-BER probe fails, the max-BER
    // result is discarded, trading one wasted evaluation on that rare path
    // for halved latency on the common one.
    let (mut memory_min, mut memory_max) = (memory_at(cfg.ber_min), memory_at(cfg.ber_max));
    let shared: &EvalSession<'_> = session;
    let (acc_min, acc_max) = eden_par::join(
        || shared.evaluate_with_faults(samples, &mut memory_min),
        || shared.evaluate_with_faults(samples, &mut memory_max),
    );
    probes.push((cfg.ber_min, acc_min));
    if acc_min < floor {
        return CoarseCharacterization {
            baseline_accuracy: baseline,
            accuracy_floor: floor,
            max_tolerable_ber: 0.0,
            probes,
        };
    }
    probes.push((cfg.ber_max, acc_max));
    if acc_max >= floor {
        return CoarseCharacterization {
            baseline_accuracy: baseline,
            accuracy_floor: floor,
            max_tolerable_ber: cfg.ber_max,
            probes,
        };
    }

    // Logarithmic-scale binary search (error-tolerance curves decrease
    // monotonically with BER); sequential probes reuse the session pools.
    let mut lo = cfg.ber_min.ln();
    let mut hi = cfg.ber_max.ln();
    for _ in 0..cfg.iterations {
        let mid = 0.5 * (lo + hi);
        let ber = mid.exp();
        let acc = session.evaluate_with_faults(samples, &mut memory_at(ber));
        probes.push((ber, acc));
        if acc >= floor {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    CoarseCharacterization {
        baseline_accuracy: baseline,
        accuracy_floor: floor,
        max_tolerable_ber: lo.exp(),
        probes,
    }
}

/// Configuration of fine-grained characterization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FineConfig {
    /// Maximum tolerated accuracy drop relative to the reliable baseline.
    pub accuracy_drop: f32,
    /// Validation samples per accuracy estimate (the paper samples 10% of
    /// the validation set during this procedure).
    pub eval_samples: usize,
    /// Starting BER for every data type (bootstrapped from the
    /// coarse-grained result in the paper).
    pub bootstrap_ber: f64,
    /// Multiplicative BER increment per accepted step (the paper uses linear
    /// 0.5-unit steps around the bootstrap value; a multiplicative step
    /// explores the same range in fewer evaluations).
    pub step_factor: f64,
    /// Maximum sweep rounds over the data-type list.
    pub max_rounds: usize,
    /// Injection seed.
    pub seed: u64,
    /// The backend the caller builds its [`EvalSession`] with. The
    /// characterization itself reads the session's backend, never this
    /// field; it records which backend a configuration was meant for.
    pub backend: InferenceBackend,
}

impl Default for FineConfig {
    fn default() -> Self {
        Self {
            accuracy_drop: 0.01,
            eval_samples: 32,
            bootstrap_ber: 1e-3,
            step_factor: 1.5,
            max_rounds: 4,
            seed: 0,
            backend: InferenceBackend::default(),
        }
    }
}

/// Per-data-type tolerable BERs (fine-grained, Figure 11).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FineCharacterization {
    /// Accuracy of the DNN on reliable memory.
    pub baseline_accuracy: f32,
    /// Minimum acceptable accuracy.
    pub accuracy_floor: f32,
    /// Each data type with its size and maximum tolerable BER.
    pub tolerances: Vec<(DataTypeInfo, f64)>,
}

impl FineCharacterization {
    /// The highest per-data-type BER found.
    pub fn max_tolerance(&self) -> f64 {
        self.tolerances.iter().map(|(_, b)| *b).fold(0.0, f64::max)
    }
}

/// Mixes `(master seed, sweep round, site index)` into one probe seed via
/// the workspace's unified [`seed_mix`] helper (chained splitmix64 stages,
/// one per component).
///
/// The original mixing, `seed ^ (round << 8) ^ i`, reserved only 8 bits for
/// the site index: on networks with ≥ 256 data sites the index bled into the
/// round bits and probe seeds collided across rounds (e.g. `(round 0,
/// site 256)` equalled `(round 1, site 0)`), silently correlating the
/// injected error patterns of distinct probes. `seed_mix` gives every
/// component a full mixing stage; the cross-module collision regression
/// test lives next to it in `eden_dram::util`.
fn probe_seed(seed: u64, round: u64, site: u64) -> u64 {
    seed_mix(seed, &[round, site])
}

/// Characterizes the tolerable BER of every weight tensor and IFM
/// individually (Section 3.3, "Fine-Grained Characterization") on a
/// caller-provided [`EvalSession`].
///
/// This is the `sites × rounds` probe loop of Figure 11, and the workload
/// the session layer pays off most on. Each probe perturbs exactly **one**
/// site — the stepped site is served at its candidate BER, every other site
/// from reliable memory — which is the paper's "characterize each data type
/// individually" procedure and what makes the tolerances independent
/// per-site measurements rather than functions of the sweep's visiting
/// order. It is also what the session's incremental re-evaluation feeds on:
/// a single-site probe's [`ApproximateMemory::first_dirty_layer`] is the
/// probed site's layer, so the clean prefix of every sample resumes from a
/// checkpointed boundary activation and only the suffix re-executes —
/// O(suffix from the probed site) per probe instead of O(layers). The
/// session's precision and backend are authoritative, and `cfg.backend` is
/// not read.
///
/// Within a round, each still-active site's probe is independent, so the
/// probes fan out across the `eden-par` pool via
/// [`EvalSession::evaluate_with_faults`]. Each probe draws its error pattern
/// from its own `probe_seed(seed, round, site)` stream and acceptances are
/// folded in ascending site order after the round's fan-out, so results are
/// bit-identical at any thread count.
pub fn fine_characterize_session(
    session: &mut EvalSession<'_>,
    dataset: &dyn Dataset,
    template: &ErrorModel,
    bounding: Option<BoundingLogic>,
    cfg: &FineConfig,
) -> FineCharacterization {
    let samples = eval_slice(dataset, cfg.eval_samples);
    let baseline = session.evaluate_reliable(samples);
    let floor = baseline - cfg.accuracy_drop;
    let sites = session.net().data_sites();

    let mut tolerances: Vec<f64> = vec![cfg.bootstrap_ber; sites.len()];
    let mut active: Vec<bool> = vec![true; sites.len()];

    for round in 0..cfg.max_rounds {
        let probes: Vec<usize> = (0..sites.len()).filter(|&i| active[i]).collect();
        if probes.is_empty() {
            break;
        }
        // Resolve the stepped injectors *before* fanning out: `injector_for`
        // caches under `&mut self`, while the fan-out below holds the
        // session by shared reference. Each probe corrupts exactly one site
        // — the probed one at its stepped BER — so the stepped injectors are
        // the whole set the round needs.
        let stepped: Vec<Injector> = probes
            .iter()
            .map(|&i| session.injector_for(template, tolerances[i] * cfg.step_factor))
            .collect();

        let shared: &EvalSession<'_> = session;
        let accs: Vec<f32> = eden_par::par_map(&probes, |p, &i| {
            let mut memory =
                ApproximateMemory::reliable(probe_seed(cfg.seed, round as u64, i as u64));
            memory.assign_site(sites[i].site.clone(), stepped[p].clone());
            if let Some(b) = bounding {
                memory = memory.with_bounding(b);
            }
            shared.evaluate_with_faults(samples, &mut memory)
        });

        for (&i, &acc) in probes.iter().zip(&accs) {
            if acc >= floor {
                tolerances[i] *= cfg.step_factor;
            } else {
                // This data type cannot tolerate a higher error rate; drop it
                // from the sweep list (the paper's procedure).
                active[i] = false;
            }
        }
    }

    FineCharacterization {
        baseline_accuracy: baseline,
        accuracy_floor: floor,
        tolerances: sites.into_iter().zip(tolerances).collect(),
    }
}

fn eval_slice(dataset: &dyn Dataset, n: usize) -> &[(Tensor, usize)] {
    let test = dataset.test();
    &test[..n.min(test.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounding::CorrectionPolicy;
    use eden_dnn::data::SyntheticVision;
    use eden_dnn::train::{TrainConfig, Trainer};
    use eden_dnn::{zoo, DataKind, Network};
    use eden_tensor::Precision;

    fn trained(seed: u64) -> (Network, SyntheticVision) {
        let dataset = SyntheticVision::tiny(seed);
        let mut net = zoo::lenet(&dataset.spec(), seed);
        Trainer::new(TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        })
        .train(&mut net, &dataset);
        (net, dataset)
    }

    /// Coarse characterization on a fresh int8 session of `net`.
    fn coarse(
        net: &Network,
        dataset: &SyntheticVision,
        template: &ErrorModel,
        bounding: BoundingLogic,
        cfg: &CoarseConfig,
    ) -> CoarseCharacterization {
        let mut session = EvalSession::new(net, Precision::Int8, cfg.backend);
        coarse_characterize_session(&mut session, dataset, template, Some(bounding), cfg)
    }

    /// Fine characterization on a fresh int8 session of `net`.
    fn fine(
        net: &Network,
        dataset: &SyntheticVision,
        template: &ErrorModel,
        bounding: BoundingLogic,
        cfg: &FineConfig,
    ) -> FineCharacterization {
        let mut session = EvalSession::new(net, Precision::Int8, cfg.backend);
        fine_characterize_session(&mut session, dataset, template, Some(bounding), cfg)
    }

    fn quick_coarse() -> CoarseConfig {
        CoarseConfig {
            eval_samples: 32,
            iterations: 5,
            accuracy_drop: 0.02,
            ..CoarseConfig::default()
        }
    }

    #[test]
    fn coarse_search_finds_a_boundary_ber() {
        let (net, dataset) = trained(0);
        let template = ErrorModel::uniform(0.01, 0.5, 1);
        let bounding =
            BoundingLogic::calibrated(&net, &dataset.train()[..16], 1.5, CorrectionPolicy::Zero);
        let result = coarse(&net, &dataset, &template, bounding, &quick_coarse());
        assert!(result.max_tolerable_ber > 0.0);
        assert!(result.max_tolerable_ber <= 0.3);
        assert!(result.probes.len() >= 3);
        // Accuracy at a BER well below the found maximum must meet the floor.
        let safe: Vec<_> = result
            .probes
            .iter()
            .filter(|(b, _)| *b <= result.max_tolerable_ber * 0.5)
            .collect();
        for (_, acc) in safe {
            assert!(*acc >= result.accuracy_floor - 0.05);
        }
    }

    #[test]
    fn coarse_search_respects_tighter_accuracy_budgets() {
        let (net, dataset) = trained(1);
        let template = ErrorModel::uniform(0.01, 0.5, 2);
        let bounding =
            BoundingLogic::calibrated(&net, &dataset.train()[..16], 1.5, CorrectionPolicy::Zero);
        let loose = coarse(
            &net,
            &dataset,
            &template,
            bounding,
            &CoarseConfig {
                accuracy_drop: 0.10,
                ..quick_coarse()
            },
        );
        let tight = coarse(
            &net,
            &dataset,
            &template,
            bounding,
            &CoarseConfig {
                accuracy_drop: 0.005,
                ..quick_coarse()
            },
        );
        assert!(
            loose.max_tolerable_ber >= tight.max_tolerable_ber,
            "a looser accuracy budget must tolerate at least as much error"
        );
    }

    #[test]
    fn fine_characterization_covers_every_data_type() {
        let (net, dataset) = trained(2);
        let template = ErrorModel::uniform(0.01, 0.5, 3);
        let bounding =
            BoundingLogic::calibrated(&net, &dataset.train()[..16], 1.5, CorrectionPolicy::Zero);
        let cfg = FineConfig {
            eval_samples: 24,
            max_rounds: 2,
            bootstrap_ber: 5e-4,
            ..FineConfig::default()
        };
        let fine = fine(&net, &dataset, &template, bounding, &cfg);
        assert_eq!(fine.tolerances.len(), net.data_sites().len());
        // Every tolerance is at least the bootstrap value.
        for (_, ber) in &fine.tolerances {
            assert!(*ber >= cfg.bootstrap_ber);
        }
        // Weight and IFM entries both exist.
        assert!(fine
            .tolerances
            .iter()
            .any(|(info, _)| info.site.kind == DataKind::Weight));
        assert!(fine
            .tolerances
            .iter()
            .any(|(info, _)| info.site.kind == DataKind::Ifm));
        assert!(fine.max_tolerance() >= cfg.bootstrap_ber);
    }

    #[test]
    fn probe_seeds_do_not_collide_across_rounds() {
        // Regression test for the old `seed ^ (round << 8) ^ i` mixing: with
        // ≥ 256 data sites the site index overflowed into the round bits and
        // `(round 0, site 256)` collided with `(round 1, site 0)`. The
        // splitmix-based mix must keep every (round, site) pair distinct.
        let old_mix = |seed: u64, round: u64, i: u64| seed ^ (round << 8) ^ i;
        assert_eq!(old_mix(7, 0, 256), old_mix(7, 1, 0), "old mixing collided");
        assert_ne!(probe_seed(7, 0, 256), probe_seed(7, 1, 0));

        let mut seen = std::collections::HashSet::new();
        for round in 0..4u64 {
            for site in 0..1024u64 {
                assert!(
                    seen.insert(probe_seed(42, round, site)),
                    "probe seed collision at round {round}, site {site}"
                );
            }
        }
        // Different master seeds decorrelate the whole schedule.
        assert_ne!(probe_seed(1, 0, 0), probe_seed(2, 0, 0));
    }

    #[test]
    fn session_variant_matches_the_one_shot_wrappers() {
        // A fresh session per call against one session reused across the
        // probe loop (and across coarse + fine): reuse must be bit-identical
        // to per-call construction.
        let (net, dataset) = trained(5);
        let template = ErrorModel::uniform(0.01, 0.5, 6);
        let bounding =
            BoundingLogic::calibrated(&net, &dataset.train()[..16], 1.5, CorrectionPolicy::Zero);
        let coarse_cfg = quick_coarse();
        let fine_cfg = FineConfig {
            eval_samples: 24,
            max_rounds: 2,
            bootstrap_ber: 5e-4,
            ..FineConfig::default()
        };
        let coarse_oneshot = coarse(&net, &dataset, &template, bounding, &coarse_cfg);
        let fine_oneshot = fine(&net, &dataset, &template, bounding, &fine_cfg);

        let mut session = EvalSession::new(&net, Precision::Int8, InferenceBackend::SimulatedF32);
        let coarse_session = coarse_characterize_session(
            &mut session,
            &dataset,
            &template,
            Some(bounding),
            &coarse_cfg,
        );
        let fine_session =
            fine_characterize_session(&mut session, &dataset, &template, Some(bounding), &fine_cfg);
        assert_eq!(coarse_oneshot, coarse_session);
        assert_eq!(fine_oneshot, fine_session);
    }

    #[test]
    fn fine_tolerances_can_exceed_the_coarse_tolerance() {
        // The paper observes that individual data types tolerate up to ~3x
        // the coarse-grained BER; at minimum, the maximum fine tolerance
        // should not be smaller than the bootstrap.
        let (net, dataset) = trained(3);
        let template = ErrorModel::uniform(0.01, 0.5, 4);
        let bounding =
            BoundingLogic::calibrated(&net, &dataset.train()[..16], 1.5, CorrectionPolicy::Zero);
        let fine = fine(
            &net,
            &dataset,
            &template,
            bounding,
            &FineConfig {
                eval_samples: 24,
                max_rounds: 3,
                bootstrap_ber: 1e-3,
                ..FineConfig::default()
            },
        );
        assert!(fine.max_tolerance() > 1e-3);
    }
}
