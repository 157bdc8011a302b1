//! DNN→DRAM mapping (Section 3.4), at two granularities:
//!
//! * **Coarse-grained** ([`coarse_map`]): pick the single most aggressive
//!   voltage and `tRCD` reduction whose module-level BER stays below the
//!   DNN's maximum tolerable BER (the ΔVDD / ΔtRCD columns of Table 3).
//! * **Fine-grained** ([`multi_module_map`]): Algorithm 1 over a whole
//!   [`MemorySystem`] — one or more modules with their own vendors,
//!   geometries and candidate operating points. Every DNN data type goes to
//!   the partition with the largest parameter reduction whose BER it
//!   tolerates and which still has space, tracking per-partition operating
//!   points (Figure 12). The result is a [`PlacementPlan`] whose spans may
//!   split one site across partitions (capacity spill), seeded by that
//!   greedy pass and then refined by a deterministic parallel local search
//!   (site moves and swaps between modules) scored by a pluggable per-slot
//!   traffic cost — the experiment binaries wire in `eden-sysim`
//!   energy/latency there. [`PlacementPlan::apply_to`] lowers a plan onto
//!   an [`ApproximateMemory`] as per-span device injectors, whose
//!   per-partition overlays the session composes in O(flips).

use crate::characterize::FineCharacterization;
use crate::faults::{ApproximateMemory, PlacedSpan};
use crate::session::EvalSession;
use eden_dnn::network::DataTypeInfo;
use eden_dram::error_model::Layout;
use eden_dram::inject::Injector;
use eden_dram::params::{MAX_TRCD_REDUCTION_NS, MAX_VDD_REDUCTION, NOMINAL_TRCD_NS, NOMINAL_VDD};
use eden_dram::system::{MemorySystem, TrafficShare};
use eden_dram::vendor::VendorProfile;
use eden_dram::OperatingPoint;
use eden_tensor::{Precision, Tensor};
use serde::{Deserialize, Serialize};

/// The per-slot traffic a plan cost model scores, under the name the
/// benchmark harness imports.
pub use eden_dram::system::TrafficShare as SlotTraffic;

/// Voltage step used when sweeping candidate reductions (volts).
pub const VDD_STEP: f32 = 0.05;
/// `tRCD` step used when sweeping candidate reductions (nanoseconds).
pub const TRCD_STEP: f32 = 0.5;

/// Result of coarse-grained mapping: one operating point for the module.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoarseMapping {
    /// The DNN's maximum tolerable BER (from coarse characterization).
    pub max_tolerable_ber: f64,
    /// Largest voltage reduction whose BER stays below the tolerable BER.
    pub vdd_reduction: f32,
    /// Largest `tRCD` reduction whose BER stays below the tolerable BER.
    pub trcd_reduction_ns: f32,
    /// The combined operating point (voltage reduction applied for energy
    /// experiments, `tRCD` reduction for performance experiments).
    pub operating_point: OperatingPoint,
}

/// Scans the full reduction sweep `[step, limit)` and returns the **largest**
/// reduction whose BER stays within `tolerable` — deliberately *not* stopping
/// at the first failing step: measured (or interpolated) vendor curves can
/// dip back under the budget after a local bump, and an early `break` would
/// under-report the achievable reduction for such non-monotonic curves.
fn largest_passing_reduction(
    step: f32,
    limit: f32,
    tolerable: f64,
    ber_at: impl Fn(f32) -> f64,
) -> f32 {
    let mut best = 0.0f32;
    // Index the grid with integers: accumulating `d += step` drifts off the
    // grid after many f32 additions (0.05 is not exactly representable), so a
    // fine sweep would probe slightly-off reductions and could even gain or
    // lose a final step near `limit`.
    let mut i = 1u32;
    loop {
        let d = step * i as f32;
        if d >= limit {
            break;
        }
        if ber_at(d) <= tolerable {
            best = d;
        }
        i += 1;
    }
    best
}

/// Finds the most aggressive ΔVDD and ΔtRCD a DNN tolerates on a vendor's
/// DRAM (Table 3). Each reduction is chosen independently, as in the paper's
/// energy (voltage) and performance (latency) evaluations; each sweep scans
/// its full range so non-monotonic dips in the vendor curve cannot hide a
/// deeper passing operating point.
pub fn coarse_map(max_tolerable_ber: f64, vendor: &VendorProfile) -> CoarseMapping {
    let vdd_reduction =
        largest_passing_reduction(VDD_STEP, NOMINAL_VDD - 0.5, max_tolerable_ber, |dv| {
            vendor.ber_voltage(dv)
        });
    let trcd_reduction =
        largest_passing_reduction(TRCD_STEP, NOMINAL_TRCD_NS - 1.0, max_tolerable_ber, |dt| {
            vendor.ber_trcd(dt)
        });
    CoarseMapping {
        max_tolerable_ber,
        vdd_reduction,
        trcd_reduction_ns: trcd_reduction,
        operating_point: OperatingPoint::with_reductions(vdd_reduction, trcd_reduction),
    }
}

/// Benefit score of a reduction: how much the parameters are reduced
/// relative to the most aggressive reductions EDEN considers. Algorithm 1
/// picks the partition/operating point with the highest benefit that still
/// meets the data type's BER requirement.
fn benefit(vdd_reduction: f32, trcd_reduction_ns: f32) -> f64 {
    (vdd_reduction / MAX_VDD_REDUCTION) as f64 + (trcd_reduction_ns / MAX_TRCD_REDUCTION_NS) as f64
}

/// Bytes `values` stored values of `bits` bits each occupy.
fn value_bytes(values: usize, bits: u32) -> u64 {
    (values as u64 * bits as u64).div_ceil(8)
}

/// The per-slot traffic a plan cost model scores: one share per slot that
/// runs at an operating point, in slot order. `bytes` and `ops` are indexed
/// by flat slot ([`MemorySystem::slots`] order).
fn used_slot_shares(
    system: &MemorySystem,
    bytes: &[u64],
    ops: &[Option<usize>],
) -> Vec<TrafficShare> {
    system
        .slots()
        .zip(bytes.iter().zip(ops))
        .filter_map(|((m, _), (&bytes, &op_idx))| {
            let op = system.module(m).operating_points[op_idx?];
            Some(TrafficShare {
                bytes,
                vdd_reduction: op.vdd_reduction(),
                trcd_reduction_ns: op.trcd_reduction_ns(),
            })
        })
        .collect()
}

/// One span of a [`PlacementPlan`]: `values` stored values of a site,
/// starting at within-site value index `start_value`, resident in partition
/// `partition` of module `module` at row offset `base_row`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanSpan {
    /// Index of the module within the memory system.
    pub module: usize,
    /// Index of the partition within the module.
    pub partition: usize,
    /// Row offset of the span within its partition (rows are allocated
    /// consecutively per partition, in plan order).
    pub base_row: usize,
    /// First value index of the span within the site's stored image.
    pub start_value: usize,
    /// Number of stored values the span covers.
    pub values: usize,
}

/// The full placement of one data site: its measured tolerance plus the
/// spans tiling its values across the system's partitions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SitePlacement {
    /// The data type.
    pub data: DataTypeInfo,
    /// Tolerable BER of the data type.
    pub tolerable_ber: f64,
    /// Spans covering `[0, data.elements)` in order, without gaps.
    pub spans: Vec<PlanSpan>,
}

/// The productionized multi-module fine mapping: every mapped site is
/// assigned spans over `(module, partition)` slots, and every used slot runs
/// at one chosen operating point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementPlan {
    /// Mapped sites, in the search's strict-to-tolerant processing order.
    pub placements: Vec<SitePlacement>,
    /// Sites that fit nowhere; they stay in nominal (error-free) memory.
    pub unmapped: Vec<DataTypeInfo>,
    /// Chosen operating-point index per module, per partition (`None` =
    /// partition unused).
    pub partition_ops: Vec<Vec<Option<usize>>>,
}

/// Scores a traffic distribution without a system simulator: the
/// bytes-weighted mean of the normalized operating-point benefit. Higher is
/// better; 0 means everything sits at nominal.
pub fn benefit_traffic_score(shares: &[TrafficShare]) -> f64 {
    let total: u64 = shares.iter().map(|s| s.bytes).sum();
    if total == 0 {
        return 0.0;
    }
    shares
        .iter()
        .map(|s| benefit(s.vdd_reduction, s.trcd_reduction_ns) * s.bytes as f64 / total as f64)
        .sum()
}

/// Tuning knobs of [`multi_module_map`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiModuleConfig {
    /// Local-search rounds after the greedy seed (0 = greedy only). Each
    /// round scores every single-site move and pairwise swap in parallel and
    /// applies the best strict improvement; the search stops early once no
    /// candidate improves the score.
    pub max_rounds: usize,
}

impl Default for MultiModuleConfig {
    fn default() -> Self {
        Self { max_rounds: 8 }
    }
}

impl PlacementPlan {
    /// Fraction of the DNN's bytes the plan places in some partition, at
    /// whatever operating point that partition runs — placements at the
    /// nominal point count too, so this is not the share of bytes in
    /// reduced-voltage or reduced-latency DRAM. The rest is `unmapped` data,
    /// which stays in nominal memory.
    pub fn mapped_fraction(&self, precision: Precision) -> f64 {
        let mapped: u64 = self
            .placements
            .iter()
            .map(|p| p.data.bytes(precision))
            .sum();
        let unmapped: u64 = self.unmapped.iter().map(|d| d.bytes(precision)).sum();
        if mapped + unmapped == 0 {
            return 0.0;
        }
        mapped as f64 / (mapped + unmapped) as f64
    }

    /// The plan's per-slot traffic, one entry per *used* slot in module-major
    /// order — the input to a plan cost model.
    pub fn traffic_shares(&self, system: &MemorySystem, precision: Precision) -> Vec<TrafficShare> {
        let mut bytes: Vec<Vec<u64>> = system
            .modules()
            .iter()
            .map(|m| vec![0u64; m.partitions.len()])
            .collect();
        for span in self.placements.iter().flat_map(|p| &p.spans) {
            bytes[span.module][span.partition] += value_bytes(span.values, precision.bits());
        }
        used_slot_shares(system, &bytes.concat(), &self.partition_ops.concat())
    }

    /// Lowers the plan onto a memory: every mapped site becomes a span
    /// placement whose spans read from their module's simulated device at
    /// their partition's chosen operating point. Unmapped sites are left
    /// untouched — apply plans to a reliable (default-error-free) memory so
    /// they stay at nominal parameters, as the plan semantics require.
    pub fn apply_to(&self, memory: &mut ApproximateMemory, system: &MemorySystem) {
        for placement in &self.placements {
            let spans: Vec<PlacedSpan> = placement
                .spans
                .iter()
                .map(|ps| {
                    let module = system.module(ps.module);
                    let op_idx = self.partition_ops[ps.module][ps.partition]
                        .expect("plan span in a partition with no operating point");
                    PlacedSpan {
                        injector: Injector::from_device(
                            *module.device(),
                            module.partitions[ps.partition],
                            module.operating_points[op_idx],
                        ),
                        start_value: ps.start_value,
                        values: ps.values,
                        layout: Layout::new(module.device().geometry().row_bits(), ps.base_row),
                    }
                })
                .collect();
            memory.assign_site_spans(placement.data.site.clone(), spans);
        }
    }

    /// Classification accuracy of the session's network with this plan's
    /// data served from the system's reduced-parameter partitions: lowers
    /// the plan onto a reliable memory seeded with `seed` ([`apply_to`](
    /// `PlacementPlan::apply_to`)) and evaluates through
    /// [`EvalSession::evaluate_with_faults`].
    ///
    /// This is the scoring probe a plan search runs many times per plan
    /// candidate, and it inherits the session's incremental re-evaluation:
    /// plans whose dirty placements start deep in the network resume every
    /// sample from a checkpointed boundary activation and re-execute only
    /// the suffix, bit-identical to the full forward pass.
    pub fn accuracy(
        &self,
        session: &EvalSession<'_>,
        system: &MemorySystem,
        samples: &[(Tensor, usize)],
        seed: u64,
    ) -> f32 {
        let mut memory = ApproximateMemory::reliable(seed);
        self.apply_to(&mut memory, system);
        session.evaluate_with_faults(samples, &mut memory)
    }
}

/// The fixed slot table of one search: per `(module, partition)`, the row
/// capacity and row geometry placement math needs.
struct SlotInfo {
    module: usize,
    partition: usize,
    cap_rows: u64,
    row_bits: u64,
}

impl SlotInfo {
    fn rows_for(&self, values: usize, bits: u32) -> u64 {
        (values as u64 * bits as u64).div_ceil(self.row_bits).max(1)
    }

    fn values_fitting(&self, free_rows: u64, bits: u32) -> usize {
        (free_rows * self.row_bits / bits as u64) as usize
    }
}

/// Search state: per sorted-site index, the `(slot, values)` pieces the site
/// occupies (`None` = unmapped). Everything else — used rows, per-slot
/// operating points, traffic — is derived.
#[derive(Clone)]
struct SearchState {
    pieces: Vec<Option<Vec<(usize, usize)>>>,
}

/// Derived view of a feasible state.
struct DerivedState {
    /// Chosen operating-point index per slot (`None` = unused).
    ops: Vec<Option<usize>>,
}

/// The most beneficial operating point of `slot` whose BER every resident
/// tolerates (`min_tol`), or `None` if the module offers no such point.
fn slot_op(system: &MemorySystem, slot: &SlotInfo, min_tol: f64) -> Option<usize> {
    let module = system.module(slot.module);
    let mut best: Option<(usize, f64)> = None;
    for (o_idx, op) in module.operating_points.iter().enumerate() {
        if module.ber[slot.partition][o_idx] <= min_tol {
            let b = benefit(op.vdd_reduction(), op.trcd_reduction_ns());
            if best.map(|(_, bb)| b > bb).unwrap_or(true) {
                best = Some((o_idx, b));
            }
        }
    }
    best.map(|(o, _)| o)
}

/// Recomputes capacity usage and per-slot operating points of a state;
/// `None` if any slot overflows or hosts data no operating point satisfies.
fn derive_state(
    state: &SearchState,
    sorted: &[(DataTypeInfo, f64)],
    system: &MemorySystem,
    slots: &[SlotInfo],
    bits: u32,
) -> Option<DerivedState> {
    let mut used_rows = vec![0u64; slots.len()];
    let mut min_tol = vec![f64::INFINITY; slots.len()];
    for (i, pieces) in state.pieces.iter().enumerate() {
        let Some(pieces) = pieces else { continue };
        for &(s, values) in pieces {
            used_rows[s] += slots[s].rows_for(values, bits);
            min_tol[s] = min_tol[s].min(sorted[i].1);
        }
    }
    let mut ops = vec![None; slots.len()];
    for (s, slot) in slots.iter().enumerate() {
        if used_rows[s] > slot.cap_rows {
            return None;
        }
        if min_tol[s].is_finite() {
            ops[s] = Some(slot_op(system, slot, min_tol[s])?);
        }
    }
    Some(DerivedState { ops })
}

/// Scores a feasible state with the caller's cost model.
fn score_state(
    state: &SearchState,
    derived: &DerivedState,
    system: &MemorySystem,
    bits: u32,
    score: &(dyn Fn(&[TrafficShare]) -> f64 + Sync),
) -> f64 {
    let mut bytes = vec![0u64; derived.ops.len()];
    for pieces in state.pieces.iter().flatten() {
        for &(s, values) in pieces {
            bytes[s] += value_bytes(values, bits);
        }
    }
    score(&used_slot_shares(system, &bytes, &derived.ops))
}

/// A local-search candidate: move one site to another slot, or swap the
/// slots of two sites. Only whole single-piece sites move — split sites are
/// pinned where capacity forced them.
#[derive(Clone, Copy)]
enum Candidate {
    Move { site: usize, to: usize },
    Swap { a: usize, b: usize },
}

/// Multi-module fine-grained mapping: Algorithm 1 generalized across a
/// [`MemorySystem`], with capacity spill and a deterministic parallel local
/// search.
///
/// The greedy seed is Algorithm 1: it processes data types from least to
/// most tolerant, so the operating point of each partition is constrained
/// by the strictest data assigned to it, over every `(module, partition)`
/// slot of the system, splitting a site across several slots when no single
/// partition has room. With `config.max_rounds == 0` the plan is that seed.
/// `config.max_rounds` rounds of local search then move/swap whole sites
/// between slots, keeping any strict improvement of `score` (per-slot
/// operating points are re-derived from the residents' tolerances after
/// every candidate move, so BER feasibility is a hard constraint
/// throughout). Candidates are enumerated and applied in a fixed order and
/// scored via [`eden_par::par_map`], so the result is a pure function of
/// the inputs — never of thread count.
pub fn multi_module_map(
    characterization: &FineCharacterization,
    system: &MemorySystem,
    precision: Precision,
    config: &MultiModuleConfig,
    score: &(dyn Fn(&[TrafficShare]) -> f64 + Sync),
) -> PlacementPlan {
    let bits = precision.bits();
    let mut sorted: Vec<(DataTypeInfo, f64)> = characterization.tolerances.clone();
    sorted.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));

    let slots: Vec<SlotInfo> = system
        .slots()
        .map(|(m, p)| {
            let module = system.module(m);
            let row_bits = module.device().geometry().row_bits() as u64;
            SlotInfo {
                module: m,
                partition: p,
                cap_rows: module.partitions[p].capacity_bytes * 8 / row_bits,
                row_bits,
            }
        })
        .collect();

    // --- Greedy seed -----------------------------------------------------
    let mut state = SearchState {
        pieces: vec![None; sorted.len()],
    };
    let mut used_rows = vec![0u64; slots.len()];
    let mut min_tol = vec![f64::INFINITY; slots.len()];
    for (i, &(ref data, tol)) in sorted.iter().enumerate() {
        // Rank slots by the benefit of the operating point they would run at
        // with this site (and its stricter predecessors) resident.
        let mut ranked: Vec<(usize, f64)> = slots
            .iter()
            .enumerate()
            .filter_map(|(s, slot)| {
                let op = slot_op(system, slot, min_tol[s].min(tol))?;
                let op = system.module(slot.module).operating_points[op];
                Some((s, benefit(op.vdd_reduction(), op.trcd_reduction_ns())))
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        // Fill across ranked slots, spilling to the next when one runs out
        // of rows.
        let mut remaining = data.elements;
        let mut pieces: Vec<(usize, usize)> = Vec::new();
        for &(s, _) in &ranked {
            if remaining == 0 {
                break;
            }
            let free = slots[s].cap_rows - used_rows[s];
            let take = remaining.min(slots[s].values_fitting(free, bits));
            if take == 0 {
                continue;
            }
            pieces.push((s, take));
            used_rows[s] += slots[s].rows_for(take, bits);
            remaining -= take;
        }
        if remaining > 0 {
            // Roll the partial fill back; the site stays in nominal memory.
            for &(s, take) in &pieces {
                used_rows[s] -= slots[s].rows_for(take, bits);
            }
            continue;
        }
        for &(s, _) in &pieces {
            min_tol[s] = min_tol[s].min(tol);
        }
        state.pieces[i] = Some(pieces);
    }

    // --- Local search ----------------------------------------------------
    let derived =
        derive_state(&state, &sorted, system, &slots, bits).expect("greedy seed must be feasible");
    let mut best_score = score_state(&state, &derived, system, bits, score);
    for _ in 0..config.max_rounds {
        let mut candidates: Vec<Candidate> = Vec::new();
        let single_slot: Vec<Option<usize>> = state
            .pieces
            .iter()
            .map(|p| match p.as_deref() {
                Some([(s, _)]) => Some(*s),
                _ => None,
            })
            .collect();
        for (i, &cur) in single_slot.iter().enumerate() {
            let Some(cur) = cur else { continue };
            for s in 0..slots.len() {
                if s != cur {
                    candidates.push(Candidate::Move { site: i, to: s });
                }
            }
            for (j, &other) in single_slot.iter().enumerate().skip(i + 1) {
                if other.is_some_and(|o| o != cur) {
                    candidates.push(Candidate::Swap { a: i, b: j });
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        let scores = eden_par::par_map(&candidates, |_, cand| {
            let mut trial = state.clone();
            match *cand {
                Candidate::Move { site, to } => {
                    let values = sorted[site].0.elements;
                    trial.pieces[site] = Some(vec![(to, values)]);
                }
                Candidate::Swap { a, b } => {
                    let (sa, sb) = (single_slot[a].unwrap(), single_slot[b].unwrap());
                    trial.pieces[a] = Some(vec![(sb, sorted[a].0.elements)]);
                    trial.pieces[b] = Some(vec![(sa, sorted[b].0.elements)]);
                }
            }
            derive_state(&trial, &sorted, system, &slots, bits)
                .map(|d| score_state(&trial, &d, system, bits, score))
        });
        // Keep the best strict improvement; ties break towards the earliest
        // candidate, so the accepted move is order-independent.
        let mut accepted: Option<(usize, f64)> = None;
        for (idx, s) in scores.iter().enumerate() {
            let Some(s) = s else { continue };
            if *s > best_score + 1e-12 && accepted.map(|(_, bs)| *s > bs).unwrap_or(true) {
                accepted = Some((idx, *s));
            }
        }
        let Some((idx, new_score)) = accepted else {
            break;
        };
        match candidates[idx] {
            Candidate::Move { site, to } => {
                state.pieces[site] = Some(vec![(to, sorted[site].0.elements)]);
            }
            Candidate::Swap { a, b } => {
                let (sa, sb) = (single_slot[a].unwrap(), single_slot[b].unwrap());
                state.pieces[a] = Some(vec![(sb, sorted[a].0.elements)]);
                state.pieces[b] = Some(vec![(sa, sorted[b].0.elements)]);
            }
        }
        best_score = new_score;
    }

    // --- Materialize the plan -------------------------------------------
    let derived = derive_state(&state, &sorted, system, &slots, bits)
        .expect("accepted states are feasible by construction");
    let mut row_cursor = vec![0u64; slots.len()];
    let mut placements = Vec::new();
    let mut unmapped = Vec::new();
    for (i, pieces) in state.pieces.iter().enumerate() {
        let (data, tol) = &sorted[i];
        let Some(pieces) = pieces else {
            unmapped.push(data.clone());
            continue;
        };
        let mut start_value = 0usize;
        let spans = pieces
            .iter()
            .map(|&(s, values)| {
                let span = PlanSpan {
                    module: slots[s].module,
                    partition: slots[s].partition,
                    base_row: row_cursor[s] as usize,
                    start_value,
                    values,
                };
                row_cursor[s] += slots[s].rows_for(values, bits);
                start_value += values;
                span
            })
            .collect();
        placements.push(SitePlacement {
            data: data.clone(),
            tolerable_ber: *tol,
            spans,
        });
    }
    let mut partition_ops: Vec<Vec<Option<usize>>> = system
        .modules()
        .iter()
        .map(|m| vec![None; m.partitions.len()])
        .collect();
    for (s, slot) in slots.iter().enumerate() {
        partition_ops[slot.module][slot.partition] = derived.ops[s];
    }
    PlacementPlan {
        placements,
        unmapped,
        partition_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_dnn::{DataKind, DataSite};
    use eden_dram::characterize::CharacterizeConfig;
    use eden_dram::geometry::{partitions, DramGeometry, Partition, PartitionGranularity};
    use eden_dram::{ApproxDramDevice, DramModule, Vendor};

    #[test]
    fn coarse_map_reproduces_table3_correspondence() {
        let vendor = Vendor::A.profile();
        // 0.5% BER → −0.10 V / −1.0 ns (SqueezeNet row of Table 3).
        let squeeze = coarse_map(0.005, &vendor);
        assert!(
            (squeeze.vdd_reduction - 0.10).abs() < 0.051,
            "{:?}",
            squeeze
        );
        assert!(
            (squeeze.trcd_reduction_ns - 1.0).abs() < 0.51,
            "{:?}",
            squeeze
        );
        // 4% BER → about −0.30 V / −5.5 ns (ResNet row).
        let resnet = coarse_map(0.04, &vendor);
        assert!((resnet.vdd_reduction - 0.30).abs() < 0.051, "{:?}", resnet);
        assert!(
            (resnet.trcd_reduction_ns - 5.5).abs() < 0.51,
            "{:?}",
            resnet
        );
        // 5% BER → about −0.35 V / −6.0 ns (VGG/YOLO rows).
        let vgg = coarse_map(0.05, &vendor);
        assert!((vgg.vdd_reduction - 0.35).abs() < 0.051, "{:?}", vgg);
        assert!((vgg.trcd_reduction_ns - 6.0).abs() < 0.51, "{:?}", vgg);
    }

    #[test]
    fn higher_tolerance_never_reduces_the_reductions() {
        let vendor = Vendor::A.profile();
        let mut prev = coarse_map(0.001, &vendor);
        for ber in [0.005, 0.01, 0.02, 0.04, 0.08] {
            let cur = coarse_map(ber, &vendor);
            assert!(cur.vdd_reduction >= prev.vdd_reduction);
            assert!(cur.trcd_reduction_ns >= prev.trcd_reduction_ns);
            prev = cur;
        }
    }

    #[test]
    fn dipped_curve_recovers_the_deeper_passing_reduction() {
        // A synthetic measured curve with a local bump at 0.10 V that dips
        // back under the budget at 0.15 V before failing for good: the sweep
        // must report 0.15, not stop at 0.05 (the pre-fix behavior).
        let dipped = |dv: f32| -> f64 {
            match (dv * 100.0).round() as i32 {
                5 => 1e-6,
                10 => 2e-2, // bump above the 5e-3 budget
                15 => 4e-3, // dips back under
                _ => 8e-2,  // fails for good beyond
            }
        };
        let best = largest_passing_reduction(0.05, 0.60, 5e-3, dipped);
        assert!((best - 0.15).abs() < 1e-6, "got {best}");
        // A tolerance below every point maps to no reduction at all.
        assert_eq!(largest_passing_reduction(0.05, 0.60, 1e-9, dipped), 0.0);
        // Monotone curves are unaffected: the largest passing step wins.
        let monotone = |dv: f32| (dv as f64) * 0.1;
        let best = largest_passing_reduction(0.05, 0.60, 0.021, monotone);
        assert!((best - 0.20).abs() < 1e-6, "got {best}");
    }

    #[test]
    fn fine_step_sweep_probes_exact_grid_multiples() {
        // A fine sweep (1 mV steps) must probe exact grid multiples and
        // report the deepest one. The former `d += step` accumulation
        // drifted off the grid after hundreds of f32 additions, probing
        // slightly-off reductions and returning an accumulated sum instead
        // of `step * i`.
        use std::cell::RefCell;
        let step = 1e-3f32;
        let probes = RefCell::new(Vec::new());
        let best = largest_passing_reduction(step, 0.35, 1.0, |d| {
            probes.borrow_mut().push(d);
            0.0
        });
        let probes = probes.into_inner();
        assert_eq!(probes.len(), 349);
        for (i, d) in probes.iter().enumerate() {
            assert_eq!(d.to_bits(), (step * (i + 1) as f32).to_bits());
        }
        assert_eq!(best.to_bits(), (step * 349.0).to_bits());
    }

    #[test]
    fn zero_tolerance_maps_to_nominal_parameters() {
        let m = coarse_map(0.0, &Vendor::A.profile());
        assert_eq!(m.vdd_reduction, 0.0);
        assert_eq!(m.trcd_reduction_ns, 0.0);
        assert!(m.operating_point.is_nominal());
    }

    fn synthetic_characterization() -> FineCharacterization {
        // Three data types with increasing tolerance.
        let mk = |i: usize, kind, elements, ber| {
            (
                DataTypeInfo {
                    site: DataSite::new(i, format!("layer{i}"), kind),
                    elements,
                },
                ber,
            )
        };
        FineCharacterization {
            baseline_accuracy: 0.9,
            accuracy_floor: 0.89,
            tolerances: vec![
                mk(0, DataKind::Weight, 4096, 1e-4),
                mk(1, DataKind::Ifm, 2048, 5e-3),
                mk(2, DataKind::Weight, 1024, 5e-2),
            ],
        }
    }

    /// Vendor A module over 4 bank partitions with 4 VDD points.
    fn device_module() -> DramModule {
        let parts = partitions(&DramGeometry::ddr4_module(), PartitionGranularity::Bank);
        let ops = vec![
            OperatingPoint::nominal(),
            OperatingPoint::with_vdd_reduction(0.10),
            OperatingPoint::with_vdd_reduction(0.25),
            OperatingPoint::with_vdd_reduction(0.35),
        ];
        DramModule::characterize(
            ApproxDramDevice::new(Vendor::A, 3),
            &parts[..4],
            &ops,
            &CharacterizeConfig {
                rows_per_pattern: 1,
                bitlines_per_row: 256,
                reads_per_row: 2,
                seed: 1,
            },
        )
    }

    /// Algorithm 1 alone: the planner's greedy seed, no local search.
    fn algorithm1(characterization: &FineCharacterization, module: DramModule) -> PlacementPlan {
        multi_module_map(
            characterization,
            &MemorySystem::new(vec![module]),
            Precision::Int8,
            &MultiModuleConfig { max_rounds: 0 },
            &benefit_traffic_score,
        )
    }

    /// The single span of every placement of a one-module plan, as
    /// `(placement, partition, operating-point index)`.
    fn single_spans(plan: &PlacementPlan) -> Vec<(&SitePlacement, usize, usize)> {
        plan.placements
            .iter()
            .map(|p| {
                let [span] = p.spans.as_slice() else {
                    panic!("{:?} is not a single span", p.spans)
                };
                assert_eq!(span.module, 0);
                (
                    p,
                    span.partition,
                    plan.partition_ops[0][span.partition].unwrap(),
                )
            })
            .collect()
    }

    /// Algorithm 1's placements of `synthetic_characterization()` on
    /// `device_module()`: `(layer index, partition, operating-point index)`
    /// per site, in the strict-to-tolerant processing order.
    const ALGORITHM1_PIN: [(usize, usize, usize); 3] = [(0, 0, 0), (1, 1, 1), (2, 2, 3)];

    #[test]
    fn algorithm1_placements_are_pinned() {
        let plan = algorithm1(&synthetic_characterization(), device_module());
        let got: Vec<(usize, usize, usize)> = single_spans(&plan)
            .into_iter()
            .map(|(p, partition, op)| (p.data.site.layer_index, partition, op))
            .collect();
        assert_eq!(got, ALGORITHM1_PIN);
    }

    #[test]
    fn fine_mapping_places_every_data_type() {
        let plan = algorithm1(&synthetic_characterization(), device_module());
        assert_eq!(plan.placements.len(), 3);
        assert!(plan.unmapped.is_empty());
        assert!(plan.mapped_fraction(Precision::Int8) > 0.999);
    }

    #[test]
    fn tolerant_data_lands_in_more_aggressive_partitions() {
        let module = device_module();
        let plan = algorithm1(&synthetic_characterization(), module.clone());
        let placed = single_spans(&plan);
        let op_reduction = |tol: f64| {
            let &(_, _, op) = placed
                .iter()
                .find(|(p, ..)| p.tolerable_ber == tol)
                .unwrap();
            module.operating_points[op].vdd_reduction()
        };
        assert!(
            op_reduction(5e-2) >= op_reduction(1e-4),
            "more tolerant data should run at least as aggressively"
        );
        // Every placement respects its BER budget.
        for (p, partition, op) in placed {
            assert!(module.ber[partition][op] <= p.tolerable_ber);
        }
    }

    /// `n` artificial partitions of `capacity_bytes` each, one subarray per
    /// partition so characterization probes distinct base rows.
    fn small_partitions(n: usize, capacity_bytes: u64) -> Vec<Partition> {
        (0..n)
            .map(|i| Partition {
                index: i,
                bank: i,
                first_subarray: 0,
                subarrays: 1,
                capacity_bytes,
            })
            .collect()
    }

    /// Two modules (vendors A and B) with two small partitions each: module
    /// 0 offers voltage reductions, module 1 `tRCD` reductions.
    fn tiny_system(capacity_bytes: u64) -> MemorySystem {
        let cfg = CharacterizeConfig {
            rows_per_pattern: 1,
            bitlines_per_row: 128,
            reads_per_row: 1,
            seed: 7,
        };
        let ops_a = vec![
            OperatingPoint::nominal(),
            OperatingPoint::with_vdd_reduction(0.10),
            OperatingPoint::with_vdd_reduction(0.30),
        ];
        let ops_b = vec![
            OperatingPoint::nominal(),
            OperatingPoint::with_trcd_reduction(2.0),
            OperatingPoint::with_trcd_reduction(5.0),
        ];
        MemorySystem::new(vec![
            DramModule::characterize(
                ApproxDramDevice::new(Vendor::A, 21),
                &small_partitions(2, capacity_bytes),
                &ops_a,
                &cfg,
            ),
            DramModule::characterize(
                ApproxDramDevice::new(Vendor::B, 22),
                &small_partitions(2, capacity_bytes),
                &ops_b,
                &cfg,
            ),
        ])
    }

    #[test]
    fn multi_module_plan_covers_every_site_within_ber_budgets() {
        let system = tiny_system(8192);
        let plan = multi_module_map(
            &synthetic_characterization(),
            &system,
            Precision::Int8,
            &MultiModuleConfig::default(),
            &benefit_traffic_score,
        );
        assert_eq!(plan.placements.len(), 3);
        assert!(plan.unmapped.is_empty());
        assert!(plan.mapped_fraction(Precision::Int8) > 0.999);
        for placement in &plan.placements {
            // Spans tile the site's values contiguously from 0.
            let mut next = 0usize;
            for span in &placement.spans {
                assert_eq!(span.start_value, next);
                assert!(span.values > 0);
                next += span.values;
                // Every span respects its partition's BER at the chosen op.
                let op = plan.partition_ops[span.module][span.partition].unwrap();
                assert!(
                    system.module(span.module).ber[span.partition][op] <= placement.tolerable_ber
                );
            }
            assert_eq!(next, placement.data.elements);
        }
    }

    #[test]
    fn multi_module_search_is_deterministic() {
        let system = tiny_system(8192);
        let plan = |rounds| {
            multi_module_map(
                &synthetic_characterization(),
                &system,
                Precision::Int8,
                &MultiModuleConfig { max_rounds: rounds },
                &benefit_traffic_score,
            )
        };
        assert_eq!(plan(8), plan(8));
        // The local search never scores worse than the greedy seed.
        let greedy = plan(0);
        let searched = plan(8);
        let score =
            |p: &PlacementPlan| benefit_traffic_score(&p.traffic_shares(&system, Precision::Int8));
        assert!(score(&searched) >= score(&greedy) - 1e-12);
    }

    #[test]
    fn capacity_pressure_splits_sites_across_partitions() {
        // Each partition holds 2048 bytes = 2048 Int8 values, so the
        // 4096-element site cannot live in one partition: the plan must
        // split it into multiple spans, possibly across modules.
        let system = tiny_system(2048);
        let plan = multi_module_map(
            &synthetic_characterization(),
            &system,
            Precision::Int8,
            &MultiModuleConfig::default(),
            &benefit_traffic_score,
        );
        assert!(plan.unmapped.is_empty());
        let big = plan
            .placements
            .iter()
            .find(|p| p.data.elements == 4096)
            .unwrap();
        assert!(
            big.spans.len() >= 2,
            "expected a split, got {:?}",
            big.spans
        );
        let distinct: std::collections::HashSet<(usize, usize)> =
            big.spans.iter().map(|s| (s.module, s.partition)).collect();
        assert_eq!(distinct.len(), big.spans.len(), "spans share a partition");
    }

    #[test]
    fn nominal_device_spans_are_conservatively_dirty() {
        // Vendor curves keep a ~1e-9 error floor even at nominal parameters,
        // so a device-backed span is never *provably* clean: an all-nominal
        // plan lowered onto a memory must still leave its lowest mapped
        // layer dirty.
        let system = tiny_system(8192);
        let mut plan = multi_module_map(
            &synthetic_characterization(),
            &system,
            Precision::Int8,
            &MultiModuleConfig::default(),
            &benefit_traffic_score,
        );
        for module_ops in &mut plan.partition_ops {
            for op in module_ops.iter_mut().filter(|op| op.is_some()) {
                *op = Some(0); // index 0 is nominal in `tiny_system`
            }
        }
        let mut memory = ApproximateMemory::reliable(0);
        plan.apply_to(&mut memory, &system);
        assert_eq!(memory.first_dirty_layer(8), 0);
    }

    #[test]
    fn plan_accuracy_matches_manual_lowering_bit_for_bit() {
        use eden_dnn::data::SyntheticVision;
        use eden_dnn::train::{TrainConfig, Trainer};
        use eden_dnn::{zoo, Dataset};

        let dataset = SyntheticVision::tiny(3);
        let mut net = zoo::lenet(&dataset.spec(), 3);
        Trainer::new(TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        })
        .train(&mut net, &dataset);

        // Characterize the real network's sites so the plan's layer indices
        // line up with the network the session evaluates.
        let tolerances: Vec<(DataTypeInfo, f64)> = net
            .data_sites()
            .into_iter()
            .map(|info| (info, 5e-3))
            .collect();
        let characterization = FineCharacterization {
            baseline_accuracy: 0.9,
            accuracy_floor: 0.89,
            tolerances,
        };
        let system = tiny_system(1 << 20);
        let plan = multi_module_map(
            &characterization,
            &system,
            Precision::Int8,
            &MultiModuleConfig::default(),
            &benefit_traffic_score,
        );

        let session = crate::session::EvalSession::new(
            &net,
            Precision::Int8,
            crate::inference::InferenceBackend::SimulatedF32,
        );
        let samples = &dataset.test()[..8];
        let via_helper = plan.accuracy(&session, &system, samples, 11);
        let mut memory = ApproximateMemory::reliable(11);
        plan.apply_to(&mut memory, &system);
        let manual = session.evaluate_with_faults(samples, &mut memory);
        assert_eq!(via_helper.to_bits(), manual.to_bits());
    }

    #[test]
    fn oversubscribed_system_leaves_leftovers_unmapped() {
        // Total capacity 4 × 512 bytes cannot hold 7168 bytes of data: the
        // most tolerant sites keep their placements (strict data is placed
        // first and benefits most from protection), the rest spill to
        // nominal memory.
        let system = tiny_system(512);
        let plan = multi_module_map(
            &synthetic_characterization(),
            &system,
            Precision::Int8,
            &MultiModuleConfig::default(),
            &benefit_traffic_score,
        );
        assert!(!plan.unmapped.is_empty());
        let placed: usize = plan
            .placements
            .iter()
            .flat_map(|p| p.spans.iter())
            .map(|s| s.values)
            .sum();
        assert!(placed <= 4 * 512, "placed {placed} values in 2048 bytes");
    }

    #[test]
    fn intolerant_data_is_left_unmapped_when_no_partition_qualifies() {
        // A characterization whose only data type tolerates essentially no
        // errors cannot be mapped to any reduced-parameter partition unless
        // the module offers the nominal point — remove it to force the
        // unmapped path.
        let mut module = device_module();
        module.operating_points.remove(0);
        for row in &mut module.ber {
            row.remove(0);
        }
        let characterization = FineCharacterization {
            baseline_accuracy: 0.9,
            accuracy_floor: 0.89,
            tolerances: vec![(
                DataTypeInfo {
                    site: DataSite::new(0, "fragile", DataKind::Weight),
                    elements: 128,
                },
                1e-12,
            )],
        };
        let plan = algorithm1(&characterization, module);
        assert_eq!(plan.placements.len(), 0);
        assert_eq!(plan.unmapped.len(), 1);
    }
}
