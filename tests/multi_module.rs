//! Multi-module placement equivalence: a [`PlacementPlan`] lowered onto an
//! [`ApproximateMemory`] corrupts every sample through *composed* per-span
//! overlays (one per `(module, partition)` from its own seed stream, merged
//! in O(flips)), and that production composition must be bit-identical —
//! accuracy bits and injection statistics — to the reference that applies
//! each partition's corruption independently
//! ([`SpanComposition::Independent`]), across execution backends, precisions
//! and 1/2/8 worker threads. The cross-module search itself must also be a
//! pure function of its inputs.

use eden::core::characterize::FineCharacterization;
use eden::core::faults::{ApproximateMemory, MemoryStats, SpanComposition};
use eden::core::inference::InferenceBackend;
use eden::core::mapping::{
    benefit_traffic_score, multi_module_map, MultiModuleConfig, PlacementPlan,
};
use eden::core::session::EvalSession;
use eden::dnn::train::{TrainConfig, Trainer};
use eden::dnn::{data::SyntheticVision, zoo, Dataset, Network};
use eden::dram::characterize::CharacterizeConfig;
use eden::dram::device::ApproxDramDevice;
use eden::dram::geometry::{DramGeometry, Partition};
use eden::dram::system::{DramModule, MemorySystem};
use eden::dram::{OperatingPoint, Vendor};
use eden::tensor::Precision;
use eden_par::ThreadPool;

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

/// Synthetic per-site tolerances (cycling through three realistic magnitudes)
/// so the plan uses reduced operating points without paying for a real
/// fine-characterization run.
fn characterization_for(net: &Network) -> FineCharacterization {
    let tolerances = net
        .data_sites()
        .into_iter()
        .enumerate()
        .map(|(i, info)| (info, [5e-2, 5e-3, 2e-2][i % 3]))
        .collect();
    FineCharacterization {
        baseline_accuracy: 0.9,
        accuracy_floor: 0.85,
        tolerances,
    }
}

/// A two-module system (vendor A offering voltage reductions, vendor B
/// `tRCD` reductions) over small-rowed custom geometry, with partition
/// capacities sized so the largest site *cannot* fit in one partition — the
/// plan must split it, which is what makes per-load overlay composition
/// non-trivial.
fn system_for(net: &Network, precision: Precision) -> MemorySystem {
    let geometry = DramGeometry {
        banks: 2,
        subarrays_per_bank: 2,
        rows_per_subarray: 512,
        row_bytes: 64,
    };
    let row_bytes = geometry.row_bytes as u64;
    let rows: Vec<u64> = net
        .data_sites()
        .iter()
        .map(|d| d.bytes(precision).div_ceil(row_bytes))
        .collect();
    let max_rows = rows.iter().copied().max().unwrap();
    // One row of per-piece rounding slack per site, then a third of the
    // total per partition (4 partitions leave ample headroom) — but strictly
    // less than the largest site, forcing a capacity spill.
    let total_rows: u64 = rows.iter().sum::<u64>() + rows.len() as u64;
    let cap_rows = (total_rows.div_ceil(3)).max(2).min(max_rows - 1);
    let parts: Vec<Partition> = (0..2)
        .map(|i| Partition {
            index: i,
            bank: i,
            first_subarray: 0,
            subarrays: 1,
            capacity_bytes: cap_rows * row_bytes,
        })
        .collect();
    let cfg = CharacterizeConfig {
        rows_per_pattern: 1,
        bitlines_per_row: 64,
        reads_per_row: 1,
        seed: 9,
    };
    let ops_a = vec![
        OperatingPoint::nominal(),
        OperatingPoint::with_vdd_reduction(0.15),
        OperatingPoint::with_vdd_reduction(0.30),
    ];
    let ops_b = vec![
        OperatingPoint::nominal(),
        OperatingPoint::with_trcd_reduction(3.0),
        OperatingPoint::with_trcd_reduction(5.5),
    ];
    MemorySystem::new(vec![
        DramModule::characterize(
            ApproxDramDevice::with_geometry(Vendor::A, geometry, 41),
            &parts,
            &ops_a,
            &cfg,
        ),
        DramModule::characterize(
            ApproxDramDevice::with_geometry(Vendor::B, geometry, 42),
            &parts,
            &ops_b,
            &cfg,
        ),
    ])
}

fn plan_for(net: &Network, system: &MemorySystem, precision: Precision) -> PlacementPlan {
    multi_module_map(
        &characterization_for(net),
        system,
        precision,
        &MultiModuleConfig::default(),
        &benefit_traffic_score,
    )
}

#[test]
fn composed_overlays_match_independent_partition_evaluation() {
    let (net, dataset) = trained_lenet(3);
    let samples = &dataset.test()[..16];
    for precision in [Precision::Int4, Precision::Int8, Precision::Fp32] {
        let system = system_for(&net, precision);
        let plan = plan_for(&net, &system, precision);
        // The plan genuinely spans modules and splits at least one site —
        // otherwise composition would be trivially single-overlay.
        let modules_used: std::collections::HashSet<usize> = plan
            .placements
            .iter()
            .flat_map(|p| p.spans.iter().map(|s| s.module))
            .collect();
        assert!(modules_used.len() >= 2, "{precision}: plan uses one module");
        assert!(
            plan.placements.iter().any(|p| p.spans.len() >= 2),
            "{precision}: no site was split across partitions"
        );
        assert!(plan.unmapped.is_empty(), "{precision}: {:?}", plan.unmapped);

        for backend in [InferenceBackend::SimulatedF32, InferenceBackend::NativeInt] {
            let run = |composition: SpanComposition, threads: usize| -> (u32, MemoryStats) {
                let pool = ThreadPool::new(threads);
                pool.install(|| {
                    let session = EvalSession::new(&net, precision, backend);
                    let mut memory =
                        ApproximateMemory::reliable(31).with_span_composition(composition);
                    plan.apply_to(&mut memory, &system);
                    let acc = session.evaluate_with_faults(samples, &mut memory);
                    (acc.to_bits(), memory.stats())
                })
            };
            let reference = run(SpanComposition::Independent, 1);
            assert!(reference.1.bit_flips > 0, "{precision} {backend}: no flips");
            for threads in [1usize, 2, 8] {
                let merged = run(SpanComposition::Merged, threads);
                assert_eq!(
                    merged, reference,
                    "{precision} {backend} {threads} threads: composed overlay diverged"
                );
                let independent = run(SpanComposition::Independent, threads);
                assert_eq!(
                    independent, reference,
                    "{precision} {backend} {threads} threads: reference not thread-invariant"
                );
            }
        }
    }
}

#[test]
fn cross_module_search_is_deterministic_end_to_end() {
    let (net, _) = trained_lenet(4);
    let system = system_for(&net, Precision::Int8);
    let a = plan_for(&net, &system, Precision::Int8);
    let b = plan_for(&net, &system, Precision::Int8);
    assert_eq!(a, b, "same inputs must produce the same plan");
    // And the plan is stable under different thread counts of the scoring
    // pool.
    let c = ThreadPool::new(8).install(|| plan_for(&net, &system, Precision::Int8));
    assert_eq!(a, c, "plan must not depend on the worker-pool size");
}
