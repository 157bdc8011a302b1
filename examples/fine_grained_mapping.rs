//! Fine-grained DNN→DRAM mapping: characterize the error tolerance of every
//! weight tensor and IFM of a ResNet-style network, characterize the BER of
//! each DRAM bank at several voltage levels, and run Algorithm 1 to place
//! each data type in the most aggressive partition it tolerates (the flow of
//! Figures 11 and 12). Algorithm 1 is the greedy seed of the multi-module
//! planner: on a one-module system with no local-search rounds, the plan is
//! exactly that seed.
//!
//! Run with: `cargo run --release --example fine_grained_mapping`

use eden::core::bounding::{BoundingLogic, CorrectionPolicy};
use eden::core::characterize::{fine_characterize_session, FineConfig};
use eden::core::mapping::{benefit_traffic_score, multi_module_map, MultiModuleConfig};
use eden::core::session::EvalSession;
use eden::dnn::train::{TrainConfig, Trainer};
use eden::dnn::zoo::ModelId;
use eden::dnn::{DataKind, Dataset};
use eden::dram::characterize::CharacterizeConfig;
use eden::dram::geometry::{partitions, PartitionGranularity};
use eden::dram::{ApproxDramDevice, DramModule, ErrorModel, MemorySystem, OperatingPoint, Vendor};
use eden::tensor::Precision;

fn main() {
    // Train the ResNet stand-in.
    let model = ModelId::ResNet;
    let dataset = model.dataset(3);
    let mut net = model.build(&dataset.spec(), 3);
    println!("training {model} ...");
    Trainer::new(TrainConfig {
        epochs: 5,
        ..TrainConfig::default()
    })
    .train(&mut net, &dataset);

    // Fine-grained DNN characterization (Figure 11).
    let template = ErrorModel::uniform(0.01, 0.5, 11);
    let bounding =
        BoundingLogic::calibrated(&net, &dataset.train()[..16], 1.5, CorrectionPolicy::Zero);
    println!("characterizing per-data-type error tolerance ...");
    let cfg = FineConfig {
        eval_samples: 48,
        bootstrap_ber: 1e-3,
        max_rounds: 3,
        ..FineConfig::default()
    };
    let mut session = EvalSession::new(&net, Precision::Int8, cfg.backend);
    let fine = fine_characterize_session(&mut session, &dataset, &template, Some(bounding), &cfg);
    println!("{:<28} {:>8} {:>12}", "data type", "elements", "max BER");
    for (info, ber) in &fine.tolerances {
        println!(
            "{:<28} {:>8} {:>12.2e}",
            info.site.to_string(),
            info.elements,
            ber
        );
    }

    // DRAM characterization of four banks at four voltage levels (Figure 12
    // uses four partitions with different VDD values).
    let device = ApproxDramDevice::new(Vendor::A, 21);
    let parts = partitions(device.geometry(), PartitionGranularity::Bank);
    let ops = vec![
        OperatingPoint::nominal(),
        OperatingPoint::with_vdd_reduction(0.10),
        OperatingPoint::with_vdd_reduction(0.25),
        OperatingPoint::with_vdd_reduction(0.35),
    ];
    println!("\ncharacterizing 4 DRAM bank partitions at 4 voltage levels ...");
    let module = DramModule::characterize(
        device,
        &parts[..4],
        &ops,
        &CharacterizeConfig {
            rows_per_pattern: 1,
            bitlines_per_row: 1024,
            reads_per_row: 3,
            seed: 5,
        },
    );

    // Algorithm 1.
    let system = MemorySystem::new(vec![module]);
    let plan = multi_module_map(
        &fine,
        &system,
        Precision::Int8,
        &MultiModuleConfig { max_rounds: 0 },
        &benefit_traffic_score,
    );
    println!("\nfine-grained mapping (Algorithm 1):");
    for placement in &plan.placements {
        let data = &placement.data;
        // Bank partitions hold any site whole, so every placement is one span.
        let partition = placement.spans[0].partition;
        let op_index = plan.partition_ops[0][partition].expect("used partition has an op");
        println!(
            "  {:<26} ({:>5} {}) → partition {} @ {}",
            data.site.to_string(),
            data.elements,
            if data.site.kind == DataKind::Weight {
                "weights"
            } else {
                "ifm"
            },
            partition,
            system.module(0).operating_points[op_index]
        );
    }
    println!(
        "\nplaced {:.1}% of DNN bytes in the module's partitions, at any operating point \
         ({} unmapped data types)",
        100.0 * plan.mapped_fraction(Precision::Int8),
        plan.unmapped.len()
    );
}
