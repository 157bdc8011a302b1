//! Table 1: the evaluated DNN models, their datasets, and their model /
//! IFM+weight sizes (paper sizes vs the sizes of our scaled-down stand-ins).

use eden_bench::report;
use eden_dnn::zoo::ModelId;
use eden_dnn::Dataset;
use eden_tensor::Precision;

fn main() {
    report::init_threads();
    report::header("Table 1", "DNN models used in the evaluation");
    println!(
        "{:<14} {:<12} {:>10} {:>14} | {:>12} {:>16} {:>9}",
        "model", "dataset", "paper MB", "paper IFM+W MB", "ours KB", "ours IFM+W KB", "params"
    );
    for id in ModelId::all() {
        let spec = id.spec();
        let dataset = id.dataset(0);
        let net = id.build(&dataset.spec(), 0);
        let weight_bytes = net.weight_bytes(Precision::Fp32);
        let ifm_bytes = net.ifm_bytes(Precision::Fp32);
        println!(
            "{:<14} {:<12} {:>10.1} {:>14.1} | {:>12.1} {:>16.1} {:>9}",
            spec.display_name,
            spec.paper_dataset,
            spec.paper.model_size_mb,
            spec.paper.ifm_weight_size_mb,
            weight_bytes as f64 / 1024.0,
            (weight_bytes + ifm_bytes) as f64 / 1024.0,
            net.param_count()
        );
    }
    println!(
        "\nour stand-ins preserve architecture family and relative ordering, not absolute size"
    );
    println!(
        "(system-level experiments scale traffic back to the paper footprints; see DESIGN.md)."
    );
}
