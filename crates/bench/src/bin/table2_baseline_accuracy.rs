//! Table 2: baseline accuracy of every model at int4 / int8 / int16 / FP32
//! on reliable DRAM (no bit errors), after post-training quantization.

use eden_bench::report;
use eden_dnn::zoo::ModelId;
use eden_dnn::{metrics, Dataset};
use eden_tensor::Precision;

fn main() {
    report::init_threads();
    report::header(
        "Table 2",
        "baseline accuracy per numeric precision on reliable DRAM",
    );
    println!(
        "{:<14} {:>8} {:>8} {:>8} {:>8}   (paper FP32)",
        "model", "int4", "int8", "int16", "FP32"
    );
    for id in ModelId::all() {
        let (net, dataset) = eden_bench::report::train_model(id, 6, 1);
        print!("{:<14}", id.spec().display_name);
        for precision in Precision::all() {
            // Post-training quantization: a clone loaded with the clean
            // stored bits of every weight.
            let mut q = net.clone();
            q.load_clean_weights(&net.weight_images(precision));
            let acc = metrics::accuracy(&q, dataset.test());
            print!(" {:>8}", eden_bench::report::pct(acc as f64));
        }
        let paper_fp32 = id.spec().paper.baseline_accuracy[3]
            .map(|a| format!("{:.1}%", 100.0 * a))
            .unwrap_or_else(|| "—".to_string());
        println!("   ({paper_fp32})");
    }
    println!("\npaper shape: accuracy grows with precision; int4 collapses for some models;");
    println!("absolute values differ because our models/datasets are synthetic stand-ins.");
}
