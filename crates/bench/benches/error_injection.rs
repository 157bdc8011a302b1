//! Criterion bench: error-injection throughput of the four error models
//! (the operation Section 4 reports Error Model 0 being ~1.3x faster at).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eden_dram::error_model::{ErrorModel, Layout};
use eden_tensor::{Precision, QuantTensor, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_injection(c: &mut Criterion) {
    let t = Tensor::from_vec(
        (0..65_536).map(|i| (i as f32 * 0.01).sin()).collect(),
        &[65_536],
    );
    let stored = QuantTensor::quantize(&t, Precision::Int8);
    let models = [
        ("model0_uniform", ErrorModel::uniform(0.01, 0.5, 1)),
        ("model1_bitline", ErrorModel::bitline(0.01, 0.5, 0.8, 1)),
        ("model2_wordline", ErrorModel::wordline(0.01, 0.5, 0.8, 1)),
        (
            "model3_data_dependent",
            ErrorModel::data_dependent(0.01, 0.7, 0.3, 1),
        ),
    ];
    let mut group = c.benchmark_group("error_injection_64k_int8");
    group.sample_size(20);
    for (name, model) in models {
        group.bench_with_input(BenchmarkId::from_parameter(name), &model, |b, m| {
            // Each iteration is one full load: map the placement, then draw
            // over it with a fresh stream seed.
            let mut rng = StdRng::seed_from_u64(3);
            b.iter(|| {
                let mut q = stored.clone();
                let map = m.weak_map(q.len(), q.bits_per_value(), &Layout::default());
                map.draw(q.stored_mut(), rng.gen(), m.flip_thresholds())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_injection);
criterion_main!(benches);
