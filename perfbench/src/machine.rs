//! The machine-speed reference: a fixed kernel, owned by the benchmark, that
//! is timed around every set-up and between passes.
//!
//! On a machine shared with other tenants the same code runs at different
//! speeds from one minute to the next: the same seed's median pass time
//! moves by 30% and more between runs, and the reference kernel slows down
//! with it. Every end-to-end time is therefore reported at reference speed:
//! multiplied by [`REFERENCE_S`] over the mean time of the two probes of the
//! kernel that bracket it (the probe just before a set-up or a group of
//! passes and the one just after). The
//! kernel calls nothing of the repository, so no change to the program can
//! move it. The raw times and every probe are printed on stderr, and the
//! traced run reports the median probe and scale (`machine.probe_ms`,
//! `machine.scale`).

use std::sync::Mutex;
use std::time::Instant;

/// The kernel's typical time on the machine the bounds were tuned on (a
/// 2-vCPU x86-64 VM); it only fixes the unit of the scaled times.
pub const REFERENCE_S: f64 = 0.045;

static PROBES: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// Single-threaded, cache-resident loops of the three kinds the program's
/// inner loops are made of: dependent scalar multiply-adds, a vectorised f32
/// dot product and a vectorised i8 dot product (AVX2 where the CPU has it,
/// as the program's integer GEMM does). Of the kernels tried on the shared
/// VM (each part alone, an i8 loop on every core at once, a 16 MiB copy),
/// this mix tracked the pass time of every workload best; the AVX2 i8 part
/// alone tracked `sweep` to 2% through a 1.6× slowdown of the machine.
fn kernel() -> f64 {
    let v: Vec<f32> = (0..32 * 1024).map(|i| (i % 7) as f32 * 0.5).collect();
    let w: Vec<f32> = (0..32 * 1024).map(|i| (i % 5) as f32).collect();
    let a: Vec<i8> = (0..64 * 1024).map(|i| (i % 251) as i8).collect();
    let b: Vec<i8> = (0..64 * 1024).map(|i| (i % 13) as i8).collect();
    let mut lanes = [0.0f32; 8];
    for r in 0..200 {
        for c in std::hint::black_box(&v).chunks_exact(8) {
            for j in 0..8 {
                lanes[j] = lanes[j].mul_add(c[j], r as f32 * 1e-6);
            }
        }
    }
    let mut total = lanes.iter().sum::<f32>() as f64;
    for _ in 0..2000 {
        total += dot_f32(&v, &w) as f64;
    }
    total + dot_i8_reps(&a, &b, 1500) as f64
}

fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 16];
    for (x, y) in std::hint::black_box(a)
        .chunks_exact(16)
        .zip(b.chunks_exact(16))
    {
        for j in 0..16 {
            acc[j] += x[j] * y[j];
        }
    }
    acc.iter().sum()
}

#[inline(always)]
fn dot_i8(a: &[i8], b: &[i8], reps: usize) -> i32 {
    let mut total = 0i32;
    for r in 0..reps {
        let mut acc = [0i32; 16];
        for (x, y) in std::hint::black_box(a)
            .chunks_exact(16)
            .zip(b.chunks_exact(16))
        {
            for j in 0..16 {
                acc[j] += x[j] as i32 * y[j] as i32;
            }
        }
        total = total
            .wrapping_add(acc.iter().sum::<i32>())
            .wrapping_add(r as i32);
    }
    total
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_i8_avx2(a: &[i8], b: &[i8], reps: usize) -> i32 {
    dot_i8(a, b, reps)
}

fn dot_i8_reps(a: &[i8], b: &[i8], reps: usize) -> i32 {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2 (checked just above).
        return unsafe { dot_i8_avx2(a, b, reps) };
    }
    dot_i8(a, b, reps)
}

/// Times the kernel once, records it and returns its time in seconds.
pub fn probe() -> f64 {
    let start = Instant::now();
    std::hint::black_box(kernel());
    let took = start.elapsed().as_secs_f64();
    PROBES.lock().expect("probe log").push(took);
    took
}

/// Every probe of this run, in seconds.
pub fn probes() -> Vec<f64> {
    PROBES.lock().expect("probe log").clone()
}

/// Factor that brings a time measured between two probes, taking `before`
/// and `after` seconds, to reference speed.
pub fn scale(before: f64, after: f64) -> f64 {
    REFERENCE_S / ((before + after) / 2.0)
}
