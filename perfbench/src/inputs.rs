//! Workload inputs, generated from the workload seed by the benchmark
//! itself: SynthCIFAR images, Poisson arrival streams, fault instants
//! and kernel operands. The program under test receives the generated
//! values, not the seed; only `Network::new` is handed the seed, to draw
//! the deployed network's weights.

use cifar_data::synth::{generate, SynthConfig};
use tensor::{Shape4, Tensor};

/// SplitMix64: a small, well-mixed generator that shares no code with
/// the library's `rand` stand-in.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seed of operation `op` of a run seeded with `seed`: every op
/// gets its own stream, and the same (seed, op) always the same one.
pub fn op_seed(seed: u64, op: usize) -> u64 {
    SplitMix::new(seed ^ (op as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// `n` exponential inter-arrival gaps of a Poisson stream at `rate`
/// images per second.
pub fn poisson_gaps(rate: f64, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix::new(seed);
    (0..n).map(|_| -(1.0 - rng.unit()).ln() / rate).collect()
}

/// Absolute arrival instants of a gap stream, summed in the same order
/// as `ArrivalProcess::Trace` sums them, so the two agree bit for bit.
pub fn arrivals_of(gaps: &[f64]) -> Vec<f64> {
    let mut t = 0.0f64;
    gaps.iter()
        .map(|g| {
            t += g;
            t
        })
        .collect()
}

/// `n` single-image SynthCIFAR tensors (3×32×32).
pub fn synth_images(n: usize, seed: u64) -> Vec<Tensor<f32>> {
    let data = generate(&SynthConfig {
        classes: n,
        per_class: 1,
        seed,
        ..SynthConfig::default()
    });
    (0..n).map(|i| data.images.item_tensor(i)).collect()
}

/// A tensor of uniform values in `[-1, 1)`.
pub fn uniform_tensor(shape: Shape4, seed: u64) -> Tensor<f32> {
    let mut rng = SplitMix::new(seed);
    Tensor::from_fn(shape, |_, _, _, _| (rng.unit() * 2.0 - 1.0) as f32)
}
