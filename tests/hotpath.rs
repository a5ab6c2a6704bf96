//! PS hot-path pins: the im2col/GEMM fast kernels must actually be fast,
//! and nothing about threading may change the numbers.
//!
//! * `fast_path_speedup_…` — batch-32 ODENet-20 on the pure-software
//!   `PsSoftware` backend must run ≥2× faster wall-clock on the fast
//!   path than on the retained scalar reference path, with bit-identical
//!   logits. The 2× threshold is deliberately conservative: the measured
//!   margin on a single x86 core is ~16–19× (see `repro -- hotpath`), so
//!   the pin survives slow CI machines while still catching a
//!   regression that silently reroutes the hot path.
//! * `thread_count_invariance_…` — logits and modelled `RunReport`
//!   timings are identical under `par::set_threads(1)` and
//!   `set_threads(8)`, for both a PsSoftware and a Hybrid batch. Batch
//!   parallelism writes into disjoint per-image slots and the timing
//!   model is input-independent, so any divergence is a bug.
//!
//! Both tests mutate process-global state (`set_force_reference`,
//! `set_threads`), so they serialize on one mutex.

use std::sync::Mutex;
use std::time::Instant;

use rodenet::{NetSpec, Network, Variant};
use tensor::conv::set_force_reference;
use tensor::{par, Shape4, Tensor};
use zynq_sim::engine::{Engine, Offload, RunReport};
use zynq_sim::planner::OffloadTarget;

/// Serializes tests that flip process-global knobs.
static GLOBAL_KNOBS: Mutex<()> = Mutex::new(());

fn images(count: usize, hw: usize, seed: u64) -> Vec<Tensor<f32>> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    (0..count)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(seed + i as u64);
            Tensor::from_fn(Shape4::new(1, 3, hw, hw), |_, _, _, _| {
                rng.random::<f32>() * 2.0 - 1.0
            })
        })
        .collect()
}

fn assert_reports_identical(a: &[RunReport], b: &[RunReport]) {
    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(ra.logits.as_slice(), rb.logits.as_slice(), "logits");
        assert_eq!(ra.ps_seconds, rb.ps_seconds, "modelled PS seconds");
        assert_eq!(ra.pl_seconds, rb.pl_seconds, "modelled PL seconds");
        assert_eq!(ra.dma_words, rb.dma_words, "DMA words");
        assert_eq!(ra.offloaded, rb.offloaded, "offloaded layers");
        assert_eq!(ra.backend, rb.backend, "backend name");
    }
}

#[test]
fn fast_path_speedup_at_least_2x_batch32_ps_software() {
    let _guard = GLOBAL_KNOBS.lock().unwrap_or_else(|p| p.into_inner());
    let net = Network::new(NetSpec::new(Variant::OdeNet, 20).with_classes(100), 11);
    let engine = Engine::builder(&net)
        .offload(Offload::Target(OffloadTarget::None))
        .build()
        .expect("pure-software placement always fits");
    let batch = images(32, 32, 4242);

    // Warm both paths once (page in weights, allocators), then time.
    // min-of-2 for the fast path damps scheduler noise; the reference
    // path is expensive enough that a single timed run is stable.
    set_force_reference(true);
    let reference_runs = engine.infer_batch(&batch).expect("reference batch");
    let t0 = Instant::now();
    let reference_runs2 = engine.infer_batch(&batch).expect("reference batch");
    let reference_secs = t0.elapsed().as_secs_f64();
    set_force_reference(false);

    let fast_runs = engine.infer_batch(&batch).expect("fast batch");
    let mut fast_secs = f64::INFINITY;
    for _ in 0..2 {
        let t0 = Instant::now();
        let runs = engine.infer_batch(&batch).expect("fast batch");
        fast_secs = fast_secs.min(t0.elapsed().as_secs_f64());
        assert_reports_identical(&runs, &fast_runs);
    }

    // Bit-identity first: speed means nothing if the logits moved.
    assert_reports_identical(&reference_runs, &reference_runs2);
    assert_reports_identical(&reference_runs, &fast_runs);

    assert!(
        reference_secs >= 2.0 * fast_secs,
        "fast path must be >=2x the reference: reference {reference_secs:.3}s, \
         fast {fast_secs:.3}s ({:.1}x)",
        reference_secs / fast_secs
    );
}

#[test]
fn thread_count_invariance_ps_software_and_hybrid() {
    let _guard = GLOBAL_KNOBS.lock().unwrap_or_else(|p| p.into_inner());
    let orig = par::threads();
    let net = Network::new(NetSpec::new(Variant::ROdeNet3, 20).with_classes(10), 7);
    let software = Engine::builder(&net)
        .offload(Offload::Target(OffloadTarget::None))
        .build()
        .expect("software placement fits");
    let hybrid = Engine::builder(&net)
        .offload(Offload::Target(OffloadTarget::Layer32))
        .build()
        .expect("layer3_2 fits the default board");
    let batch = images(6, 16, 99);

    for engine in [&software, &hybrid] {
        par::set_threads(1);
        let single = engine.infer_batch(&batch).expect("single-thread batch");
        par::set_threads(8);
        let pooled = engine.infer_batch(&batch).expect("8-thread batch");
        assert_reports_identical(&single, &pooled);
    }
    par::set_threads(orig);
}
