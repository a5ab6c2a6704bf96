//! Cost of the fixed-step ODE solvers per solve on block-shaped states.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use odesolve::{ode_solve, ClosureField, Method, SolveOpts};
use std::time::Duration;
use tensor::{Shape4, Tensor};

fn bench_fixed_step(c: &mut Criterion) {
    // A cheap nonlinear field over a layer3_2-shaped state.
    let field = ClosureField::new(|z: &Tensor<f32>, t: f32| z.map(|v| (t - 0.5) * v - 0.1 * v * v));
    let z0 = Tensor::from_fn(Shape4::new(1, 64, 8, 8), |_, c, h, w| {
        ((c + h + w) % 7) as f32 * 0.1 - 0.3
    });
    let mut g = c.benchmark_group("ode_solve_8steps");
    g.measurement_time(Duration::from_secs(3));
    g.warm_up_time(Duration::from_secs(1));
    for method in [Method::Euler, Method::Midpoint, Method::Rk4] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{method:?}")),
            &(),
            |b, _| {
                b.iter(|| black_box(ode_solve(&field, &z0, SolveOpts::new(0.0, 1.0, 8, method))))
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_fixed_step);
criterion_main!(benches);
