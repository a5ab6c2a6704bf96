//! Property tests for the solver crate: structural identities that hold
//! for whole families of fields, not just the unit-test examples.

use odesolve::{ode_solve, ode_solve_trajectory, ClosureField, Method, SolveOpts};
use proptest::prelude::*;
use tensor::{Shape4, Tensor};

fn state(values: Vec<f32>) -> Tensor<f32> {
    Tensor::from_vec(Shape4::new(1, 1, 1, values.len()), values)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Linearity: for dz/dt = a(t)·z, solves scale linearly in z0 (all
    /// fixed-step methods are linear maps for linear fields).
    #[test]
    fn solves_are_linear_for_linear_fields(
        z0 in -3.0f32..3.0,
        scale in -2.0f32..2.0,
        steps in 1usize..16,
    ) {
        for method in [Method::Euler, Method::Midpoint, Method::Rk4] {
            let f = ClosureField::new(|z: &Tensor<f32>, t: f32| z.map(|v| (0.3 * t - 0.5) * v));
            let opts = SolveOpts::new(0.0, 1.0, steps, method);
            let a = ode_solve(&f, &state(vec![z0]), opts);
            let b = ode_solve(&f, &state(vec![z0 * scale]), opts);
            prop_assert!(
                (a.get(0, 0, 0, 0) * scale - b.get(0, 0, 0, 0)).abs() < 1e-4,
                "{method:?}"
            );
        }
    }

    /// Autonomy: for a time-independent field, shifting the time window
    /// leaves the solution unchanged.
    #[test]
    fn autonomous_fields_are_time_shift_invariant(
        z0 in 0.1f32..2.0,
        shift in -5.0f32..5.0,
        steps in 1usize..12,
    ) {
        let f = ClosureField::new(|z: &Tensor<f32>, _t: f32| z.map(|v| -0.4 * v));
        let a = ode_solve(&f, &state(vec![z0]), SolveOpts::new(0.0, 1.0, steps, Method::Euler));
        let b = ode_solve(
            &f,
            &state(vec![z0]),
            SolveOpts::new(shift, shift + 1.0, steps, Method::Euler),
        );
        prop_assert!((a.get(0, 0, 0, 0) - b.get(0, 0, 0, 0)).abs() < 1e-5);
    }

    /// Composition: integrating [0, 1] in one solve equals integrating
    /// [0, ½] then [½, 1] with the same step density.
    #[test]
    fn solves_compose(steps in 1usize..10, lam in -1.0f32..0.5) {
        let f = ClosureField::new(move |z: &Tensor<f32>, _t| z.map(|v| lam * v));
        let whole = ode_solve(&f, &state(vec![1.0]), SolveOpts::new(0.0, 1.0, 2 * steps, Method::Euler));
        let first = ode_solve(&f, &state(vec![1.0]), SolveOpts::new(0.0, 0.5, steps, Method::Euler));
        let second = ode_solve(&f, &first, SolveOpts::new(0.5, 1.0, steps, Method::Euler));
        prop_assert!((whole.get(0, 0, 0, 0) - second.get(0, 0, 0, 0)).abs() < 1e-5);
    }

    /// The trajectory's last element always equals the plain solve, and
    /// consecutive entries satisfy the Euler recurrence exactly.
    #[test]
    fn trajectory_satisfies_recurrence(steps in 1usize..12, lam in -1.0f32..1.0) {
        let f = ClosureField::new(move |z: &Tensor<f32>, _t| z.map(|v| lam * v));
        let opts = SolveOpts::new(0.0, 1.0, steps, Method::Euler);
        let traj = ode_solve_trajectory(&f, &state(vec![1.0]), opts);
        prop_assert_eq!(traj.len(), steps + 1);
        let h = opts.h();
        for i in 0..steps {
            let z = traj[i].get(0, 0, 0, 0);
            let expect = z + h * lam * z;
            prop_assert!((traj[i + 1].get(0, 0, 0, 0) - expect).abs() < 1e-6);
        }
    }

    /// Higher-order methods never do worse than Euler on smooth decay.
    #[test]
    fn order_hierarchy(steps in 2usize..12) {
        let f = ClosureField::new(|z: &Tensor<f32>, _t| z.map(|v| -v));
        let exact = (-1.0f32).exp();
        let err = |m: Method| -> f32 {
            let z = ode_solve(&f, &state(vec![1.0]), SolveOpts::new(0.0, 1.0, steps, m));
            (z.get(0, 0, 0, 0) - exact).abs()
        };
        let (e1, e2, e4) = (err(Method::Euler), err(Method::Midpoint), err(Method::Rk4));
        prop_assert!(e2 <= e1 * 1.05, "midpoint {e2} vs euler {e1}");
        prop_assert!(e4 <= e2 * 1.05, "rk4 {e4} vs midpoint {e2}");
    }

    /// Vector states integrate component-wise for diagonal fields.
    #[test]
    fn diagonal_fields_decouple(a in -1.0f32..0.5, b in -1.0f32..0.5) {
        let f = ClosureField::new(move |z: &Tensor<f32>, _t| {
            let mut out = z.clone();
            let s = out.as_mut_slice();
            s[0] *= a;
            s[1] *= b;
            out
        });
        let opts = SolveOpts::new(0.0, 1.0, 32, Method::Rk4);
        let joint = ode_solve(&f, &state(vec![1.0, 1.0]), opts);
        // Each component should match the scalar solve with its own rate.
        for (idx, lam) in [(0usize, a), (1, b)] {
            let g = ClosureField::new(move |z: &Tensor<f32>, _t| z.map(|v| lam * v));
            let solo = ode_solve(&g, &state(vec![1.0]), opts);
            prop_assert!(
                (joint.as_slice()[idx] - solo.get(0, 0, 0, 0)).abs() < 1e-5,
                "component {idx}"
            );
        }
    }
}
