//! # odesolve — ODE solvers and adjoint gradients for ODENet
//!
//! Implements Section 2.2/2.3 of the paper:
//!
//! * [`ode_solve`] — the `ODESolve(z(t0), t0, t1, f)` function
//!   (Equation 4) with fixed-step [`Method::Euler`] (the paper's
//!   prediction-time solver), [`Method::Midpoint`] (second-order
//!   Runge–Kutta) and [`Method::Rk4`] (fourth-order), all generic over
//!   the scalar type so the Q20 PL datapath can drive them;
//! * [`adjoint`] — the training-time gradient computations of
//!   Equations 7–9: the memory-efficient **adjoint method** (backward
//!   recomputation of z(t), constant memory) and the exact **unrolled**
//!   discretize-then-optimize backward pass, whose disagreement is the
//!   accuracy-loss issue the paper cites from ANODE.
//!
//! ```
//! use odesolve::{ode_solve, ClosureField, Method, SolveOpts};
//! use tensor::{Shape4, Tensor};
//!
//! // dz/dt = -z, z(0) = 1  =>  z(1) = e^-1.
//! let f = ClosureField::new(|z: &Tensor<f32>, _t| z.map(|v| -v));
//! let z0 = Tensor::full(Shape4::new(1, 1, 1, 1), 1.0f32);
//! let z1 = ode_solve(&f, &z0, SolveOpts::new(0.0, 1.0, 1000, Method::Rk4));
//! assert!((z1.get(0, 0, 0, 0) - (-1.0f32).exp()).abs() < 1e-5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjoint;
mod field;
mod fixed_step;

pub use field::{ClosureField, OdeField, OdeVjp};
pub use fixed_step::{ode_solve, ode_solve_trajectory, Method, SolveOpts};
