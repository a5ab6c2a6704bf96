//! # odenet-suite — reproducing "Accelerating ODE-Based Neural Networks on Low-Cost FPGAs"
//!
//! This umbrella crate re-exports the whole stack and hosts the runnable
//! examples and cross-crate integration tests. The pieces:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`qfixed`] | Q·m.n fixed-point arithmetic (the PL's 32-bit Q20 format) |
//! | [`tensor`] | NCHW tensors; conv/BN/ReLU/pool/FC kernels, f32 + Q20 |
//! | [`odesolve`] | Euler/RK2/RK4/RKF45 solvers, adjoint + unrolled gradients |
//! | [`rodenet`] | the paper's architectures, training, parameter accounting |
//! | [`zynq_sim`] | PYNQ-Z2 substrate simulator: resources, cycles, the `Engine` |
//! | [`cifar_data`] | CIFAR-100 loader + SynthCIFAR procedural stand-in |
//!
//! Deployment goes through [`zynq_sim::engine::Engine`]: configure and
//! validate once, then serve single or batched inference (also see
//! `examples/quickstart.rs`):
//!
//! ```
//! use odenet_suite::prelude::*;
//!
//! let spec = NetSpec::new(Variant::ROdeNet3, 20).with_classes(10);
//! let net = Network::new(spec, 7);
//! let engine = Engine::builder(&net)
//!     .board(&PYNQ_Z2)
//!     .offload(Offload::Auto)
//!     .build()
//!     .expect("placement fits the PYNQ-Z2");
//! assert_eq!(engine.target(), OffloadTarget::Layer32);
//!
//! let image = Tensor::<f32>::zeros(Shape4::new(1, 3, 32, 32));
//! let run = engine.infer(&image).expect("CIFAR-shaped input");
//! assert_eq!(run.logits.shape().c, 10);
//! assert!(run.total_seconds() < 1.0);
//!
//! // Batched serving amortizes the one-time planning + quantization.
//! let runs = engine.infer_batch(&[image.clone(), image]).expect("batch");
//! assert_eq!(BatchSummary::from_runs(&runs).images, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cifar_data;
pub use odesolve;
pub use qfixed;
pub use rodenet;
pub use tensor;
pub use zynq_sim;

/// One-stop imports for applications.
pub mod prelude {
    pub use cifar_data::synth::{generate, generate_split, SynthConfig};
    pub use cifar_data::Dataset;
    pub use odesolve::{ode_solve, ClosureField, Method, SolveOpts};
    pub use qfixed::{QFormat, Q20};
    pub use rodenet::train::{evaluate, train_epochs, TrainConfig};
    pub use rodenet::{
        BnMode, GradMode, LayerName, NetSpec, Network, QuantNetwork, Variant, PAPER_DEPTHS,
    };
    pub use tensor::{Shape4, Tensor};
    pub use zynq_sim::cluster::{
        plan_cluster, Cluster, ClusterPlan, ClusterRequest, Interconnect, Schedule, StageResource,
    };
    pub use zynq_sim::engine::{
        Backend, BackendKind, BatchSummary, Engine, EngineBuilder, EngineError, Offload, RunReport,
    };
    pub use zynq_sim::fault::{
        serve_faulted, AvailabilityReport, FailoverRecord, FaultEvent, FaultPlan, HealthMonitor,
        HealthPolicy,
    };
    pub use zynq_sim::partition::{partition_placement, resource_busy, Partitioner};
    pub use zynq_sim::plan::{plan_deployment, DeploymentPlan, PlFormat, PlanRequest};
    pub use zynq_sim::planner::{plan_offload, OffloadTarget};
    pub use zynq_sim::precision::{Precision, StageFormats};
    pub use zynq_sim::replica::{ReplicaPlan, Replication};
    pub use zynq_sim::serve::{
        ArrivalProcess, Dispatch, LoadPoint, LoadSweep, ServeReport, ServeRequest, Window,
        WindowReport,
    };
    pub use zynq_sim::timing::{paper_row, PlModel, PsModel};
    pub use zynq_sim::trace::{
        check_chrome_json, FaultTraceEvent, Metrics, Recorder, StallBreakdown, Trace,
    };
    pub use zynq_sim::{ode_block_resources, OdeBlockAccel, ARTY_Z7_10, ARTY_Z7_20, PYNQ_Z2};
}
