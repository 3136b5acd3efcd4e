//! # cbnet-repro — reproduction suite for CBNet (IPDPS 2024)
//!
//! *A Converting Autoencoder Toward Low-latency and Energy-efficient DNN
//! Inference at the Edge* — Mahmud, Kang, Desai, Lama, Prasad (UTSA).
//!
//! This crate re-exports the whole workspace behind one façade:
//!
//! * [`tensor`] — dense tensors, blocked matmul, im2col, scoped-thread
//!   parallel kernels;
//! * [`nn`] — from-scratch layers / losses / optimizers / serialisation;
//! * [`datasets`] — procedural MNIST/FMNIST/KMNIST-like data with a
//!   controllable hard-image fraction, plus an IDX loader;
//! * [`models`] — LeNet, BranchyNet-LeNet, the converting autoencoder
//!   (Table I), the lightweight classifier, AdaDeep/SubFlow comparators;
//! * [`edgesim`] — calibrated Raspberry Pi 4 / GCI / K80 latency, power
//!   (Eq. 1 & 2) and energy models, [`edgesim::CostProfile`] service-time
//!   distributions (constant / bimodal / measured-empirical), and the
//!   discrete-event serving simulator they drive
//!   ([`edgesim::simulate_fleet`], or [`edgesim::FleetSim`] for sweeps):
//!   one serving pool or a tiered edge–cloud fleet of heterogeneous pools
//!   with pluggable scheduling, admission control, network links, offload
//!   policies and bursty/trace arrival processes, pinned to the closed-form
//!   single-server FIFO loop;
//! * [`runtime`] — the unified [`runtime::InferenceModel`] trait, evaluation
//!   [`runtime::Scenario`]s, and the one generic [`runtime::evaluate`] path
//!   every comparator goes through;
//! * [`cbnet`] — the training pipeline (Fig. 4), the deployable
//!   [`cbnet::CbnetModel`], the [`cbnet::ModelRegistry`] that builds/trains
//!   any comparator by name, and one experiment driver per table/figure.
//!
//! ## Quickstart
//!
//! ```
//! use cbnet_repro::prelude::*;
//!
//! // Generate a small MNIST-like dataset and train the full pipeline.
//! let split = datasets::generate_pair(Family::MnistLike, 400, 100, 7);
//! let cfg = PipelineConfig::for_family(Family::MnistLike).quick(1);
//! let mut arts = cbnet::pipeline::train_pipeline(&split.train, &cfg);
//!
//! // Classify with CBNet: autoencode → lightweight DNN.
//! let preds = arts.cbnet.predict(&split.test.images);
//! assert_eq!(preds.len(), split.test.len());
//!
//! // Price it on a simulated Raspberry Pi 4 through the generic
//! // InferenceModel path (CbnetModel implements the trait).
//! let scenario = Scenario::new(Family::MnistLike, Device::RaspberryPi4);
//! let report = evaluate(&mut arts.cbnet, &split.test, &scenario);
//! assert_eq!(report.model, "CBNet");
//! assert!(report.latency_ms > 0.0);
//!
//! // The same cost profile that priced the report can drive the serving
//! // simulator — service times come from the trained network.
//! let profile = arts.cbnet.cost_profile(&scenario.device_model());
//! assert!((profile.mean_ms() - report.latency_ms).abs() < 1e-12);
//! ```
//!
//! To evaluate *every* comparator the paper compares, train a
//! [`cbnet::ModelRegistry`] and iterate [`cbnet::ModelKind`]s — see the
//! README quickstart and `crates/cbnet/src/registry.rs`.

pub use cbnet;
pub use datasets;
pub use edgesim;
pub use models;
pub use nn;
pub use runtime;
pub use tensor;

/// The most common imports in one place.
pub mod prelude {
    pub use cbnet::{
        self, CbnetModel, ModelKind, ModelRegistry, ModelStore, ModelVersion, PipelineConfig,
    };
    pub use datasets::{self, Dataset, Family};
    pub use edgesim::{
        simulate_fleet, AdmissionPolicy, ArrivalProcess, CostProfile, Device, DeviceModel,
        FleetConfig, FleetReport, FleetSim, NetworkLink, OffloadPolicyKind, PowerModel, RecordMode,
        SchedulerKind, SwapPolicy, Tier, TierSwap,
    };
    pub use models::{
        accuracy, build_lenet, AutoencoderConfig, BranchyNet, BranchyNetConfig,
        ConvertingAutoencoder,
    };
    pub use nn::{Adam, Network, Optimizer};
    pub use runtime::{
        evaluate, BranchyNetModel, ClassifierModel, InferenceModel, ModelReport, Scenario,
        SubFlowModel,
    };
    pub use tensor::Tensor;
}
