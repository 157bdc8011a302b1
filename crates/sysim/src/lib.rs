//! # eden-sysim
//!
//! System-level models used by the paper's evaluation (Section 7): a
//! trace-driven multi-core CPU with a three-level cache hierarchy and a DDR4
//! memory subsystem (Table 4, simulated in the paper with ZSim + Ramulator),
//! a Titan X-class GPU (Table 5, GPGPU-Sim + GPUWattch), and two systolic
//! DNN inference accelerators — Eyeriss and the TPU (Table 6, SCALE-Sim) —
//! all sharing a DRAMPower-style energy model from `eden-dram`.
//!
//! These are first-order analytical models driven by per-layer DRAM traffic
//! and compute profiles of the evaluated DNNs ([`workload`]): DRAM energy is
//! per-command energy scaled by `VDD²`, and execution time exposes the
//! portion of row-activation latency (`tRCD`) that prefetchers and
//! memory-level parallelism cannot hide. `DESIGN.md` documents why this
//! substitution preserves the behaviour the paper measures.
//!
//! # Example
//!
//! ```
//! use eden_sysim::{cpu::CpuSim, workload::WorkloadProfile};
//! use eden_dnn::zoo::ModelId;
//! use eden_dram::OperatingPoint;
//! use eden_tensor::Precision;
//!
//! let workload = WorkloadProfile::for_model(ModelId::Yolo, Precision::Int8);
//! let cpu = CpuSim::table4();
//! let nominal = cpu.run(&workload, &OperatingPoint::nominal());
//! let reduced = cpu.run(&workload, &OperatingPoint::with_trcd_reduction(5.5));
//! assert!(reduced.time_ns <= nominal.time_ns);
//! ```

pub mod accelerator;
pub mod cpu;
pub mod gpu;
pub mod result;
pub mod sim;
pub mod workload;

pub use accelerator::{AcceleratorConfig, AcceleratorSim};
pub use cpu::{CpuConfig, CpuSim};
pub use eden_dram::system::TrafficShare;
pub use gpu::{GpuConfig, GpuSim};
pub use result::SystemResult;
pub use sim::{accelerator_sims, standard_sims, SystemSim};
pub use workload::WorkloadProfile;
