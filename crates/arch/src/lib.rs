//! # f1-arch — the F1 architecture description and hardware models
//!
//! The compiler consumes an architecture description file (Fig 3) and the
//! simulator charges time and energy against it. This crate provides:
//!
//! * [`config`] — [`config::ArchConfig`]: clusters, lanes, functional
//!   units, scratchpad, HBM, NoC and the dual-frequency design of §6,
//!   plus the FU latency/occupancy model the static scheduler relies on.
//! * [`area`] — the area/TDP model that regenerates Table 2 and scales
//!   with the configuration for Fig 11's design-space exploration.
//! * [`energy`] — per-event energies behind Fig 9b's power breakdown.
//! * [`heax`] — the HEAX_σ comparator model used by Table 4
//!   (a fixed-pipeline FPGA accelerator with low-throughput FUs; see
//!   that module for the substitution rationale).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod config;
pub mod energy;
pub mod heax;

pub use area::{AreaBreakdown, AreaRow};
pub use config::ArchConfig;
pub use energy::EnergyModel;
