//! # half-price — reproduction of *Half-Price Architecture* (ISCA 2003)
//!
//! This crate is the front door of the workspace: it re-exports
//! [`hpa_core`], whose crate docs describe the full experiment API. See the
//! repository `README.md` for a tour, `DESIGN.md` for the system inventory
//! and per-experiment index, and `EXPERIMENTS.md` for paper-vs-measured
//! results.
//!
//! ```
//! use half_price::{run, MachineWidth, RunSpec, Scheme};
//! use half_price::workloads::{workload, Scale};
//!
//! # fn main() -> Result<(), half_price::RunError> {
//! let bzip = workload("bzip", Scale::Tiny).expect("built-in");
//! let r = run(&RunSpec::workload(&bzip, Scheme::Combined, MachineWidth::Four))?;
//! println!("bzip under the half-price architecture: {:.2} IPC", r.stats.ipc());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hpa_core::*;
pub use hpa_faultsim as faultsim;
pub use hpa_sdk as sdk;
pub use hpa_serve as serve;
pub use hpa_verify as verify;
