//! Figure/table reproduction harness for the GPS evaluation (§7).
//!
//! [`figures`] renders each table and figure of the paper as text, in the
//! same rows/series the paper reports, on top of the measurement machinery
//! in `gps-harness` (steady-state timing, run records, the worker pool).
//! The `figures` binary dispatches on a figure id (`fig1`, `fig8`, ...,
//! `table1`, `tlb`, `pagesize`, `all`, `extras`); with `--store <path>`
//! the default-machine figures resume from a `gps-harness` result store
//! instead of rerunning every simulation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;

pub use figures::FigureCtx;
