//! # accelerometer-bench
//!
//! The reproduction harness: regenerates every table (Tables 1–7) and
//! figure (Figs. 1–22) of the Accelerometer paper from this repository's
//! model, datasets, profiler, and simulator.
//!
//! * `accelctl tables all`
//! * `accelctl figures fig20`
//! * `accelctl figures fig19 --json`
//! * `accelctl ablations`
//!
//! Criterion micro-benchmarks live under `benches/`: kernel benchmarks
//! that re-derive the model's `Cb`/`A` parameters the way §4's
//! methodology prescribes, model-evaluation benchmarks, and simulator
//! throughput benchmarks.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod design_space;
pub mod figures;
pub mod render;
pub mod tables;

pub use figures::{figure, figure_json, FIGURE_IDS};
pub use tables::{render_table, TABLE_IDS};
