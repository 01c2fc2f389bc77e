//! The experiment harness: functions that regenerate every table and
//! figure of the paper, shared by the `repro` binary's experiment
//! table, the self-timed benches, and the integration tests.
//!
//! Each experiment takes a [`Scenario`] (node count, work scale, seed)
//! so the same code can run paper-scale sweeps from the binaries and
//! quick-shape checks from the test suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod experiments;
pub mod obs;
pub mod repro;
pub mod timing;

pub use args::Scenario;
pub use experiments::{
    block_size_sweep, bus_sweep, cache_size_sweep, cost_ratio_table, exec_time_comparison,
    policy_ablation, render_message_rows, run_protocol, try_run_protocol, try_run_protocol_traced,
    BusComparison, ExecComparison, MessageRow, RunOptions, BLOCK_SIZES, CACHE_SIZES_KB,
};
pub use obs::ObsOptions;

/// Default work-scale of the experiments: large enough for stable
/// percentages, small enough to finish a full table in minutes.
pub const DEFAULT_SCALE: f64 = 0.1;
