//! # wht-measure — the measurement substrate (PAPI substitute)
//!
//! The paper measures cycle counts, instruction counts, and data-cache
//! misses with PAPI 1.3.2 on an Opteron 224. This crate reproduces each
//! counter (see DESIGN.md §3 for the substitution argument):
//!
//! | paper counter | here |
//! |---------------|------|
//! | PAPI cycles   | [`timer`] — wall-clock median timing of the real engine; [`simcycles`] — deterministic cycles on a simulated Opteron |
//! | PAPI instructions | [`instrumented`] — hook-driven operation counting of the exact loop nest |
//! | PAPI L1 data misses | [`trace`] — exact memory trace through `wht-cachesim` hierarchies |
//!
//! [`record::measure_plan`] bundles all of them into one [`Measurement`]
//! per algorithm — a row of the paper's experimental data.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod instrumented;
pub mod policy_trace;
pub mod record;
pub mod simcycles;
pub mod timer;
pub mod trace;

pub use instrumented::{
    compiled_instruction_count, compiled_op_counts, measured_instruction_count, measured_op_counts,
    InstructionCounter,
};
pub use policy_trace::{opteron_l1_policy_misses, policy_trace_misses};
pub use record::{measure_plan, MeasureOptions, Measurement};
pub use simcycles::{simulated_cycles, SimMachine};
pub use timer::{time_compiled_plan, time_plan, TimingConfig, TimingResult};
pub use trace::{
    direct_mapped_unit_misses, opteron_misses, super_pass_traffic, trace_misses,
    trace_misses_compiled, SuperPassTraffic, TraceExecutor,
};
