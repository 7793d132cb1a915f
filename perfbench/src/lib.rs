//! End-to-end and per-layer benchmark of the intrinsic-verify pipeline.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>` runs
//! one workload (see [`workloads`]) for about `s` seconds, checks every
//! verdict against a hand-written table of known answers, and prints its
//! metrics as one JSON object on the last line of standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a separate
//! traced run with `--trace 1`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod mutants;
pub mod run;
pub mod workloads;
