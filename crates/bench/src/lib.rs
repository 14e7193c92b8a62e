//! # mdbgp-bench — experiment harness
//!
//! One binary per table/figure of the paper (see `src/bin/`), plus the
//! streaming bench `stream_online`, the `mdbgp_cli` tool and the
//! `metrics_check` dump validator. The library part hosts the shared
//! machinery:
//!
//! * [`datasets`] — the registry of scaled-down synthetic proxies standing
//!   in for the paper's SNAP / Facebook graphs (see DESIGN.md for the
//!   substitution rationale),
//! * [`policies`] — the partitioning policies compared throughout §4
//!   (hash / vertex / edge / vertex-edge and the baseline algorithms),
//! * [`table`] — plain-text tables and bar charts that mimic the paper's
//!   figures in a terminal,
//! * [`perfgate`] — the CI perf-regression gate: the one perf-record
//!   schema `stream_online --json-out` writes in every mode, and the
//!   machine-independent comparison against the committed
//!   `BENCH_stream*.json` baselines,
//! * [`churn`] — the arrival and removal scripts and the id tracking
//!   that drive update streams through `stream_online` and
//!   `mdbgp_cli stream`.

pub mod churn;
pub mod curves;
pub mod datasets;
pub mod perfgate;
pub mod policies;
pub mod table;

pub use datasets::Dataset;
pub use policies::Policy;
