//! Experiment harnesses reproducing every table and figure of the AN5D
//! paper (CGO 2020).
//!
//! Each experiment is a pure function returning structured rows plus a
//! `print_*` helper that renders the same rows/series the paper reports.
//! Two front-ends reuse the same functions:
//!
//! * the `table1…table5` / `fig6…fig9` binaries (`cargo run -p an5d-bench
//!   --bin table5`), and
//! * the `exp_tables` / `exp_figures` bench targets (so
//!   `cargo bench --workspace` regenerates every table and figure).
//!
//! The library's own speed is measured by the repo benchmark
//! (`benchmark/`), not here.
//!
//! Absolute numbers come from the simulated GPU substrate (`an5d-gpusim`:
//! the blocked schedule run on the CPU, its counted work timed with the
//! Table 4 device data) that stands in for the paper's P100 and V100; the
//! quantities that are exact by construction are the
//! resource tables (Tables 1 and 2), the benchmark definitions (Table 3)
//! and the device table (Table 4). The performance figures reproduce the
//! paper's *shape*: framework ordering, scaling trends and crossovers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;

pub use experiments::{fig6, fig7, fig8, fig9, table1, table2, table3, table4, table5};
