//! `an5d-tunedb`: the persisted tuning database.
//!
//! AN5D's central product is the auto-tuned temporal-blocking
//! configuration for a `(stencil, problem, device)` triple, yet without
//! persistence every process re-runs the Section 6.3 search from
//! scratch. This crate stores tuning results on disk so a restarted
//! `an5d-serve` answers previously-tuned queries without invoking the
//! tuner at all — and warms each device's plan-cache shard from its
//! stored winners at startup.
//!
//! # Architecture
//!
//! * `log` — the std-only on-disk format: an append-only,
//!   length-prefixed JSON record log with a per-record FNV-1a 64
//!   checksum, truncation-tolerant recovery (a crash-torn tail is
//!   chopped; a flipped bit loses one record, not the file) and
//!   periodic compaction.
//! * [`codec`] — explicit JSON (de)serialisation of [`TuneKey`] and
//!   [`an5d_tuner::TuningResult`] (the vendored `serde` is a shim), via
//!   the deterministic [`json`] layer whose `f64` rendering round-trips
//!   bit-exactly.
//! * `db` — [`TuneDb`]: an in-memory `BTreeMap` index over the log,
//!   shared behind a mutex by the service's connection workers.
//!
//! Keys use the canonical, order-insensitive fingerprints of
//! `an5d-tuner` ([`an5d_tuner::stencil_fingerprint`],
//! [`an5d_tuner::SearchSpace::fingerprint`]) and the stable
//! [`an5d_gpusim::DeviceId`], so entries survive benchmark and device
//! profile renames and map 1:1 onto the service's per-device fleet
//! shards.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod db;
pub mod json;
pub(crate) mod log;

pub use codec::{Record, TuneKey};
pub use db::{TuneDb, TuneDbStats, TUNE_DB_ENV};
