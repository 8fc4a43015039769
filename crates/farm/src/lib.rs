//! `ape-farm`: a concurrent batch-estimation and design-space-sweep engine
//! for the APE analog performance estimator.
//!
//! The estimator itself ([`ape_core`]) answers one question — "what does
//! this sized circuit do?" — in microseconds to milliseconds. Synthesis
//! front-ends want to ask that question thousands of times: topology
//! races, specification sweeps, seeding experiments. This crate turns the
//! single-shot estimator into a throughput engine:
//!
//! * a typed job model ([`Request`]/[`Response`]) covering op-amp design,
//!   netlist estimation, and full annealing synthesis;
//! * a [`Farm`] that admits jobs into a bounded FIFO backlog with blocking
//!   *and* fail-fast submission, so producers feel backpressure instead of
//!   growing an unbounded one, and drains it with at most
//!   [`FarmConfig::workers`] runners on the shared [`ape_exec`] executor —
//!   with per-job deadlines, cooperative cancellation (via
//!   [`ape_core::cancel`]), and panic isolation: a panicking job fails
//!   that job, not the farm;
//! * a content-addressed, single-flight result cache
//!   ([`cache::ResultCache`]): identical requests are computed once,
//!   whether they collide in flight or arrive after completion;
//! * a sweep driver ([`SweepPlan`]) that runs every point of a parameter
//!   grid straight on the shared executor, through the same execution
//!   path as a queued job but without a backlog slot, handle or
//!   result-cache entry (sweep points never populate the
//!   [`ResultCache`]), reduces the results to an area/power/gain-error
//!   Pareto front, and streams the lot as deterministic JSON Lines.
//!
//! Determinism is a design constraint, not an accident: sweeps produce
//! byte-identical output whatever the worker count, because every job and
//! sweep point is executed as a pure function of `(technology, request)` —
//! the estimation graph's bit-exact memo keys make a warm worker return
//! exactly what a cold one would (the sparse solver's symbolic cache, whose
//! pivot orders do depend on history, is reset before every job; see
//! [`Farm::solver_cache_report`]) — and results are collected in grid
//! order.
//!
//! Everything is built on `std` only — no external dependencies — and the
//! whole stack is instrumented with [`ape_probe`] spans, counters, and
//! gauges (`farm.*` names).

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod job;
pub mod pool;
pub mod sweep;

pub use cache::{Claim, ResultCache};
pub use job::{canonical_key, FarmError, Request, Response};
pub use pool::{Farm, FarmConfig, FarmStats, JobHandle, SubmitOptions};
pub use sweep::{SweepMetrics, SweepPlan, SweepPoint, SweepRecord, SweepReport};
