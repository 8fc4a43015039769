//! `ape-serve`: a persistent multi-tenant estimation daemon over
//! [`ape-farm`](ape_farm).
//!
//! The paper's pitch is that APE makes analog performance estimation cheap
//! enough to sit in a synthesis inner loop. A per-process worker pool whose
//! memos die with the sweep wastes that cheapness across *clients*; this
//! crate keeps a resident [`Farm`](ape_farm::Farm) — with the pool-wide
//! shared estimation graph — behind a line-delimited JSON protocol on TCP,
//! so many clients amortize one warm estimator.
//!
//! - [`proto`] — the wire grammar: ops, envelopes, typed error codes.
//! - [`server`] — the daemon: accept loop, admission control,
//!   cancellation tree, `/metrics`.
//! - [`client`] — a small blocking client (bench, checks, tests).
//! - [`json`] — the workspace's one JSON codec (the `ape-json` crate,
//!   re-exported here as the wire API): its float output round-trips
//!   bit-exactly, and calibration persistence uses the same encoding.
//!
//! # A one-minute session
//!
//! ```
//! use ape_serve::{client::Client, json::{obj, n, s}, Server, ServerConfig};
//! use ape_netlist::Technology;
//!
//! let server = Server::bind("127.0.0.1:0", Technology::default_1p2um(),
//!     ServerConfig::default()).unwrap();
//! let addr = server.local_addr();
//! let handle = server.spawn().unwrap();
//!
//! let mut c = Client::connect(addr).unwrap();
//! assert!(c.ping().unwrap());
//! let reply = c.call("design", obj([
//!     ("topology", obj([("mirror", s("simple"))])),
//!     ("spec", obj([
//!         ("gain", n(200.0)), ("ugf_hz", n(5e6)), ("area_max_m2", n(20e-9)),
//!         ("ibias", n(1e-5)), ("cl", n(1e-11)),
//!     ])),
//! ])).unwrap();
//! let result = reply.outcome.unwrap();
//! assert!(result.get("perf").is_some());
//! handle.stop();
//! ```

pub mod client;
pub mod proto;
pub mod server;

pub use ape_json as json;

pub use client::{Client, Reply, ReplyError};
pub use proto::{ErrorCode, WireError, WireRequest};
pub use server::{serve_stream, standalone_state, Server, ServerConfig, ServerHandle, ServerState};
