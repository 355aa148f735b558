//! `encore-serve`: a long-running multi-tenant detection service.
//!
//! The batch pipeline answers "is this fleet misconfigured *right now*";
//! this crate keeps the answer warm.  A [`SnapshotRegistry`] holds named
//! detectors — mysql, apache, php — loaded side by side from persisted
//! [`DetectorSnapshot`](encore::DetectorSnapshot) files, each hot-reloaded
//! independently when its file's [`FileSig`](encore::FileSig) changes; a
//! failing reload keeps the old detector serving and flips only that
//! app's readiness.  Clients speak a line-delimited protocol over a unix
//! socket ([`protocol`]): `check <app>` with length-prefixed config
//! payloads, answered with report bodies byte-identical to a direct
//! [`check_fleet`](encore::AnomalyDetector::check_fleet) call, plus the
//! admin verbs `apps`, `reload`, `stats`, and `shutdown`.
//!
//! Requests flow through a [`BoundedQueue`] with explicit backpressure —
//! a full queue answers `busy` instead of stacking latency — into a
//! single dispatcher feeding the work-stealing detection pool.  Watched
//! directories ([`ServeOptions::watch`]) are a second target source on
//! the same queue: each poll tick re-checks a directory's added or
//! changed config files and prints their reports.  The telemetry surface
//! is threaded through: `/metrics`, `/healthz`, and a per-app `/readyz`
//! over TCP, a JSONL heartbeat on the poll loop, and a `serve` phase
//! section whose request counters are the `stats` verb's ([`obs`]).
//!
//! See DESIGN.md §15 for the protocol grammar, registry lifecycle, and
//! backpressure contract.

pub mod client;
pub mod obs;
pub mod protocol;
pub mod queue;
pub mod registry;
pub mod server;
mod watch;

pub use client::Client;
pub use protocol::{CheckReply, Request, Response, MAX_PAYLOAD, MAX_REQUEST_BYTES, MAX_TARGETS};
pub use queue::BoundedQueue;
pub use registry::{AppStatus, SnapshotRegistry};
pub use server::{ServeOptions, ServeStats, Server};
