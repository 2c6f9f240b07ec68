//! # moma-server — the MOMA serving layer
//!
//! `moma serve` turns the matching framework into a long-lived service:
//! a [`state::State`] — an I/O-free state machine — holds a
//! [`moma_model::SourceRegistry`], a [`moma_core::MappingRepository`]
//! and the primed [`moma_core::DeltaMatchState`]s; an
//! [`engine::Engine`] puts a write-ahead log in front of it; and a
//! server answers concurrent traffic over a length-prefixed JSON frame
//! protocol ([`frame`], [`protocol`]) on a plain
//! `std::net::TcpListener` — no async runtime, thread per connection
//! ([`server`]).
//!
//! These properties carry the design (see the module docs for details):
//!
//! * **Durability** ([`wal`], [`checkpoint`]): every mutating command
//!   is appended to an fsync'd, CRC-framed, segment-rotated write-ahead
//!   log *before* it is applied, and checkpoints bound how much of it a
//!   restart must replay. `moma serve --replay` restores the newest
//!   valid checkpoint, re-applies only the log suffix after it and —
//!   because the state machine is deterministic ([`state`]) —
//!   restores the pre-crash repository bit-identically: same
//!   correspondences, same version stamps, same counters.
//! * **Readers never wait for writers** ([`view`]): every write ends
//!   by publishing an immutable [`view::ReadView`] — a
//!   [`moma_core::MappingRepository::snapshot`] captured in one piece,
//!   plus what `stats` reports — and every read answers from the
//!   current one without taking an engine lock; a query never observes
//!   a half-applied delta and never queues behind a fsync, an apply or
//!   a checkpoint.
//! * **Incremental serving** ([`moma_core::delta`]): source deltas
//!   patch materialized mappings in time proportional to the delta and
//!   the `delta` response reports, per mapping, whether the patch was
//!   incremental or paid a (transparent, warned-about) full re-match.
//! * **Sharding** ([`shard`]): `moma serve --shards N` runs N
//!   independent engines — each with its own WAL directory, checkpoint
//!   chain and admission budgets — behind a [`shard::ShardRouter`] that
//!   gives every source one home shard, on which every mapping and
//!   every delta over it lands, scatters reads and merges `stats`. Writes to distinct shards no longer serialize
//!   behind one lock, and each shard recovers from its own WAL
//!   independently.
//! * **One serve path** ([`commands`], [`request`], [`server`]): every
//!   command is declared once in a table — name, lock/WAL class,
//!   routing rule, visibility — and decoded once, per frame and per WAL
//!   record, into a typed [`request::Request`] that the server's
//!   routing and the machine's one dispatch match on; a request that
//!   does not decode is refused before it is planned, logged or
//!   counted. Every request, at every shard count, goes decode → router
//!   plan → one executor (admission slots, engine locks in ascending
//!   order, panic containment) → gather. A one-shard server is that path with N = 1 and answers
//!   byte for byte like an embedded [`engine::Engine`].
//! * **Overload hardening** ([`server`]): bounded admission budgets per
//!   command class ([`server::Limits`]) answer excess traffic with
//!   explicit `busy`/`overloaded` frames instead of unbounded queueing,
//!   `batch_query`/`batch_delta` amortize per-request overhead (one WAL
//!   group commit per delta batch), and automatic checkpoints run on a
//!   server-owned background thread, off the delta path.
//!
//! The server reads no environment and has no fault-injection
//! commands: the crash gates stage their faults from outside. The CLI
//! crate's `tests/kill9.rs` SIGKILLs a real `moma serve` mid-stream and
//! compares the `--replay`ed state with a clean run's;
//! `tests/checkpoint_recovery.rs` here recovers every on-disk state a
//! checkpoint passes through.

pub mod checkpoint;
pub mod client;
pub mod commands;
pub mod engine;
pub mod frame;
pub mod json;
pub mod protocol;
pub mod request;
pub mod server;
pub mod shard;
pub mod state;
pub mod view;
pub mod wal;

pub use client::Client;
pub use engine::{DurabilityPolicy, Engine, ReplaySummary};
pub use json::Json;
pub use request::Request;
pub use server::{run_sharded, spawn, spawn_sharded, spawn_with_limits, Limits, ServerHandle};
pub use shard::ShardRouter;
pub use state::{CommandCounts, State};
pub use view::{ReadView, ViewSlot};
pub use wal::Wal;
