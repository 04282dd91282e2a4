//! `redet-server`: a dependency-free network front end (and the `redet`
//! CLI) for the streaming validation service.
//!
//! The crate turns the in-process serving surface of `redet-schema` — the
//! governed [`redet_schema::Document`] stream with its resource limits and
//! idle time-out — into something you can put on a socket, without pulling
//! in an async runtime or any dependency at all:
//!
//! - [`wire`] — the stable single-line rendering of validation verdicts
//!   shared by server responses and CLI output, pinned by test.
//! - [`router`] — [`SchemaRouter`]: one route per registered schema id,
//!   holding its `SharedSchema` hot-swap handle, its limits and an atomic
//!   in-flight count for `E305` admission.
//! - [`server`] — [`Server`]: one blocking `std::net` thread per
//!   connection that streams request bytes straight into `feed_bytes` and
//!   writes each verdict back as one line, with a connection cap, read
//!   timeouts ending idle documents, and a graceful drain on shutdown.
//! - [`cli`] — the `redet` binary's subcommands (`validate`, `lint`,
//!   `serve`, `request`, `publish`, `shutdown`), hand-rolled argument
//!   parsing included.
//!
//! Every governance refusal (`E301`–`E307` and `E310`; `E308` is retired
//! and never reused) crosses the wire byte-identical to its in-process
//! rendering; the loopback integration tests hold the two sides to that.

pub mod cli;
pub mod router;
pub mod server;
pub mod wire;

pub use router::SchemaRouter;
pub use server::{Server, ServerConfig, ServerReport, ShutdownHandle};
