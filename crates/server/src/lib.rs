//! `redet-server`: a dependency-free network front end (and the `redet`
//! CLI) for the streaming validation service.
//!
//! The crate turns the in-process serving surface of `redet-schema` — the
//! governed [`redet_schema::ValidationService`] with its `DocId` handles,
//! resource limits, and idle sweeping — into something you can put on a
//! socket, without pulling in an async runtime or any dependency at all:
//!
//! - [`wire`] — the stable single-line rendering of validation verdicts
//!   shared by server responses and CLI output, pinned by test.
//! - [`router`] — [`SchemaRouter`]: one `ValidationService` per registered
//!   schema, dispatched by the schema tag in each handle's generation word.
//! - [`server`] — [`Server`]: the non-blocking `std::net` poll loop that
//!   streams request bytes straight into `feed_bytes` and writes each
//!   verdict back as one line, with a wall-clock timer source driving the
//!   idle sweeper and a graceful drain on shutdown.
//! - [`cli`] — the `redet` binary's subcommands (`validate`, `lint`,
//!   `serve`, `request`, `publish`, `shutdown`), hand-rolled argument
//!   parsing included.
//!
//! Every governance refusal (`E301`–`E307`) crosses the wire byte-
//! identical to its in-process rendering; the loopback integration tests
//! hold the two sides to that.

pub mod cli;
pub mod router;
pub mod server;
pub mod wire;

pub use router::SchemaRouter;
pub use server::{Server, ServerConfig, ServerReport, ShutdownHandle};
