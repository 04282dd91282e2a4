//! The `redet` binary: hand-rolled subcommand parsing over the serving
//! plumbing of this crate.
//!
//! ```text
//! redet validate <schema.dtd> <doc.xml>…   validate documents, caret diagnostics
//! redet lint <schema.dtd>…                 lint DTDs for determinism
//! redet serve --addr A --schema id=path…   the TCP front end
//! redet request --addr A --schema id <doc> one framed wire round-trip
//! redet publish --addr A --schema id <dtd> hot-swap a schema (P)
//! redet shutdown --addr A                  graceful remote shutdown (Q)
//! ```
//!
//! Exit codes are uniform across subcommands: `0` success / all documents
//! valid, `1` at least one validation or lint finding, `2` usage, I/O, or
//! schema-compilation failure. There is no argument-parsing dependency —
//! flags are matched directly, which keeps the binary's dependency
//! closure at exactly the workspace crates.

use crate::router::SchemaRouter;
use crate::server::{Server, ServerConfig};
use crate::wire;
use redet_schema::registry::{Provenance, Registry};
use redet_schema::{Schema, SchemaBuilder, ServiceLimits};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Everything `redet --help` prints.
const USAGE: &str = "\
redet — deterministic-content-model validation, from the command line or a socket

USAGE:
    redet validate <schema.dtd> <doc.xml>...
        Validate documents against a DTD. Prints one verdict line per
        document plus a caret-underlined source excerpt for each error.

    redet lint <schema.dtd>...
        Compile DTDs and report every diagnostic (parse errors, duplicate
        declarations, determinism conflicts with witnesses).

    redet serve --addr <host:port> --schema <id>=<schema.dtd> [--schema ...]
                [--max-in-flight N] [--max-depth N] [--max-bytes N]
                [--max-events N] [--max-name-len N] [--idle-timeout TICKS]
                [--tick-ms MS] [--max-connections N]
                [--no-shutdown-command] [--no-publish-command]
        Serve the wire protocol: 'V <id> <len>\\n<body>' (framed, pipelines)
        or 'V <id>\\n<body>' (unframed, one per connection); one response
        line per request; 'P <id> <len>\\n<dtd>' hot-swaps a schema and 'Q'
        drains and exits, unless disabled. Every connection gets its own
        thread; --max-connections (default 1024) caps them, refusing the
        rest with one E305 line. --idle-timeout also closes connections
        idle between requests. Schemas load through the content-hashed
        registry cache (startup prints compiled/cached provenance per id;
        identical DTD text compiles once). Prints 'listening on <addr>'
        once the socket is bound.

    redet request --addr <host:port> --schema <id> <doc.xml>
        Send one framed request to a running server and print the response.

    redet publish --addr <host:port> --schema <id> <schema.dtd>
        Hot-swap the schema served under <id>: in-flight documents finish
        against the old schema, later requests validate against the new.

    redet shutdown --addr <host:port>
        Ask a running server to drain and exit.

EXIT CODES:
    0  success / everything valid
    1  at least one document or schema was rejected
    2  usage, I/O, or schema-compilation error
";

/// Runs the CLI against `args` (the process arguments without the binary
/// name) and returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("validate") => cmd_validate(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("request") => cmd_request(&args[1..]),
        Some("publish") => cmd_publish(&args[1..]),
        Some("shutdown") => cmd_shutdown(&args[1..]),
        Some("help" | "--help" | "-h") | None => {
            print!("{USAGE}");
            i32::from(args.is_empty())
        }
        Some(other) => {
            eprintln!("redet: unknown subcommand '{other}'\n");
            eprint!("{USAGE}");
            2
        }
    }
}

/// Reads a file or explains why it could not be read.
fn read_file(path: &str) -> Result<Vec<u8>, i32> {
    std::fs::read(path).map_err(|e| {
        eprintln!("redet: cannot read {path}: {e}");
        2
    })
}

/// Compiles a DTD file, printing caret-underlined diagnostics on failure.
fn load_schema(path: &str) -> Result<Arc<Schema>, i32> {
    let bytes = read_file(path)?;
    let source = String::from_utf8_lossy(&bytes).into_owned();
    match SchemaBuilder::new().parse_dtd(&source).build() {
        Ok(schema) => Ok(schema),
        Err(diagnostics) => {
            eprintln!("redet: {path} is not a usable schema:");
            for diagnostic in &diagnostics {
                eprintln!("  {}", wire::render_diagnostic(diagnostic));
                if let Some(span) = diagnostic.span() {
                    eprintln!("{}", underline(&source, span.start, span.end));
                }
            }
            Err(2)
        }
    }
}

/// Compiles a DTD file through the registry's content-hash cache, so
/// byte-identical schema text across `--schema` flags compiles once.
/// Returns the artifact plus its cached/compiled provenance; failures
/// print the first build diagnostic caret-underlined.
fn load_schema_cached(
    registry: &mut Registry,
    path: &str,
) -> Result<(Arc<Schema>, Provenance), i32> {
    let bytes = read_file(path)?;
    let source = String::from_utf8_lossy(&bytes).into_owned();
    match registry.compile_traced(&source) {
        Ok(pair) => Ok(pair),
        Err(diagnostic) => {
            eprintln!("redet: {path} is not a usable schema:");
            eprintln!("  {}", wire::render_diagnostic(&diagnostic));
            if let Some(span) = diagnostic.span() {
                eprintln!("{}", underline(&source, span.start, span.end));
            }
            Err(2)
        }
    }
}

/// Renders the line containing `start..end` with a caret underline, the
/// same excerpt style the schema linter example established.
fn underline(source: &str, start: usize, end: usize) -> String {
    let start = start.min(source.len());
    let line_start = source[..start].rfind('\n').map_or(0, |i| i + 1);
    let line_end = source[start..]
        .find('\n')
        .map_or(source.len(), |i| start + i);
    let line = &source[line_start..line_end];
    let pad = " ".repeat(start - line_start);
    let carets = "^".repeat((end.min(line_end).saturating_sub(start)).max(1));
    format!("    {line}\n    {pad}{carets}")
}

/// `redet validate`: one router, one registered schema, one framed
/// validation per document — the same loop the server runs per request.
fn cmd_validate(args: &[String]) -> i32 {
    let [schema_path, docs @ ..] = args else {
        eprintln!("usage: redet validate <schema.dtd> <doc.xml>...");
        return 2;
    };
    if docs.is_empty() {
        eprintln!("usage: redet validate <schema.dtd> <doc.xml>...");
        return 2;
    }
    let schema = match load_schema(schema_path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let mut router = SchemaRouter::new();
    if let Err(d) = router.register("cli", schema, ServiceLimits::default()) {
        eprintln!("redet: {}", wire::render_diagnostic(&d));
        return 2;
    }
    let mut rejected = false;
    let mut io_error = false;
    for path in docs {
        let bytes = match read_file(path) {
            Ok(b) => b,
            Err(_) => {
                io_error = true;
                continue;
            }
        };
        let verdict = router.validate_bytes("cli", &bytes);
        println!("{path}: {}", wire::render_verdict(&verdict));
        if let Err(diagnostic) = &verdict {
            rejected = true;
            if let Some(span) = diagnostic.span() {
                let source = String::from_utf8_lossy(&bytes);
                println!("{}", underline(&source, span.start, span.end));
            }
        }
    }
    if io_error {
        2
    } else {
        i32::from(rejected)
    }
}

/// `redet lint`: compile each DTD and report every diagnostic, including
/// determinism-conflict witnesses.
fn cmd_lint(args: &[String]) -> i32 {
    if args.is_empty() {
        eprintln!("usage: redet lint <schema.dtd>...");
        return 2;
    }
    let mut findings = false;
    for path in args {
        let bytes = match read_file(path) {
            Ok(b) => b,
            Err(code) => return code,
        };
        let source = String::from_utf8_lossy(&bytes).into_owned();
        match SchemaBuilder::new().parse_dtd(&source).build() {
            Ok(schema) => {
                println!(
                    "{path}: ok — {} element declarations, all deterministic",
                    schema.len()
                );
            }
            Err(diagnostics) => {
                findings = true;
                println!("{path}: {} problem(s)", diagnostics.len());
                for diagnostic in &diagnostics {
                    println!("  {}", wire::render_diagnostic(diagnostic));
                    if let Some(span) = diagnostic.span() {
                        println!("{}", underline(&source, span.start, span.end));
                    }
                    if let Some(witness) = diagnostic.witness() {
                        println!(
                            "    note: positions #{} and #{} both read '{}' after a \
                             common prefix ({:?})",
                            witness.first.index(),
                            witness.second.index(),
                            witness.symbol_name,
                            witness.kind,
                        );
                    }
                }
            }
        }
    }
    i32::from(findings)
}

/// Pulls the value of a `--flag VALUE` pair out of the argument stream.
fn take_value<'a, I: Iterator<Item = &'a String>>(
    flag: &str,
    iter: &mut I,
) -> Result<&'a String, i32> {
    iter.next().ok_or_else(|| {
        eprintln!("redet: {flag} needs a value");
        2
    })
}

/// Parses a numeric flag value.
fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, i32> {
    value.parse().map_err(|_| {
        eprintln!("redet: {flag} value '{value}' is not a number");
        2
    })
}

/// `redet serve`: load every `--schema id=path` into a router, bind the
/// address, print `listening on <addr>`, and serve until drained.
fn cmd_serve(args: &[String]) -> i32 {
    let mut addr: Option<String> = None;
    let mut schemas: Vec<(String, String)> = Vec::new();
    let mut limits = ServiceLimits::default();
    let mut config = ServerConfig::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let result = match arg.as_str() {
            "--addr" => take_value(arg, &mut iter).map(|v| addr = Some(v.clone())),
            "--schema" | "--schemas" => take_value(arg, &mut iter).and_then(|v| {
                let Some((id, path)) = v.split_once('=') else {
                    eprintln!("redet: {arg} wants <id>=<path.dtd>, got '{v}'");
                    return Err(2);
                };
                schemas.push((id.to_owned(), path.to_owned()));
                Ok(())
            }),
            "--max-in-flight" => take_value(arg, &mut iter)
                .and_then(|v| parse_num(arg, v))
                .map(|n| limits = limits.with_max_in_flight(n)),
            "--max-depth" => take_value(arg, &mut iter)
                .and_then(|v| parse_num(arg, v))
                .map(|n| limits = limits.with_max_depth(n)),
            "--max-bytes" => take_value(arg, &mut iter)
                .and_then(|v| parse_num(arg, v))
                .map(|n| limits = limits.with_max_bytes(n)),
            "--max-events" => take_value(arg, &mut iter)
                .and_then(|v| parse_num(arg, v))
                .map(|n| limits = limits.with_max_events(n)),
            "--max-name-len" => take_value(arg, &mut iter)
                .and_then(|v| parse_num(arg, v))
                .map(|n| limits = limits.with_max_name_len(n)),
            "--idle-timeout" => take_value(arg, &mut iter)
                .and_then(|v| parse_num(arg, v))
                .map(|n| limits = limits.with_idle_budget(n)),
            "--tick-ms" => take_value(arg, &mut iter)
                .and_then(|v| parse_num(arg, v))
                .map(|n: u64| config.tick_interval = Duration::from_millis(n.max(1))),
            "--max-connections" => take_value(arg, &mut iter)
                .and_then(|v| parse_num(arg, v))
                .map(|n| config.max_connections = n),
            "--no-shutdown-command" => {
                config.allow_shutdown_command = false;
                Ok(())
            }
            "--no-publish-command" => {
                config.allow_publish_command = false;
                Ok(())
            }
            other => {
                eprintln!("redet serve: unknown flag '{other}'");
                Err(2)
            }
        };
        if let Err(code) = result {
            return code;
        }
    }
    let Some(addr) = addr else {
        eprintln!("redet serve: --addr is required (use 127.0.0.1:0 for an ephemeral port)");
        return 2;
    };
    if schemas.is_empty() {
        eprintln!("redet serve: at least one --schema <id>=<path.dtd> is required");
        return 2;
    }
    let mut registry = Registry::new();
    let mut router = SchemaRouter::new();
    for (id, path) in &schemas {
        let (schema, provenance) = match load_schema_cached(&mut registry, path) {
            Ok(pair) => pair,
            Err(code) => return code,
        };
        if let Err(d) = router.register(id.clone(), schema, limits) {
            eprintln!("redet serve: {}", wire::render_diagnostic(&d));
            return 2;
        }
        println!("schema '{id}' {provenance} from {path}");
    }
    let mut server = match Server::bind(addr.as_str(), router, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("redet serve: cannot bind {addr}: {e}");
            return 2;
        }
    };
    // Hand the warmed cache to the server so `P` requests re-publishing
    // known text hit it.
    server.set_registry(registry);
    match server.local_addr() {
        Ok(bound) => println!("listening on {bound}"),
        Err(_) => println!("listening on {addr}"),
    }
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(report) => {
            println!(
                "served {} connections, {} documents ({} ok, {} err), \
                 {} idle-swept, {} published, {} protocol errors",
                report.connections,
                report.documents,
                report.accepted,
                report.rejected,
                report.swept,
                report.published,
                report.protocol_errors,
            );
            0
        }
        Err(e) => {
            eprintln!("redet serve: {e}");
            2
        }
    }
}

/// Opens a TCP connection to `addr` or explains why it could not.
fn connect(addr: &str) -> Result<TcpStream, i32> {
    TcpStream::connect(addr).map_err(|e| {
        eprintln!("redet: cannot connect to {addr}: {e}");
        2
    })
}

/// Sends `request` and reads one response line.
fn round_trip(addr: &str, request: &[u8]) -> Result<String, i32> {
    let mut stream = connect(addr)?;
    stream.write_all(request).map_err(|e| {
        eprintln!("redet: write to {addr} failed: {e}");
        2
    })?;
    let mut line = String::new();
    BufReader::new(&mut stream)
        .read_line(&mut line)
        .map_err(|e| {
            eprintln!("redet: read from {addr} failed: {e}");
            2
        })?;
    Ok(line.trim_end_matches(['\n', '\r']).to_owned())
}

/// `redet request`: one framed wire round-trip against a running server.
fn cmd_request(args: &[String]) -> i32 {
    let mut addr: Option<String> = None;
    let mut schema: Option<String> = None;
    let mut doc: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let result = match arg.as_str() {
            "--addr" => take_value(arg, &mut iter).map(|v| addr = Some(v.clone())),
            "--schema" => take_value(arg, &mut iter).map(|v| schema = Some(v.clone())),
            other if doc.is_none() && !other.starts_with('-') => {
                doc = Some(other.to_owned());
                Ok(())
            }
            other => {
                eprintln!("redet request: unknown flag '{other}'");
                Err(2)
            }
        };
        if let Err(code) = result {
            return code;
        }
    }
    let (Some(addr), Some(schema), Some(doc)) = (addr, schema, doc) else {
        eprintln!("usage: redet request --addr <host:port> --schema <id> <doc.xml>");
        return 2;
    };
    let body = match read_file(&doc) {
        Ok(b) => b,
        Err(code) => return code,
    };
    let mut request = format!("V {schema} {}\n", body.len()).into_bytes();
    request.extend_from_slice(&body);
    match round_trip(&addr, &request) {
        Ok(line) => {
            println!("{line}");
            i32::from(line != "ok")
        }
        Err(code) => code,
    }
}

/// `redet publish`: one framed `P` round-trip — compile-and-hot-swap a
/// schema on a running server without dropping its in-flight documents.
fn cmd_publish(args: &[String]) -> i32 {
    let mut addr: Option<String> = None;
    let mut schema: Option<String> = None;
    let mut dtd: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let result = match arg.as_str() {
            "--addr" => take_value(arg, &mut iter).map(|v| addr = Some(v.clone())),
            "--schema" => take_value(arg, &mut iter).map(|v| schema = Some(v.clone())),
            other if dtd.is_none() && !other.starts_with('-') => {
                dtd = Some(other.to_owned());
                Ok(())
            }
            other => {
                eprintln!("redet publish: unknown flag '{other}'");
                Err(2)
            }
        };
        if let Err(code) = result {
            return code;
        }
    }
    let (Some(addr), Some(schema), Some(dtd)) = (addr, schema, dtd) else {
        eprintln!("usage: redet publish --addr <host:port> --schema <id> <schema.dtd>");
        return 2;
    };
    let body = match read_file(&dtd) {
        Ok(b) => b,
        Err(code) => return code,
    };
    let mut request = format!("P {schema} {}\n", body.len()).into_bytes();
    request.extend_from_slice(&body);
    match round_trip(&addr, &request) {
        Ok(line) => {
            println!("{line}");
            i32::from(line != "ok")
        }
        Err(code) => code,
    }
}

/// `redet shutdown`: sends the `Q` request and reports the response.
fn cmd_shutdown(args: &[String]) -> i32 {
    let addr = match args {
        [flag, value] if flag == "--addr" => value,
        [value] => value,
        _ => {
            eprintln!("usage: redet shutdown --addr <host:port>");
            return 2;
        }
    };
    match round_trip(addr, b"Q\n") {
        Ok(line) => {
            println!("{line}");
            i32::from(line != "ok")
        }
        Err(code) => code,
    }
}
