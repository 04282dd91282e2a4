//! Connection-oriented serving over a real socket.
//!
//! `redet-server`'s [`Server`] is a dependency-free TCP front end over a
//! [`SchemaRouter`]: every connection gets its own thread over a blocking
//! `std::net` socket, and each thread validates its requests on its own
//! `Document` per schema id. This example exercises it the way
//! `redet serve` does — bind an ephemeral port, run the accept loop on a
//! thread, and talk to it with plain `TcpStream`s:
//!
//! - a **pipelined** client: three framed requests across two schemas in
//!   one write, three verdict lines back;
//! - a **trickling** client: one byte per write, because chunk boundaries
//!   are the network's business and never change a verdict;
//! - a **half-closed** client: an unframed request whose end-of-document
//!   is the TCP half-close itself;
//! - the `Q` request for a graceful drain, and the server's final report.
//!
//! Run with `cargo run --example connection_serving`.

use redet::{SchemaBuilder, ServiceLimits};
use redet_server::{SchemaRouter, Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};

fn main() {
    // Two document types behind one socket, routed by the id in the
    // request header and governed by the same limits.
    let bibliography = SchemaBuilder::new()
        .parse_dtd(
            "<!ELEMENT bibliography (book)*>
             <!ELEMENT book (title, author+, year?)>
             <!ELEMENT title (#PCDATA)>
             <!ELEMENT author (#PCDATA)>
             <!ELEMENT year (#PCDATA)>",
        )
        .build()
        .expect("the DTD is deterministic");
    let catalog = SchemaBuilder::new()
        .parse_dtd(
            "<!ELEMENT catalog (product)*>
             <!ELEMENT product (name, price)>
             <!ELEMENT name (#PCDATA)>
             <!ELEMENT price (#PCDATA)>",
        )
        .build()
        .expect("the DTD is deterministic");

    let mut router = SchemaRouter::new();
    let limits = ServiceLimits::default()
        .with_max_depth(16)
        .with_max_in_flight(8);
    router.register("bib", bibliography, limits).unwrap();
    router.register("cat", catalog, limits).unwrap();

    let server =
        Server::bind("127.0.0.1:0", router, ServerConfig::default()).expect("loopback bind");
    let addr = server.local_addr().unwrap();
    let serving = std::thread::spawn(move || server.run().expect("accept loop"));
    println!("serving two schemas on {addr}\n");

    let good_bib = "<bibliography><book><title/><author/><author/><year/></book></bibliography>";
    let bad_bib = "<bibliography><book><title/><year/><author/></book></bibliography>";
    let good_cat = "<catalog><product><name/><price/></product></catalog>";

    // Client 1: three framed requests, two schemas, one write() — the
    // responses come back in order, and the invalid document's diagnostic
    // is byte-identical to what the in-process service reports.
    let mut batch = Vec::new();
    for (id, doc) in [("bib", good_bib), ("cat", good_cat), ("bib", bad_bib)] {
        batch.extend_from_slice(format!("V {id} {}\n", doc.len()).as_bytes());
        batch.extend_from_slice(doc.as_bytes());
    }
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&batch).unwrap();
    let mut reader = BufReader::new(stream);
    println!("pipelined client (3 framed requests, 1 write):");
    for label in ["bib/good", "cat/good", "bib/bad "] {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        print!("  {label} -> {line}");
    }

    // Client 2: the same bad document, one byte per write. The verdict
    // cannot tell the difference.
    let mut stream = TcpStream::connect(addr).unwrap();
    let request = format!("V bib {}\n{bad_bib}", bad_bib.len());
    for byte in request.as_bytes() {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
    }
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    print!("\ntrickling client (1 byte per write):\n  bib/bad  -> {line}");

    // Client 3: an unframed request — no length up front. Half-closing the
    // write side tells the server the document is over; cutting a document
    // off mid-stream is itself a diagnostic.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"V cat\n").unwrap();
    stream.write_all(&good_cat.as_bytes()[..25]).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut response = String::new();
    BufReader::new(stream)
        .read_to_string(&mut response)
        .unwrap();
    print!("\nhalf-closed client (unframed, cut off mid-document):\n  cat/cut  -> {response}");

    // The Q request drains the server; run() returns its lifetime report.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"Q\n").unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    print!("\ngraceful shutdown:\n  Q        -> {line}");

    let report = serving.join().unwrap();
    println!(
        "\nserver report: {} connections, {} documents ({} ok, {} err)",
        report.connections, report.documents, report.accepted, report.rejected
    );
}
