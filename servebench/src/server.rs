//! The measured program: building the release `redet` binary, spawning
//! `redet serve` on loopback, and reading its resource use from `/proc`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The binary a run measures and the source it was built from.
pub struct Build {
    /// The release `redet` binary.
    pub binary: PathBuf,
    /// `git rev-parse HEAD` when the checkout is a repository, otherwise a
    /// hash of the workspace sources (`tree-…`).
    pub source: String,
}

/// Builds the release `redet` binary of the checkout at `root` into its
/// own directory under `target`, so every run measures the current source
/// and never a stale binary.
pub fn build(root: &Path, target: &Path) -> Result<Build, String> {
    let manifest = root.join("Cargo.toml");
    if !manifest.is_file() || !root.join("crates/server").is_dir() {
        return Err(format!(
            "{} is not the repository root (no Cargo.toml with crates/server)",
            root.display()
        ));
    }
    let target = target.join("redet-release");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "redet-server", "--bin", "redet", "--manifest-path"])
        .arg(&manifest)
        .env("CARGO_TARGET_DIR", &target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building redet failed: {status}"));
    }
    let binary = target.join("release/redet");
    if !binary.is_file() {
        return Err(format!("{} missing after the build", binary.display()));
    }
    Ok(Build {
        binary,
        source: source_id(root),
    })
}

fn source_id(root: &Path) -> String {
    let git = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output();
    if let Ok(out) = git {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_owned();
        }
    }
    let mut files = Vec::new();
    collect_files(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut hash = crate::corpus::Fnv::default();
    for file in files {
        hash.write(
            file.strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .as_bytes(),
        );
        hash.write(&std::fs::read(&file).unwrap_or_default());
    }
    format!("tree-{:016x}", hash.0)
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// A running `redet serve` child process.
pub struct Server {
    child: Child,
    /// Kept open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address it listens on.
    pub addr: String,
}

impl Server {
    /// Spawns `redet serve` on an ephemeral loopback port with the given
    /// `(id, dtd path)` schemas and waits for its `listening on` line.
    pub fn spawn(binary: &Path, schemas: &[(String, PathBuf)]) -> Result<Server, String> {
        let mut cmd = Command::new(binary);
        cmd.args(["serve", "--addr", "127.0.0.1:0"]);
        for (id, path) in schemas {
            cmd.arg("--schema").arg(format!("{id}={}", path.display()));
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("redet serve exited before listening".to_owned());
                }
                Ok(_) => {
                    if let Some(addr) = line.trim().strip_prefix("listening on ") {
                        return Ok(Server {
                            child,
                            _stdout: stdout,
                            addr: addr.to_owned(),
                        });
                    }
                }
            }
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to drain and exit (`Q`), and waits for it; kills it
    /// if it has not exited within a few seconds.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = TcpStream::connect(&self.addr).and_then(|mut s| {
            s.write_all(b"Q\n")?;
            let mut line = String::new();
            BufReader::new(s).read_line(&mut line)?;
            Ok(line)
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match asked {
                    Ok(line) if line.trim() == "ok" && status.success() => Ok(()),
                    _ => Err(format!("redet serve shut down uncleanly ({status})")),
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Dropping `self` kills and reaps it.
        Err("redet serve did not exit after Q".to_owned())
    }

    /// CPU the process has used so far.
    pub fn cpu(&self) -> Cpu {
        cpu_of(self.pid())
    }

    /// Peak resident set size (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A CPU-use reading of one process.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cpu {
    /// `utime + stime` from `/proc/<pid>/stat`, in clock ticks.
    pub ticks: u64,
    /// On-CPU time of the live threads from `/proc/<pid>/task/*/schedstat`,
    /// in nanoseconds: finer than ticks, for windows too short to span
    /// many of them.
    pub ns: u64,
}

/// CPU process `pid` has used so far.
pub fn cpu_of(pid: u32) -> Cpu {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name: state is field 3, utime
    // and stime are fields 14 and 15.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    let ticks = field(11) + field(12);
    let mut ns = 0;
    if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
        for task in tasks.flatten() {
            let sched = std::fs::read_to_string(task.path().join("schedstat")).unwrap_or_default();
            ns += sched
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    Cpu { ticks, ns }
}
