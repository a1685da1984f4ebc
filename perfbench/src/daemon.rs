//! The `cesimd` child process and its one client connection.
//!
//! The child is this binary re-executed as `perfbench daemon`, which
//! calls `ce_bench::service::run` exactly as the `cesimd` binary does, so
//! the benchmark builds one executable and still drives the real service
//! over its socket protocol.

use std::io::{BufRead as _, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ce_bench::api::{JobEvent, JobOutcome};
use ce_bench::json::Json;

use crate::spans;

/// Environment variables that silently change what the service or the
/// sweeps compute; removed for this process and the daemon child.
pub const PINNED_OFF: [&str; 5] = [
    "CE_MAX_INSTS",
    "CE_IOFAULT",
    "CE_CODE_VERSION",
    "CE_TRACE_CACHE_CAP",
    "CE_FAULT_SEED",
];

const SIGTERM: i32 = 15;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sync();
}

/// Flushes every dirty page to disk and waits for it. The benchmark runs
/// it before the measured work and after deleting its own files, so
/// neither a fresh build's output nor a previous run's deletions are
/// still being written back while the service steps time their fsyncs.
pub fn flush_disks() {
    // SAFETY: `sync` takes no arguments, touches no memory of ours and
    // cannot fail.
    unsafe { sync() }
}

/// How long a daemon may take to start or to drain before it counts as
/// hung (it is then killed and the run fails).
const PATIENCE: Duration = Duration::from_secs(60);

/// A running daemon child with an optional open connection.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    conn: Option<BufReader<UnixStream>>,
}

/// What one submit returned, with its host-time latencies.
pub struct Submitted {
    pub accept_ms: f64,
    pub done_ms: f64,
    pub outcome: JobOutcome,
}

impl Daemon {
    /// Spawns a daemon on `state` listening at `socket` (a short path
    /// relative to the working directory) and waits until it accepts a
    /// connection. Returns the daemon and the spawn-to-ready time in ms.
    ///
    /// # Errors
    ///
    /// Spawn failures, or a daemon that exits or does not listen in time.
    pub fn spawn(state: &Path, socket: &Path, workers: usize) -> Result<(Daemon, f64), String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating self: {e}"))?;
        let started = Instant::now();
        let span = spans::begin("service", "spawn-to-ready", None, None);
        let mut cmd = Command::new(exe);
        cmd.arg("daemon")
            .arg("--state")
            .arg(state)
            .arg("--socket")
            .arg(socket)
            .env("CE_THREADS", workers.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        for var in PINNED_OFF {
            cmd.env_remove(var);
        }
        let child = cmd.spawn().map_err(|e| format!("spawning daemon: {e}"))?;
        let mut daemon = Daemon {
            child,
            socket: socket.to_owned(),
            conn: None,
        };
        loop {
            if let Ok(stream) = UnixStream::connect(&daemon.socket) {
                daemon.conn = Some(BufReader::new(stream));
                break;
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if started.elapsed() > PATIENCE {
                return Err("daemon did not listen within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        spans::end(span);
        Ok((daemon, started.elapsed().as_secs_f64() * 1e3))
    }

    fn conn(&mut self) -> Result<&mut BufReader<UnixStream>, String> {
        if self.conn.is_none() {
            let stream =
                UnixStream::connect(&self.socket).map_err(|e| format!("connecting: {e}"))?;
            self.conn = Some(BufReader::new(stream));
        }
        Ok(self.conn.as_mut().expect("connected above"))
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let conn = self.conn()?;
        let stream = conn.get_mut();
        stream
            .write_all(line.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .map_err(|e| format!("sending request: {e}"))
    }

    fn read_doc(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        let n = self
            .conn()?
            .read_line(&mut line)
            .map_err(|e| format!("reading: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        Json::parse(line.trim_end()).map_err(|e| format!("unparseable event: {e}"))
    }

    /// Sends `ping` and waits for `pong`.
    pub fn ping(&mut self) -> Result<(), String> {
        self.send("{\"op\": \"ping\"}")?;
        match self.read_doc()?.at("ev").and_then(Json::as_str) {
            Some("pong") => Ok(()),
            other => Err(format!("ping answered with {other:?}")),
        }
    }

    /// Submits one job spec (its JSON form) and reads its events until
    /// `done`. Timings run from the moment the request is written.
    ///
    /// # Errors
    ///
    /// Connection failures and `error` events (rejections).
    pub fn submit(&mut self, spec_json: &str, label: &str) -> Result<Submitted, String> {
        let sent = Instant::now();
        let span = spans::begin("service", format!("submit {label}"), None, None);
        self.send(&format!("{{\"op\": \"submit\", \"spec\": {spec_json}}}"))?;
        let mut accepted: Option<(u64, Instant)> = None;
        let mut last_event = sent;
        let result = loop {
            let doc = self.read_doc()?;
            let at = Instant::now();
            let event = JobEvent::from_json(&doc)?;
            let job = accepted.map(|(job, _)| job);
            match event {
                JobEvent::Accepted { job, .. } => {
                    spans::record("service", "accepted", sent, at, span, Some(job));
                    accepted = Some((job, at));
                }
                JobEvent::Cell { cell, source, .. } => {
                    spans::record(
                        "service",
                        format!("cell {cell} {}", source.name()),
                        last_event,
                        at,
                        span,
                        job,
                    );
                }
                JobEvent::Done { job, outcome } => {
                    spans::record("service", "done", last_event, at, span, Some(job));
                    let accept_at = accepted.map_or(at, |(_, t)| t);
                    break Ok(Submitted {
                        accept_ms: (accept_at - sent).as_secs_f64() * 1e3,
                        done_ms: (at - sent).as_secs_f64() * 1e3,
                        outcome,
                    });
                }
                JobEvent::Error { kind, message } => {
                    break Err(format!("submit rejected: error[{kind}]: {message}"));
                }
            }
            last_event = at;
        };
        spans::end(span);
        result
    }

    /// Peak resident set of the daemon so far (`VmHWM`), in kB.
    pub fn peak_rss_kb(&self) -> Option<u64> {
        vm_hwm_kb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Closes the connection, sends SIGTERM, and waits for the drain to
    /// finish. The daemon is killed if it does not exit in time.
    ///
    /// # Errors
    ///
    /// A daemon that had to be killed or exited unsuccessfully.
    pub fn stop(mut self) -> Result<(), String> {
        self.conn = None;
        let pid = i32::try_from(self.child.id()).map_err(|_| "pid out of range".to_owned())?;
        // SAFETY: `kill` has no memory-safety preconditions; `pid` is our
        // own child, which has not been reaped yet (we still hold it), so
        // the id cannot name another process.
        unsafe {
            kill(pid, SIGTERM);
        }
        let asked = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if asked.elapsed() < PATIENCE => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not drain within 60 s; killed".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached on error paths (`stop` consumes a healthy daemon
        // after reaping it): never leave a child running.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in kB.
pub fn vm_hwm_kb(status_path: &str) -> Option<u64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Total bytes of regular files under `dir`.
pub fn tree_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => tree_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}
