//! Spawned server processes and the scratch directory they write to.
//!
//! Both guards clean up in `Drop`, so every exit path — an error
//! return, a failed check, a panic unwinding through `main` — kills
//! and reaps the processes and removes the directory.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Lines of each child's stderr kept for error reports.
const STDERR_TAIL: usize = 20;

struct Proc {
    label: String,
    child: Child,
    stderr: Arc<Mutex<VecDeque<String>>>,
    drain: Option<JoinHandle<()>>,
}

/// A set of running server processes.
#[derive(Default)]
pub struct Fleet {
    procs: Vec<Proc>,
}

impl Fleet {
    /// Spawns `bin args…`. Stderr is drained on a thread (a full pipe
    /// would stall the server), keeping a short tail for diagnostics.
    pub fn spawn(&mut self, label: &str, bin: &Path, args: &[String]) -> Result<(), String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = Arc::new(Mutex::new(VecDeque::new()));
        let pipe = child.stderr.take().expect("stderr is piped");
        let tail = Arc::clone(&stderr);
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines() {
                let Ok(line) = line else { break };
                let mut tail = tail.lock().expect("stderr tail lock");
                if tail.len() == STDERR_TAIL {
                    tail.pop_front();
                }
                tail.push_back(line);
            }
        });
        self.procs.push(Proc {
            label: label.to_string(),
            child,
            stderr,
            drain: Some(drain),
        });
        Ok(())
    }

    /// Process ids, in spawn order.
    pub fn pids(&self) -> Vec<u32> {
        self.procs.iter().map(|p| p.child.id()).collect()
    }

    /// Waits until `addr` accepts connections, failing early when a
    /// process has exited (port taken, bad flags).
    pub fn wait_ready(&mut self, addr: &str) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if TcpStream::connect(addr).is_ok() {
                return Ok(());
            }
            for p in &mut self.procs {
                if let Ok(Some(status)) = p.child.try_wait() {
                    // The pipe is closed; let the drain thread finish.
                    if let Some(drain) = p.drain.take() {
                        let _ = drain.join();
                    }
                    return Err(format!(
                        "{} exited with {status} before {addr} was ready; stderr:\n{}",
                        p.label,
                        tail_text(&p.stderr)
                    ));
                }
            }
            if Instant::now() > deadline {
                return Err(format!("{addr} not ready after 20 s"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Sends `shutdown` to `addr` (the front process relays it) and
    /// reaps every process; stragglers are killed after a grace period.
    pub fn shutdown(mut self, addr: &str) {
        let _ = roundtrip(addr, "{\"cmd\":\"shutdown\"}");
        let deadline = Instant::now() + Duration::from_secs(5);
        for p in &mut self.procs {
            while Instant::now() < deadline {
                if let Ok(Some(_)) = p.child.try_wait() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        // Drop kills whatever is left and joins the drain threads.
    }

    /// Each process's stderr tail, for error reports.
    pub fn stderr_report(&self) -> String {
        self.procs
            .iter()
            .map(|p| format!("--- {} ---\n{}", p.label, tail_text(&p.stderr)))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for p in &mut self.procs {
            if !matches!(p.child.try_wait(), Ok(Some(_))) {
                let _ = p.child.kill();
            }
            let _ = p.child.wait();
            if let Some(drain) = p.drain.take() {
                let _ = drain.join();
            }
        }
    }
}

fn tail_text(tail: &Mutex<VecDeque<String>>) -> String {
    match tail.lock() {
        Ok(lines) => lines.iter().cloned().collect::<Vec<_>>().join("\n"),
        Err(_) => String::new(),
    }
}

/// One request on a fresh connection; returns the reply line. Unlike
/// `rtec_service::server::roundtrip` it sets a read timeout, so a hung
/// server cannot hang the benchmark.
pub fn roundtrip(addr: &str, line: &str) -> Result<String, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = BufWriter::new(stream);
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    reader.read_line(&mut reply).map_err(|e| e.to_string())?;
    Ok(reply.trim_end().to_string())
}

/// utime + stime of `pid` in seconds (`/proc/<pid>/stat`, clock ticks
/// of 1/100 s, the Linux `USER_HZ`).
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|v| v as f64 / 100.0)
            .ok_or_else(|| "malformed /proc stat".to_string())
    };
    Ok(ticks(11)? + ticks(12)?)
}

/// Peak resident set size of `pid` in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM for {pid}"))
}

/// A fresh directory under the checkout, removed on drop.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new(parent: &Path) -> Result<ScratchDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let path = parent.join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }

    /// A fresh subdirectory (one per set-up, so no state carries over).
    pub fn subdir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.path.join(name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}
