//! The spawned `traj-serve` process and line-protocol connections to it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use serde::value::field;
use serde::Value;

/// The daemon's flags: the listen address and nothing else, so every
/// other setting is the binary's default.
pub const DAEMON_ARGS: [&str; 2] = ["--listen", "127.0.0.1:0"];

/// `/proc/<pid>/stat` reports CPU time in clock ticks of 1/100 s on Linux.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// A running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    /// Held open so the daemon never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts the binary and waits for its `listening on ADDR` line.
    pub fn spawn(bin: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(DAEMON_ARGS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout not captured".into());
        };
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse::<SocketAddr>().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not report its address: {line:?}"))
            }
        }
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(self.addr)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("read daemon status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in daemon status".to_string())
    }

    /// User plus system CPU time the daemon has used, in milliseconds.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("read daemon stat: {e}"))?;
        // Fields after the parenthesised command name start at `state`
        // (field 3); utime and stime are fields 14 and 15.
        let rest = stat.rsplit(')').next().unwrap_or("");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(u), Some(s)) => Ok((u + s) * 1000.0 / CLOCK_TICKS_PER_S),
            _ => Err("malformed daemon stat".into()),
        }
    }

    /// Sends `shutdown` and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = self
            .connect()
            .and_then(|mut c| c.call("{\"op\":\"shutdown\"}").map(|_| ()));
        let start = Instant::now();
        let mut woken = false;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return sent,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if start.elapsed() < Duration::from_secs(10) => {
                    // The daemon's acceptor can miss its stop flag when
                    // the wake-up connection races the flag; one more
                    // connection lets it see the flag and exit.
                    if !woken && start.elapsed() > Duration::from_secs(1) {
                        eprintln!(
                            "perfbench: daemon still up 1 s after shutdown; waking its acceptor"
                        );
                        let _ = TcpStream::connect(self.addr);
                        woken = true;
                    }
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("daemon did not stop after shutdown".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One line-protocol connection: a request line out, a response line in.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone stream: {e}"))?,
        );
        Ok(Conn {
            stream,
            reader,
            out: Vec::with_capacity(1024),
        })
    }

    /// Sends one request line and returns the response line.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.stream
            .write_all(&self.out)
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        match self.reader.read_line(&mut resp) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => {
                resp.truncate(resp.trim_end().len());
                Ok(resp)
            }
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Sends a request and returns the `result` of an ok response.
    pub fn call_ok(&mut self, line: &str) -> Result<Value, String> {
        result_of(&self.call(line)?)
    }
}

/// The `result` payload of an ok response line, or the error it carries.
pub fn result_of(line: &str) -> Result<Value, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("bad response {line:?}: {e}"))?;
    let entries = v.as_map().ok_or("response is not an object")?;
    match field(entries, "ok") {
        Some(Value::Bool(true)) => field(entries, "result")
            .cloned()
            .ok_or_else(|| "ok response without result".into()),
        _ => Err(format!("request failed: {line}")),
    }
}

/// Integer counter `name` of a `metrics` result (`-1` when absent).
pub fn counter(metrics: &Value, name: &str) -> i64 {
    metrics
        .as_map()
        .and_then(|m| field(m, name))
        .and_then(Value::as_int)
        .map_or(-1, |v| v as i64)
}
