//! Building, starting, loading and stopping the `mnn-serve` daemon under
//! test, and the framed connection the load generator speaks to it.

use crate::workload::{Inputs, Spec, TENANTS};
use mnn_net::{NetFrame, MAGIC, VERSION};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Observes kept in flight per connection while loading a window (below
/// the daemon's default `--max-inflight` of 64).
const LOAD_INFLIGHT: usize = 48;
/// How long a stopping daemon gets before it is killed.
const STOP_GRACE: Duration = Duration::from_secs(10);

/// The repository root: the benchmark package sits one level below it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// Builds the daemon from source (a bare root `cargo build --release`
/// does not rebuild it) and returns the binary's path. Honors
/// `CARGO_TARGET_DIR`, resolved against the current directory as cargo
/// itself resolves it.
///
/// # Errors
///
/// When cargo cannot be run or the build fails.
pub fn build(repo: &Path) -> Result<PathBuf, String> {
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(dir),
        None => repo.join("target"),
    };
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "mnn-net",
            "--bin",
            "mnn-serve",
        ])
        .current_dir(repo)
        .env("CARGO_TARGET_DIR", &target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building mnn-serve failed ({status})"));
    }
    Ok(target.join("release").join("mnn-serve"))
}

/// The authentication token of tenant `t` (which is also its name).
pub fn token(t: usize) -> String {
    format!("t{t}")
}

/// A blocking framed connection (the load generator's own framing, so it
/// can time encode and decode per frame).
#[derive(Debug)]
pub struct Conn {
    /// The socket.
    pub stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects and authenticates as tenant `t`.
    ///
    /// # Errors
    ///
    /// Connection or authentication failures, described.
    pub fn open(addr: SocketAddr, t: usize) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut conn = Conn {
            stream,
            buf: Vec::new(),
        };
        conn.send(&NetFrame::Hello { token: token(t) })?;
        match conn.recv()? {
            NetFrame::HelloAck { .. } => Ok(conn),
            other => Err(format!("hello refused: {other:?}")),
        }
    }

    /// Writes one frame.
    ///
    /// # Errors
    ///
    /// The socket error, described.
    pub fn send(&mut self, frame: &NetFrame) -> Result<(), String> {
        self.stream
            .write_all(&frame.encode())
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads whatever the socket holds into the reassembly buffer (one
    /// `read`, which blocks until at least a byte arrives).
    ///
    /// # Errors
    ///
    /// The socket error, or end of stream.
    pub fn fill(&mut self) -> Result<(), String> {
        let mut tmp = [0u8; 64 * 1024];
        match self.stream.read(&mut tmp) {
            Ok(0) => Err("connection closed by the daemon".into()),
            Ok(n) => {
                self.buf.extend_from_slice(&tmp[..n]);
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Carves the next complete frame out of the buffer, with the
    /// nanoseconds its decode took.
    ///
    /// # Errors
    ///
    /// A malformed frame, described.
    pub fn take(&mut self) -> Result<Option<(NetFrame, u64)>, String> {
        match mnn_wire::frame_len(&self.buf, MAGIC, VERSION).map_err(|e| e.to_string())? {
            None => Ok(None),
            Some(end) => {
                let t0 = Instant::now();
                let frame = NetFrame::decode(&self.buf[..end]).map_err(|e| e.to_string())?;
                let ns = t0.elapsed().as_nanos() as u64;
                self.buf.drain(..end);
                Ok(Some((frame, ns)))
            }
        }
    }

    /// Blocks for the next frame.
    ///
    /// # Errors
    ///
    /// As [`Conn::fill`] and [`Conn::take`].
    pub fn recv(&mut self) -> Result<NetFrame, String> {
        loop {
            if let Some((frame, _)) = self.take()? {
                return Ok(frame);
            }
            self.fill()?;
        }
    }

    /// Asks for the daemon's statistics snapshot (nothing else may be in
    /// flight on this connection).
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected reply.
    pub fn stats(&mut self) -> Result<mnn_net::NetStatsWire, String> {
        self.send(&NetFrame::Stats)?;
        match self.recv()? {
            NetFrame::StatsResp(s) => Ok(s),
            other => Err(format!("expected stats, got {other:?}")),
        }
    }
}

/// A running daemon and its two tenant connections.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// The daemon's process id.
    pub pid: u32,
    /// One connection per tenant.
    pub conns: Vec<Conn>,
}

impl Daemon {
    /// Starts the daemon with only the flags `spec` defines (plus the model
    /// and a free loopback port), with no `MNNFAST_*` variable in its
    /// environment, loads every tenant's window, and answers one warm-up
    /// ask per tenant. Returns the daemon and the seconds this took.
    ///
    /// # Errors
    ///
    /// Start-up, load or warm-up failures, described.
    pub fn start(
        bin: &Path,
        model: &Path,
        spec: &Spec,
        inputs: &Inputs,
    ) -> Result<(Daemon, f64), String> {
        let t0 = Instant::now();
        let tenants: Vec<String> = (0..TENANTS).map(|t| format!("{0}={0}", token(t))).collect();
        let mut cmd = Command::new(bin);
        cmd.arg("--model")
            .arg(model)
            .args(["--listen", "127.0.0.1:0", "--tenants", &tenants.join(",")])
            .args(["--precision", spec.precision_flag()]);
        if let Some(w) = spec.window {
            cmd.args(["--window", &w.to_string()]);
        }
        for (k, _) in std::env::vars_os() {
            if k.to_string_lossy().starts_with("MNNFAST_") {
                cmd.env_remove(k);
            }
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let pid = child.id();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("listening on ")
                .and_then(|a| a.parse::<SocketAddr>().ok()),
            _ => None,
        };
        let mut daemon = Daemon {
            child,
            stdout,
            pid,
            conns: Vec::new(),
        };
        let Some(addr) = addr else {
            daemon.kill();
            return Err(format!("daemon did not report its address (got {line:?})"));
        };
        let loaded = (|| {
            for t in 0..TENANTS {
                daemon.conns.push(Conn::open(addr, t)?);
            }
            load(&mut daemon.conns, &inputs.setup)?;
            for t in 0..TENANTS {
                let conn = &mut daemon.conns[t];
                conn.send(&NetFrame::AskTokens {
                    id: u64::MAX - 1,
                    tokens: inputs.questions[0].clone(),
                })?;
                match conn.recv()? {
                    NetFrame::Answer { .. } => {}
                    other => return Err(format!("warm-up ask failed: {other:?}")),
                }
            }
            Ok(())
        })();
        match loaded {
            Ok(()) => Ok((daemon, t0.elapsed().as_secs_f64())),
            Err(e) => {
                daemon.kill();
                Err(e)
            }
        }
    }

    /// Peak resident set of the daemon so far, in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        crate::host::peak_rss_mib(self.pid).unwrap_or(f64::NAN)
    }

    /// Asks the daemon to drain and stop, and waits for it to exit
    /// (killing it after a grace period).
    ///
    /// # Errors
    ///
    /// When the daemon does not acknowledge or exits unsuccessfully.
    pub fn stop(mut self) -> Result<(), String> {
        let acked = match self.conns.first_mut() {
            Some(conn) => conn.send(&NetFrame::Shutdown).and_then(|()| loop {
                match conn.recv()? {
                    NetFrame::ShutdownAck => break Ok(()),
                    _ => continue,
                }
            }),
            None => Err("no connection".into()),
        };
        self.conns.clear();
        let deadline = Instant::now() + STOP_GRACE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    // The daemon's last line ("drained and stopped") was
                    // written before it exited; the pipe is at EOF now.
                    let mut rest = String::new();
                    let _ = self.stdout.read_to_string(&mut rest);
                    return if status.success() {
                        acked
                    } else {
                        Err(format!("daemon exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    self.kill();
                    return Err("daemon did not stop; killed".into());
                }
            }
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A daemon still running here belongs to a failed run: never leave
        // it behind.
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
    }
}

/// Pipelines every tenant's set-up sentences into its memory at once,
/// keeping up to [`LOAD_INFLIGHT`] observes outstanding per connection.
/// Each connection is topped up with one write per read, and one thread
/// waits on both sockets, so the daemon's scheduler always has work queued
/// and the generator's own syscalls stay off the set-up time. Every ack is
/// checked, in order.
fn load(conns: &mut [Conn], setup: &[Vec<Vec<mnn_dataset::WordId>>]) -> Result<(), String> {
    let mut sent = vec![0usize; conns.len()];
    let mut acked = vec![0usize; conns.len()];
    let fds: Vec<i32> = conns.iter().map(|c| c.stream.as_raw_fd()).collect();
    let mut burst = Vec::new();
    while acked.iter().zip(setup).any(|(&a, s)| a < s.len()) {
        for (t, conn) in conns.iter_mut().enumerate() {
            let sentences = &setup[t];
            burst.clear();
            while sent[t] < sentences.len() && sent[t] - acked[t] < LOAD_INFLIGHT {
                burst.extend(
                    NetFrame::ObserveTokens {
                        id: sent[t] as u64,
                        tokens: sentences[sent[t]].clone(),
                    }
                    .encode(),
                );
                sent[t] += 1;
            }
            conn.stream
                .write_all(&burst)
                .map_err(|e| format!("send: {e}"))?;
        }
        let ready = crate::host::poll_readable(&fds, 1000).map_err(|e| format!("poll: {e}"))?;
        for (t, conn) in conns.iter_mut().enumerate() {
            if !ready[t] {
                continue;
            }
            conn.fill()?;
            while let Some((frame, _)) = conn.take()? {
                match frame {
                    NetFrame::ObserveAck { id, .. } if id == acked[t] as u64 => acked[t] += 1,
                    other => return Err(format!("set-up observe {} failed: {other:?}", acked[t])),
                }
            }
        }
    }
    Ok(())
}
