//! Host facts the benchmark records with every run, read from `/proc`, and
//! the one foreign call it needs: `poll(2)` from the libc that std already
//! links (declared here rather than pulled in through a crate).

use std::os::raw::{c_int, c_short, c_ulong};
use std::path::Path;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first `model name` in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The kernel backend the tensor crate dispatches to in this process.
pub fn simd_backend() -> &'static str {
    mnn_tensor::simd::backend().label()
}

/// The git revision of `repo` when it is a git checkout, plus an FNV-1a
/// fingerprint of every Rust source and manifest under `crates/`, which
/// identifies the measured code in checkouts without git metadata.
pub fn revision(repo: &Path) -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(repo)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "none".to_owned());
    let mut files = Vec::new();
    collect_sources(&repo.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f
            .strip_prefix(repo)
            .unwrap_or(f)
            .to_string_lossy()
            .bytes()
            .chain(bytes)
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("git {git}, sources fnv {h:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// A `key:` line of `/proc/<pid>/status`, in its first unit (kB for the
/// memory fields, a count for `Threads`).
fn status_field(pid: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|r| {
            r.trim_start_matches(':')
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        })
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    status_field(&pid.to_string(), "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Threads of this process right now.
pub fn own_threads() -> u64 {
    status_field("self", "Threads").unwrap_or(0)
}

/// Aggregate CPU time counters from `/proc/stat`: (steal, total), in
/// clock ticks. On a virtual machine, steal is time the hypervisor ran
/// someone else on this machine's CPUs.
pub fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

const POLLIN: c_short = 0x001;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;

/// Waits up to `timeout_ms` for any of `fds` to become readable (or to
/// fail); returns one flag per descriptor.
///
/// # Errors
///
/// The OS error when `poll` fails for a reason other than a signal.
pub fn poll_readable(fds: &[c_int], timeout_ms: i32) -> std::io::Result<Vec<bool>> {
    let mut set: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    // SAFETY: `set` is a live, exclusively borrowed array of `set.len()`
    // `pollfd`-layout records (`#[repr(C)]`, same field types as the C
    // struct); `poll` writes only their `revents` fields and keeps no
    // pointer after returning.
    let rc = unsafe { poll(set.as_mut_ptr(), set.len() as c_ulong, timeout_ms) };
    if rc < 0 {
        let err = std::io::Error::last_os_error();
        if err.kind() == std::io::ErrorKind::Interrupted {
            return Ok(vec![false; fds.len()]);
        }
        return Err(err);
    }
    Ok(set
        .iter()
        .map(|p| p.revents & (POLLIN | POLLERR | POLLHUP) != 0)
        .collect())
}
