//! Child processes of the benchmark: the `tricluster` binary it drives, a
//! `tricluster serve` daemon that is always stopped and waited for, and
//! peak-memory readings of both.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tricluster_core::obs::httpd::{http_get, http_post};

/// The release `tricluster` binary built next to this executable.
pub fn tricluster_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let bin = exe.with_file_name("tricluster");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found: build the CLI into the same target directory first \
             (cargo build --release -p tricluster-cli)",
            bin.display()
        ))
    }
}

/// Largest resident set, in MiB, of any child this process has waited
/// for (`getrusage(RUSAGE_CHILDREN)`).
#[cfg(target_os = "linux")]
pub fn children_peak_rss_mb() -> Option<f64> {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timeval {
        sec: c_long,
        usec: c_long,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: c_long,
        rest: [c_long; 13],
    }
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    const RUSAGE_CHILDREN: c_int = -1;
    let mut usage = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `Rusage` mirrors Linux's `struct rusage` (two timevals of
    // two longs, then fourteen longs), so the kernel writes only inside
    // the zeroed buffer, which stays valid for the call.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, usage.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    // SAFETY: the buffer was zero-initialised, a valid `Rusage`, and the
    // successful call only overwrote it with kernel-provided integers.
    let usage = unsafe { usage.assume_init() };
    Some(usage.maxrss as f64 / 1024.0)
}

#[cfg(not(target_os = "linux"))]
pub fn children_peak_rss_mb() -> Option<f64> {
    None
}

/// Peak resident set (`VmHWM`), in MiB, of a running process.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A running `tricluster serve` daemon.
pub struct Daemon {
    child: Child,
    pub url: String,
}

impl Daemon {
    /// Spawns `serve 127.0.0.1:0 --workers 2 --ledger <ledger>` with its
    /// stderr in `log`, and returns once `/healthz` answers 200.
    pub fn spawn(bin: &Path, ledger: &Path, log: &Path) -> Result<Daemon, String> {
        let log_file = std::fs::File::create(log)
            .map_err(|e| format!("cannot create {}: {e}", log.display()))?;
        let child = Command::new(bin)
            .args(["serve", "127.0.0.1:0", "--workers", "2", "--ledger"])
            .arg(ledger)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            url: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        while daemon.url.is_empty() {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(url) = text
                .lines()
                .find_map(|l| l.strip_prefix("serve: listening on "))
            {
                daemon.url = url.trim().to_owned();
            } else if Instant::now() > deadline {
                return Err(format!("daemon did not announce its address: {text}"));
            } else if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited early ({status}): {text}"));
            } else {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        loop {
            match http_get(&format!("{}/healthz", daemon.url)) {
                Ok((200, _)) => return Ok(daemon),
                _ if Instant::now() > deadline => {
                    return Err("daemon never answered /healthz".into())
                }
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drains the daemon and waits for it to exit 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        let (status, body) = http_post(
            &format!("{}/shutdown", self.url),
            "application/json",
            br#"{"mode":"drain"}"#,
        )?;
        if status != 200 {
            return Err(format!("shutdown answered {status}: {body}"));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon did not drain within 30 s".into()),
                Err(e) => return Err(format!("cannot wait for the daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    /// Kills and reaps a daemon that was not shut down cleanly.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
