//! The `evcap serve` child process and the `/proc` figures read about it.

use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `evcap serve`; killed and reaped on drop if not stopped.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    // Held so the server's later stdout lines never meet a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Starts `evcap serve --addr 127.0.0.1:0 <args>` and waits for its
    /// `listening on http://HOST:PORT` line. The server's stderr goes to
    /// `log`.
    ///
    /// `EVCAP_THREADS=1` keeps a replicated simulation on the worker that
    /// serves it, so the server runs on its `--threads` workers alone
    /// instead of spawning two more threads per request on two cores.
    pub fn spawn(evcap: &Path, args: &[String], log: &Path) -> io::Result<Server> {
        let mut child = Command::new(evcap)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(args)
            .env("EVCAP_THREADS", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(File::create(log)?)
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(_) => line
                .trim()
                .strip_prefix("listening on http://")
                .and_then(|a| a.parse::<SocketAddr>().ok()),
            Err(_) => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            let detail = std::fs::read_to_string(log).unwrap_or_default();
            return Err(io::Error::other(format!(
                "evcap serve did not start (stdout {line:?}): {detail}"
            )));
        };
        Ok(Server {
            child,
            addr,
            _stdout: stdout,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to drain (SIGTERM, as an operator would) and waits
    /// for it, so its access log is flushed; kills it after 30 s.
    pub fn stop(mut self) -> io::Result<()> {
        terminate(self.child.id());
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!(
                        "evcap serve exited with {status}"
                    )))
                };
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err(io::Error::other("evcap serve did not drain within 30 s"))
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

fn terminate(pid: u32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    if let Ok(pid) = i32::try_from(pid) {
        // SAFETY: kill(2) takes two integers and touches no memory of this
        // process; `pid` is a child that has not been reaped yet, so the
        // id cannot have been reused.
        unsafe {
            kill(pid, SIGTERM);
        }
    }
}

/// User plus system CPU seconds of process `pid` (`"self"` for this one).
pub fn cpu_seconds(pid: &str) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    // /proc reports in USER_HZ, which Linux fixes at 100 for userspace.
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}
