//! Checkpoint I/O behind a narrow, injectable seam.
//!
//! Every filesystem touch the campaign stores make goes through
//! [`StoreIo`], so the chaos harness (`crate::chaos`) can inject I/O
//! failures, torn writes and stalls into the *injector's own* persistence
//! layer, and the sweep driver can wrap the real filesystem in a bounded
//! retry-with-backoff policy ([`RetryIo`]) for transient errors.
//!
//! Production code uses [`RealIo`]; tests substitute `chaos::ChaosIo`.

use std::io::{self, Write};
use std::path::Path;
use std::time::Duration;

/// The filesystem operations a checkpoint store needs. Deliberately
/// coarse-grained (whole-file reads, single-call appends, atomic rewrites)
/// so each call is one crash-consistency unit.
pub trait StoreIo {
    /// Reads the whole file as UTF-8 text.
    fn read_to_string(&self, path: &Path) -> io::Result<String>;

    /// Appends `text` to the file (creating it and its parent directories
    /// if absent) and syncs the data to stable storage before returning.
    fn append(&self, path: &Path, text: &str) -> io::Result<()>;

    /// Replaces the file's contents atomically: the new text is written to
    /// a temporary sibling, synced, then renamed over the target, so a
    /// crash leaves either the old file or the new one — never a torn mix.
    fn write_atomic(&self, path: &Path, text: &str) -> io::Result<()>;

    /// The file's current length in bytes; a missing file reads as 0.
    fn len(&self, path: &Path) -> io::Result<u64>;
}

/// The real filesystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealIo;

impl StoreIo for RealIo {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        std::fs::read_to_string(path)
    }

    fn append(&self, path: &Path, text: &str) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(text.as_bytes())?;
        file.sync_data()
    }

    fn write_atomic(&self, path: &Path, text: &str) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(text.as_bytes())?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        match std::fs::metadata(path) {
            Ok(m) => Ok(m.len()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e),
        }
    }
}

/// How many times to retry a failed checkpoint operation, and how long to
/// back off between attempts (exponential: `base_delay`, `2×`, `4×`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` means no retries).
    pub attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_delay: Duration,
}

impl RetryPolicy {
    /// A sensible default for flaky network filesystems: 4 attempts with
    /// 10 ms / 20 ms / 40 ms backoff.
    pub const DEFAULT: Self = Self {
        attempts: 4,
        base_delay: Duration::from_millis(10),
    };

    /// No retries at all: every failure surfaces immediately.
    pub const NONE: Self = Self {
        attempts: 1,
        base_delay: Duration::ZERO,
    };
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// Wraps any [`StoreIo`] in bounded retry-with-backoff. A transient failure
/// (of any kind — the wrapped I/O decides what fails) is retried up to the
/// policy's attempt budget; a persistent failure surfaces as the *last*
/// error, typed, never a panic.
pub struct RetryIo<'a> {
    inner: &'a dyn StoreIo,
    policy: RetryPolicy,
}

impl<'a> RetryIo<'a> {
    /// Wraps `inner` with `policy`.
    pub fn new(inner: &'a dyn StoreIo, policy: RetryPolicy) -> Self {
        Self { inner, policy }
    }

    fn with_retry<T>(&self, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let attempts = self.policy.attempts.max(1);
        let mut delay = self.policy.base_delay;
        let mut last = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                delay = delay.saturating_mul(2);
            }
            match op() {
                Ok(v) => return Ok(v),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("retry budget of zero attempts")))
    }
}

impl StoreIo for RetryIo<'_> {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.with_retry(|| self.inner.read_to_string(path))
    }

    fn append(&self, path: &Path, text: &str) -> io::Result<()> {
        self.with_retry(|| self.inner.append(path, text))
    }

    fn write_atomic(&self, path: &Path, text: &str) -> io::Result<()> {
        self.with_retry(|| self.inner.write_atomic(path, text))
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        self.with_retry(|| self.inner.len(path))
    }
}

/// Chaos hook for [`free_disk_mb`]: a file whose contents (a number of
/// megabytes) stand in for the real free-space probe, re-read on every
/// probe so a test can flip breach → recovery by rewriting it.
pub const CHAOS_DISK_ENV: &str = "MBU_CHAOS_DISK_FILE";

/// Free disk space in MiB on the filesystem holding `path`, or `None` when
/// the probe itself fails (missing path, no `df`) — the governor treats an
/// unprobeable disk as "no information", not as pressure.
///
/// When `MBU_CHAOS_DISK_FILE` names a file, its contents are the probed
/// value instead; this is the chaos harness's lever for exercising the
/// watermark without actually filling a disk.
pub fn free_disk_mb(path: &Path) -> Option<u64> {
    if let Some(fake) = std::env::var_os(CHAOS_DISK_ENV) {
        return std::fs::read_to_string(fake)
            .ok()
            .and_then(|t| t.trim().parse().ok());
    }
    // `df -Pk` (POSIX portable format, 1k blocks) on the deepest existing
    // ancestor — the shard dir may not exist yet on the first probe.
    let mut probe = path;
    while !probe.exists() {
        probe = probe.parent()?;
    }
    let out = std::process::Command::new("df")
        .arg("-Pk")
        .arg(probe)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    // Header line, then one data line: fs, 1k-blocks, used, available, …
    let avail_kb: u64 = text
        .lines()
        .nth(1)?
        .split_whitespace()
        .nth(3)?
        .parse()
        .ok()?;
    Some(avail_kb / 1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::TempDir;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn real_io_roundtrips_and_counts_length() {
        let dir = TempDir::new("io-roundtrip");
        let path = dir.join("nested/f.csv");
        let io = RealIo;
        assert_eq!(io.len(&path).unwrap(), 0, "missing file reads as empty");
        io.append(&path, "a\n").unwrap();
        io.append(&path, "b\n").unwrap();
        assert_eq!(io.read_to_string(&path).unwrap(), "a\nb\n");
        assert_eq!(io.len(&path).unwrap(), 4);
        io.write_atomic(&path, "replaced\n").unwrap();
        assert_eq!(io.read_to_string(&path).unwrap(), "replaced\n");
    }

    struct FlakyIo {
        fail_first: usize,
        calls: AtomicUsize,
        inner: RealIo,
    }

    impl StoreIo for FlakyIo {
        fn read_to_string(&self, path: &Path) -> io::Result<String> {
            self.inner.read_to_string(path)
        }
        fn append(&self, path: &Path, text: &str) -> io::Result<()> {
            if self.calls.fetch_add(1, Ordering::Relaxed) < self.fail_first {
                return Err(io::Error::other("simulated transient failure"));
            }
            self.inner.append(path, text)
        }
        fn write_atomic(&self, path: &Path, text: &str) -> io::Result<()> {
            self.inner.write_atomic(path, text)
        }
        fn len(&self, path: &Path) -> io::Result<u64> {
            self.inner.len(path)
        }
    }

    #[test]
    fn retry_io_rides_out_transient_failures() {
        let dir = TempDir::new("io-retry");
        let path = dir.join("f.csv");
        let flaky = FlakyIo {
            fail_first: 2,
            calls: AtomicUsize::new(0),
            inner: RealIo,
        };
        let retry = RetryIo::new(
            &flaky,
            RetryPolicy {
                attempts: 3,
                base_delay: Duration::ZERO,
            },
        );
        retry.append(&path, "survived\n").unwrap();
        assert_eq!(retry.read_to_string(&path).unwrap(), "survived\n");
    }

    #[test]
    fn retry_io_surfaces_persistent_failures_typed() {
        let dir = TempDir::new("io-persistent");
        let path = dir.join("f.csv");
        let flaky = FlakyIo {
            fail_first: usize::MAX,
            calls: AtomicUsize::new(0),
            inner: RealIo,
        };
        let retry = RetryIo::new(
            &flaky,
            RetryPolicy {
                attempts: 3,
                base_delay: Duration::ZERO,
            },
        );
        let err = retry.append(&path, "never\n").unwrap_err();
        assert!(err.to_string().contains("transient failure"));
        assert_eq!(
            flaky.calls.load(Ordering::Relaxed),
            3,
            "attempt budget spent"
        );
    }

    #[test]
    fn disk_probe_reports_something_sane_for_tempdir() {
        // Not asserting a specific number — just that the real probe works
        // on the build machine and missing paths fall back to an ancestor.
        let free = free_disk_mb(&std::env::temp_dir().join("mbu-nonexistent/deeper"));
        assert!(free.is_some(), "df probe failed");
    }
}
