//! File-backed detection targets: the pieces every long-running surface
//! shares.
//!
//! [`target_image`] wraps one configuration file's contents into a
//! minimal [`SystemImage`]; such targets carry no accounts, services, or
//! filesystem beyond the config itself, so environment-backed rules
//! evaluate to not-applicable and the checks that run are the
//! config-content ones (unknown entries, type violations, suspicious
//! values, config-only correlations).  [`FileSig`] is the "did this file
//! really change" key used by `encore-serve`'s snapshot hot-reload and its
//! watched target directories, and [`StopFlag`] is the wakeable stop
//! signal that bounds its shutdown latency.

use encore_model::AppKind;
use encore_sysimage::SystemImage;
use std::path::Path;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// A file's last observed state: metadata plus a content fingerprint.
///
/// Metadata alone is not a change key — an in-place rewrite with identical
/// length inside the filesystem's mtime resolution produces the same
/// `(mtime, size)` pair, and such a target would silently never be
/// re-checked.  Folding an FNV-1a hash of the contents into the signature
/// closes that hole; the files are small configs already read every
/// re-check, so hashing them each poll is cheap and dependency-free.
///
/// Public because every hot-reload surface in `encore-serve` shares it:
/// the per-app snapshot registry and the watched target directories both
/// key "did this file really change" on the same signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileSig {
    mtime: SystemTime,
    size: u64,
    fingerprint: u64,
}

impl FileSig {
    /// Read a regular file's signature; `None` for directories, dangling
    /// entries, or races where the file vanished mid-poll.
    pub fn of(path: &Path) -> Option<FileSig> {
        sig_of(path)
    }
}

/// A shared, wakeable stop signal for long-running loops.
///
/// The `encore-serve` daemon must stop *promptly* when asked — stdin hit end-of-file, a `shutdown` verb arrived — but an
/// idle loop spends almost all of its time sleeping out the poll interval.
/// A plain `AtomicBool` polled between cycles leaves a full interval of
/// shutdown latency; this flag pairs the boolean with a [`Condvar`] so
/// [`StopFlag::stop`] wakes any in-progress [`StopFlag::wait_timeout`]
/// immediately.
#[derive(Debug, Default)]
pub struct StopFlag {
    stopped: Mutex<bool>,
    wake: Condvar,
}

impl StopFlag {
    /// A new, un-stopped flag.
    pub fn new() -> StopFlag {
        StopFlag::default()
    }

    /// Signal stop and wake every waiter.
    pub fn stop(&self) {
        let mut stopped = self.stopped.lock().expect("stop flag poisoned");
        *stopped = true;
        self.wake.notify_all();
    }

    /// Whether stop has been signalled.
    pub fn is_stopped(&self) -> bool {
        *self.stopped.lock().expect("stop flag poisoned")
    }

    /// Block until [`StopFlag::stop`] is called.
    pub fn wait(&self) {
        let mut stopped = self.stopped.lock().expect("stop flag poisoned");
        while !*stopped {
            stopped = self.wake.wait(stopped).expect("stop flag poisoned");
        }
    }

    /// Block for at most `timeout`, returning early — with `true` — the
    /// moment [`StopFlag::stop`] is called.  Returns whether the flag is
    /// stopped when the wait ends.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let mut stopped = self.stopped.lock().expect("stop flag poisoned");
        let deadline = Instant::now() + timeout;
        while !*stopped {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .wake
                .wait_timeout(stopped, deadline - now)
                .expect("stop flag poisoned");
            stopped = guard;
        }
        true
    }
}

/// 64-bit FNV-1a over the file contents — not cryptographic, just a
/// stable, dependency-free discriminator for same-size rewrites.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Read a regular file's signature; `None` for directories, dangling
/// entries, or races where the file vanished mid-poll.
fn sig_of(path: &Path) -> Option<FileSig> {
    let meta = std::fs::metadata(path).ok()?;
    if !meta.is_file() {
        return None;
    }
    let contents = std::fs::read(path).ok()?;
    Some(FileSig {
        mtime: meta.modified().ok()?,
        size: meta.len(),
        fingerprint: fnv1a(&contents),
    })
}

/// Wrap one configuration file's contents into a minimal [`SystemImage`]
/// whose only file is the app's canonical config path, owned by root.
pub fn target_image(app: AppKind, id: &str, config: &str) -> SystemImage {
    SystemImage::builder(id)
        .file(app.config_path(), "root", "root", 0o644, config)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("encore-sig-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn signature_distinguishes_same_size_rewrite_with_preserved_mtime() {
        let dir = scratch("same-size");
        let path = dir.join("target.cnf");
        std::fs::write(&path, "[mysqld]\nport = 3306\n").unwrap();
        let before = sig_of(&path).expect("signature");

        // Rewrite with different contents of the *same length*, then put
        // the original mtime back — metadata is now indistinguishable.
        std::fs::write(&path, "[mysqld]\nport = 3307\n").unwrap();
        std::fs::File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_modified(before.mtime)
            .unwrap();
        let after = sig_of(&path).expect("signature");

        assert_eq!(after.mtime, before.mtime, "mtime restored");
        assert_eq!(after.size, before.size, "same length");
        assert_ne!(after, before, "fingerprint catches the rewrite");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn signature_is_stable_for_unchanged_contents() {
        let dir = scratch("stable");
        let path = dir.join("target.cnf");
        std::fs::write(&path, "[mysqld]\nport = 3306\n").unwrap();
        assert_eq!(sig_of(&path), sig_of(&path));
        assert!(sig_of(&dir).is_none(), "directories have no signature");
        assert!(sig_of(&dir.join("missing")).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn stop_flag_wait_reports_timeout_vs_stop() {
        let flag = StopFlag::new();
        assert!(!flag.wait_timeout(Duration::from_millis(1)), "timed out");
        assert!(!flag.is_stopped());
        flag.stop();
        assert!(flag.is_stopped());
        assert!(
            flag.wait_timeout(Duration::from_secs(600)),
            "already stopped"
        );
    }
}
