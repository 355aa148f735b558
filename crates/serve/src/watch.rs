//! Watched target directories: a file-backed target source for the poll
//! loop.
//!
//! `--watch NAME=DIR` makes every regular, non-dot file in DIR a target of
//! the app registered as NAME; the app's own snapshot file and
//! subdirectories are not targets.  Each poll tick rescans the directory
//! and compares every file's [`FileSig`] with the signature its last
//! *answered* check saw, so only added or changed targets are re-checked —
//! all of them after the app's detector reloads, since new rules
//! invalidate old verdicts.  Checks travel the same bounded queue and
//! dispatcher as socket clients, so a watched report is byte-identical to
//! a `check` request for the same payload, and a `busy` queue leaves the
//! target unanswered for the next tick instead of losing it.

use crate::protocol::Response;
use crate::registry::SnapshotRegistry;
use encore::FileSig;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One watched directory and what its answered checks last saw.
#[derive(Debug)]
pub(crate) struct WatchedDir {
    app: String,
    dir: PathBuf,
    /// Each target's signature as of its last answered check.
    answered: BTreeMap<String, FileSig>,
    /// The app's reload count `answered` was checked under.
    reloads: u64,
}

/// The current targets of `dir`: name → (path, signature) for regular
/// non-dot files, minus the snapshot file.
fn scan(
    dir: &Path,
    snapshot: Option<&Path>,
) -> std::io::Result<BTreeMap<String, (PathBuf, FileSig)>> {
    let mut seen = BTreeMap::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with('.') {
            continue;
        }
        if snapshot.is_some_and(|snap| std::fs::canonicalize(&path).is_ok_and(|p| p == snap)) {
            continue;
        }
        // Directories and files that vanished mid-scan have no signature.
        if let Some(sig) = FileSig::of(&path) {
            seen.insert(name.to_string(), (path, sig));
        }
    }
    Ok(seen)
}

impl WatchedDir {
    pub(crate) fn new(app: String, dir: PathBuf) -> WatchedDir {
        WatchedDir {
            app,
            dir,
            answered: BTreeMap::new(),
            reloads: 0,
        }
    }

    /// Run one tick: rescan, hand the added or changed targets to `check`
    /// as one batch, and return `(NAME/file, report body)` for every
    /// answered target in file-name order.  Targets whose check was not
    /// answered with reports (`busy`, shutdown) stay pending.
    ///
    /// # Errors
    ///
    /// A directory that cannot be read; the next tick tries again.
    pub(crate) fn tick(
        &mut self,
        registry: &SnapshotRegistry,
        check: impl FnOnce(&str, Vec<(String, String)>) -> Response,
    ) -> std::io::Result<Vec<(String, String)>> {
        let reloads = registry
            .statuses()
            .into_iter()
            .find(|status| status.name == self.app)
            .map_or(0, |status| status.reloads);
        if reloads != self.reloads {
            self.answered.clear();
            self.reloads = reloads;
        }
        let snapshot = registry
            .snapshot_path(&self.app)
            .and_then(|path| std::fs::canonicalize(path).ok());
        let seen = scan(&self.dir, snapshot.as_deref())?;
        self.answered.retain(|name, _| seen.contains_key(name));

        let mut targets = Vec::new();
        let mut sigs = Vec::new();
        for (name, (path, sig)) in seen {
            if self.answered.get(&name) == Some(&sig) {
                continue;
            }
            // Unreadable or not UTF-8: stays pending, retried next tick.
            let Ok(payload) = std::fs::read_to_string(&path) else {
                continue;
            };
            targets.push((name, payload));
            sigs.push(sig);
        }
        if targets.is_empty() {
            return Ok(Vec::new());
        }
        let Response::Reports(reports) = check(&self.app, targets) else {
            return Ok(Vec::new());
        };
        // A file rewritten after the scan keeps its older signature here,
        // so the next tick sees a change and checks it again.
        let mut answered = Vec::with_capacity(reports.len());
        for ((name, body), sig) in reports.into_iter().zip(sigs) {
            answered.push((format!("{}/{name}", self.app), body));
            self.answered.insert(name, sig);
        }
        Ok(answered)
    }
}
