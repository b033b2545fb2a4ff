//! The integrity scrubber: re-verifies persisted state (audit chain,
//! rollback tree, cache coherence, store orphans) in budgeted steps, so
//! silent corruption is found within one pass instead of on the next
//! unlucky request.
//!
//! It lives inside the enclave because it reads plaintext — every
//! object goes through the verified, cache-bypassing read path under
//! the object's read lock. What it hands back, [`ScrubReport`], is
//! per-check counts and keyed fingerprints of what failed; when to
//! step, what the findings add up to and what verdict they imply is
//! the host's business (`crate::telemetry`).

use seg_fs::{DirFile, SegPath, UserId};

use super::audit::AuditScrubCursor;
use super::locks::{LockIntent, LockKey};
use super::names::{ObjectId, StoreKind};
use super::trusted_store::GroupRootFile;
use super::SegShareEnclave;

/// Audit records re-verified per scrub step.
const AUDIT_RECORDS_PER_STEP: u64 = 512;
/// Namespace objects re-verified per scrub step.
const WALK_OBJECTS_PER_STEP: usize = 64;
/// Cache-resident bodies probed for coherence per pass.
const CACHE_PROBES_PER_PASS: usize = 16;

/// The scrubber's check classes — also the `check` label values of the
/// `seg_scrub_*` metric families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubCheck {
    /// Incremental audit-chain re-verification.
    Audit,
    /// Namespace walk through the verified read path (rollback tree,
    /// AEAD, decode).
    Tree,
    /// Cache-generation coherence probe.
    Cache,
    /// Untrusted-store orphan/refcount scan.
    Orphan,
}

impl ScrubCheck {
    /// All checks, in scrub order.
    pub const ALL: [ScrubCheck; 4] = [
        ScrubCheck::Audit,
        ScrubCheck::Tree,
        ScrubCheck::Cache,
        ScrubCheck::Orphan,
    ];

    /// The compiled-in `check` label value.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ScrubCheck::Audit => "audit",
            ScrubCheck::Tree => "tree",
            ScrubCheck::Cache => "cache",
            ScrubCheck::Orphan => "orphan",
        }
    }

    /// Position in [`ScrubCheck::ALL`] (and in [`ScrubReport::items`]).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One unit of namespace-walk work.
enum ScrubItem {
    /// A directory or a file, with its ACL.
    Path(SegPath),
    GroupRoot,
    GroupList,
    Member(UserId),
}

/// Resumable scrub-pass state. A pass re-verifies the audit chain and
/// the whole namespace in budgeted steps, then runs the cache probe
/// and the orphan scan once both walks complete.
#[derive(Default)]
pub(super) struct ScrubProgress {
    /// `Some` while a pass is running; holds the store listing taken at
    /// pass start (the orphan scan's first witness).
    start_keys: Option<Vec<(StoreKind, String)>>,
    audit_cursor: Option<AuditScrubCursor>,
    audit_done: bool,
    pending: Vec<ScrubItem>,
    walk_done: bool,
    /// Keys the namespace walk proved are legitimately occupied.
    expected: Vec<(StoreKind, String)>,
}

/// Outcome of one [`SegShareEnclave::scrub_step`] call — what crosses
/// the boundary from the scrubber: counts and fingerprints.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// Objects/records examined in this step, per check (indexed like
    /// [`ScrubCheck::ALL`]).
    pub items: [u64; 4],
    /// Integrity findings raised in this step: the check that raised
    /// each and the keyed fingerprint of what failed (0 when the failure
    /// has no single object, e.g. an unlistable store or a broken audit
    /// chain).
    pub findings: Vec<(ScrubCheck, u64)>,
    /// Whether this step completed a full pass (all four checks ran).
    pub pass_completed: bool,
}

impl ScrubReport {
    fn examined(&mut self, check: ScrubCheck, n: u64) {
        self.items[check.index()] += n;
    }

    fn finding(&mut self, check: ScrubCheck, fingerprint: u64) {
        self.findings.push((check, fingerprint));
    }
}

impl SegShareEnclave {
    /// Runs one budgeted integrity-scrub step, resuming the current
    /// pass. Each pass re-verifies the audit chain incrementally,
    /// walks the whole namespace through the verified (cache-
    /// bypassing) read path, probes cache coherence, and finishes with
    /// an orphan scan of the content and group stores. The caller — the
    /// host's health tick — folds the returned report into its counters,
    /// alert ring and verdict. Scrub time is charged to the `scrub`
    /// profiler phase.
    pub fn scrub_step(&self) -> ScrubReport {
        let _prof = self.obs.profile_root("scrub");
        let mut progress = self.scrub.lock();
        let mut report = ScrubReport::default();

        if progress.start_keys.is_none() {
            let mut start = Vec::new();
            for kind in [StoreKind::Content, StoreKind::Group] {
                match self.store().list_store(kind) {
                    Ok(keys) => start.extend(keys.into_iter().map(|k| (kind, k))),
                    Err(_) => {
                        report.finding(ScrubCheck::Orphan, 0);
                    }
                }
            }
            *progress = ScrubProgress {
                start_keys: Some(start),
                audit_done: self.audit.is_none(),
                pending: vec![
                    ScrubItem::GroupRoot,
                    ScrubItem::GroupList,
                    ScrubItem::Path(SegPath::root()),
                ],
                ..ScrubProgress::default()
            };
        }

        if !progress.audit_done {
            if let Some(log) = self.audit.as_ref() {
                let mut cursor = progress.audit_cursor.take();
                match log.verify_window(&mut cursor, AUDIT_RECORDS_PER_STEP) {
                    Ok(step) => {
                        report.examined(ScrubCheck::Audit, step.checked);
                        progress.audit_done = step.complete;
                    }
                    Err(_) => {
                        report.finding(ScrubCheck::Audit, 0);
                        // The chain is bad; re-walking it each step
                        // would only repeat the finding this pass.
                        progress.audit_done = true;
                    }
                }
                progress.audit_cursor = cursor;
            }
        }

        let mut walked = 0usize;
        while walked < WALK_OBJECTS_PER_STEP {
            let Some(item) = progress.pending.pop() else {
                progress.walk_done = true;
                break;
            };
            walked += 1;
            self.scrub_walk_item(&item, &mut progress, &mut report);
        }
        report.examined(ScrubCheck::Tree, walked as u64);

        if progress.walk_done && progress.audit_done {
            self.scrub_finish_pass(&mut progress, &mut report);
        }
        report
    }

    /// Verifies one namespace object (and discovers its children).
    /// Takes the object's read lock so a concurrent writer's multi-key
    /// update (tree record + body + directory entry) is never observed
    /// half-done.
    fn scrub_walk_item(
        &self,
        item: &ScrubItem,
        progress: &mut ScrubProgress,
        report: &mut ScrubReport,
    ) {
        let keys = self.store().keys();
        let mut finding = |fp: u64| report.finding(ScrubCheck::Tree, fp);
        match item {
            ScrubItem::Path(path) => {
                let _scope = self
                    .locks
                    .acquire(&[(LockKey::path(path), LockIntent::Read)]);
                let fp = keys.fingerprint("object", path.as_str().as_bytes());
                let body_id = if path.is_dir() {
                    ObjectId::DirData(path.clone())
                } else {
                    ObjectId::FileData(path.clone())
                };
                let acl_id = ObjectId::Acl(path.clone());
                self.store().expected_keys(&body_id, &mut progress.expected);
                self.store().expected_keys(&acl_id, &mut progress.expected);
                // Entries are discovered from their parent (or are the
                // root, created at init): absence is loss.
                let body = self.store().scrub_read(&body_id);
                if !matches!(body, Ok(Some(_))) {
                    finding(fp);
                }
                if !matches!(self.store().scrub_read(&acl_id), Ok(Some(_))) {
                    finding(fp);
                }
                if let (true, Ok(Some(body))) = (path.is_dir(), body) {
                    match DirFile::decode(&body) {
                        Ok(dir) => progress.pending.extend(
                            dir.children()
                                .filter_map(|(name, kind)| dir.child_path(name, kind).ok())
                                .map(ScrubItem::Path),
                        ),
                        Err(_) => finding(fp),
                    }
                }
            }
            ScrubItem::GroupRoot => {
                let _scope = self
                    .locks
                    .acquire(&[(LockKey::GroupRoot, LockIntent::Read)]);
                self.store()
                    .expected_keys(&ObjectId::GroupRoot, &mut progress.expected);
                match self.store().scrub_read(&ObjectId::GroupRoot) {
                    Ok(Some(body)) => match GroupRootFile::decode(&body) {
                        Ok(root) => {
                            for user in root.users() {
                                progress.pending.push(ScrubItem::Member(user.clone()));
                            }
                        }
                        Err(_) => finding(keys.fingerprint("object", b"group-root")),
                    },
                    // No groups were ever created: legitimately absent.
                    Ok(None) => {}
                    Err(_) => finding(keys.fingerprint("object", b"group-root")),
                }
            }
            ScrubItem::GroupList => {
                let _scope = self
                    .locks
                    .acquire(&[(LockKey::GroupList, LockIntent::Read)]);
                self.store()
                    .expected_keys(&ObjectId::GroupList, &mut progress.expected);
                if self.store().scrub_read(&ObjectId::GroupList).is_err() {
                    finding(keys.fingerprint("object", b"group-list"));
                }
            }
            ScrubItem::Member(user) => {
                let _scope = self
                    .locks
                    .acquire(&[(LockKey::member(user), LockIntent::Read)]);
                self.store()
                    .expected_keys(&ObjectId::MemberList(user.clone()), &mut progress.expected);
                if self
                    .store()
                    .scrub_read(&ObjectId::MemberList(user.clone()))
                    .is_err()
                {
                    finding(keys.fingerprint("user", user.as_str().as_bytes()));
                }
            }
        }
    }

    /// End-of-pass checks: the cache coherence probe, then the orphan
    /// scan — a key is an orphan only if it was present in *both* the
    /// pass-start and pass-end listings (a key seen once may be a
    /// legitimately created-then-deleted object mid-pass) and the walk
    /// never claimed it. Sealed-state and audit blobs (`!`-prefixed)
    /// are the host runtime's, and the dedup store is content-
    /// addressed with blobs intentionally retained forever — neither
    /// is scanned.
    fn scrub_finish_pass(&self, progress: &mut ScrubProgress, report: &mut ScrubReport) {
        let keys = self.store().keys();
        let (probed, mismatched) = self.store().scrub_cache_probe(CACHE_PROBES_PER_PASS);
        report.examined(ScrubCheck::Cache, probed);
        for id in mismatched {
            report.finding(
                ScrubCheck::Cache,
                keys.fingerprint("object", id.canonical().as_bytes()),
            );
        }

        let start: std::collections::HashSet<(StoreKind, String)> = progress
            .start_keys
            .take()
            .unwrap_or_default()
            .into_iter()
            .collect();
        let expected: std::collections::HashSet<(StoreKind, String)> =
            progress.expected.drain(..).collect();
        for kind in [StoreKind::Content, StoreKind::Group] {
            let end = match self.store().list_store(kind) {
                Ok(keys) => keys,
                Err(_) => {
                    report.finding(ScrubCheck::Orphan, 0);
                    continue;
                }
            };
            report.examined(ScrubCheck::Orphan, end.len() as u64);
            for key in end {
                if key.starts_with('!') {
                    continue;
                }
                let entry = (kind, key);
                if start.contains(&entry) && !expected.contains(&entry) {
                    report.finding(
                        ScrubCheck::Orphan,
                        keys.fingerprint("orphan", entry.1.as_bytes()),
                    );
                }
            }
        }

        *progress = ScrubProgress::default();
        report.pass_completed = true;
    }
}
