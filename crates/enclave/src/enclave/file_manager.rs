//! The trusted file manager (§IV-B): content and directory file
//! operations, streaming uploads/downloads with constant enclave
//! buffers (§VI), and the deduplication extension (§V-A).

use std::sync::Arc;

use seg_crypto::hmac::Hmac;
use seg_crypto::rng::{SecureRandom, SystemRng};
use seg_crypto::sha256::Sha256;
use seg_fs::{AclFile, ChildKind, DirFile, GroupId, SegPath};
use seg_proto::{put_data_header, ErrorCode, ListingEntry, CHUNK_LEN, DATA_HEADER_LEN};
use seg_sgx::pfs::{PfsFile, PfsWriter, DATA_PER_NODE};
use seg_tls::RECORD_OVERHEAD;

use crate::error::SegShareError;

use super::keys::hex;
use super::names::ObjectId;
use super::trusted_store::{Change, StreamBody, TrustedStore};

/// Content-file body trailer: the bytes before it are the content. The
/// marker is the *last* body byte, so stored byte *i* is client byte *i*
/// and a download hands nodes on as they decrypt.
const MARKER_INLINE: u8 = 0;
/// Content-file body trailer: the bytes before it name a dedup-store
/// blob (§V-A, "comparable to symbolic links in file systems").
const MARKER_DEDUP: u8 = 1;

/// Splits a content-file body into what precedes the trailer and the
/// trailer marker; `None` for an empty body, which no writer produces.
fn split_marker(body: &[u8]) -> Option<(&[u8], u8)> {
    body.split_last().map(|(marker, rest)| (rest, *marker))
}

/// File and directory operations bound to the trusted store.
#[derive(Clone)]
pub struct FileManager {
    store: Arc<TrustedStore>,
}

impl std::fmt::Debug for FileManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FileManager(..)")
    }
}

fn bad(code: ErrorCode, msg: impl Into<String>) -> SegShareError {
    SegShareError::request(code, msg)
}

/// `what` of an entry that verified state says exists (its ACL was
/// found, or its parent lists it) is not in the store: the store hid or
/// deleted it.
fn missing(path: &SegPath, what: &str) -> SegShareError {
    SegShareError::Integrity(format!("{path}: {what} is missing from the store"))
}

impl FileManager {
    pub(crate) fn new(store: Arc<TrustedStore>) -> FileManager {
        FileManager { store }
    }

    /// Writes the empty file system of a first enclave start: root
    /// directory file, root ACL, group-store root, and group list. Only
    /// launch calls it, and only when it has just generated the root
    /// key: a restart never writes these, whatever the store returns.
    pub fn init_file_system(&self) -> Result<(), SegShareError> {
        let root = SegPath::root();
        self.store.write(
            &ObjectId::DirData(root.clone()),
            &DirFile::new(root.clone()).encode(),
        )?;
        self.store
            .write(&ObjectId::Acl(root), &AclFile::new().encode())?;
        self.store.write(
            &ObjectId::GroupRoot,
            &super::trusted_store::GroupRootFile::new().encode(),
        )?;
        self.store
            .write(&ObjectId::GroupList, &seg_fs::GroupListFile::new().encode())
    }

    /// Loads a directory file, read in place.
    fn dir_file(&self, path: &SegPath) -> Result<Option<Arc<DirFile>>, SegShareError> {
        let id = ObjectId::DirData(path.clone());
        self.store
            .read_decoded(&id, |body| Ok(DirFile::decode(body)?))
    }

    /// What the verified directory file of `path`'s parent lists under
    /// `path`'s name — nothing, a file or a directory: the one answer
    /// every creation decision takes. `NotFound` when the parent
    /// directory is not stored; a missing root directory is tampering.
    pub fn listed(&self, path: &SegPath) -> Result<Option<ChildKind>, SegShareError> {
        let parent = path.parent().expect("children are never the root");
        match self.dir_file(&parent)? {
            Some(dir) => Ok(dir.child(path.name())),
            None if parent.is_root() => Err(missing(&parent, "the directory file")),
            None => Err(bad(
                ErrorCode::NotFound,
                format!("parent directory {parent} missing"),
            )),
        }
    }

    /// The directory file of `child`'s parent copied to edit, read
    /// through the verified path before the commit that saves it.
    fn parent_to_edit(&self, child: &SegPath) -> Result<DirFile, SegShareError> {
        let parent = child.parent().expect("children are never the root");
        let dir = self.dir_file(&parent)?;
        Ok(Arc::unwrap_or_clone(
            dir.ok_or_else(|| missing(&parent, "the directory file"))?,
        ))
    }

    /// Writes the entry at `path` — its `body` (content or directory
    /// file) and its ACL — and links it into its parent's directory
    /// file (Algorithm 1's `write(path2, PAE_Enc(SK_f2, IV, con +
    /// path1))`), in one commit.
    fn link(
        &self,
        path: &SegPath,
        body: (&ObjectId, Change<'_>),
        acl: &[u8],
    ) -> Result<(), SegShareError> {
        let kind = match path.is_dir() {
            true => ChildKind::Directory,
            false => ChildKind::File,
        };
        let mut parent = self.parent_to_edit(path)?;
        parent.add_child(path.name(), kind);
        self.store.commit([
            body,
            (&ObjectId::Acl(path.clone()), Change::Body(acl)),
            (
                &ObjectId::DirData(parent.path().clone()),
                Change::Body(&parent.encode()),
            ),
        ])
    }

    /// Removes the entry at `path` from its parent's directory file and
    /// deletes its `body` (content or directory file) and its ACL, in one
    /// commit.
    fn unlink(&self, path: &SegPath, body: &ObjectId) -> Result<(), SegShareError> {
        let mut parent = self.parent_to_edit(path)?;
        if parent.remove_child(path.name()).is_none() {
            return Err(missing(path, "the parent's entry"));
        }
        self.store.commit([
            (
                &ObjectId::DirData(parent.path().clone()),
                Change::Body(&parent.encode()),
            ),
            (body, Change::Delete),
            (&ObjectId::Acl(path.clone()), Change::Delete),
        ])
    }

    /// Creates a directory owned by `owner` (Algorithm 1 `put_fD`; the
    /// caller has already authorized the request).
    pub fn create_dir(&self, path: &SegPath, owner: GroupId) -> Result<(), SegShareError> {
        self.link(
            path,
            (
                &ObjectId::DirData(path.clone()),
                Change::Body(&DirFile::new(path.clone()).encode()),
            ),
            &AclFile::with_owner(owner).encode(),
        )
    }

    /// Lists the directory at `path`, which the request found.
    pub fn list_dir(&self, path: &SegPath) -> Result<Vec<ListingEntry>, SegShareError> {
        let dir = self
            .dir_file(path)?
            .ok_or_else(|| missing(path, "the directory file"))?;
        Ok(dir
            .children()
            .map(|(name, kind)| ListingEntry {
                name: name.to_string(),
                is_dir: matches!(kind, ChildKind::Directory),
            })
            .collect())
    }

    // ------------------------------------------------------------ upload

    /// Starts a streaming upload to `path`. `new_owner` is `Some(g_u)`
    /// when the file does not exist yet and an ACL must be created on
    /// commit.
    pub fn begin_upload(
        &self,
        path: &SegPath,
        size: u64,
        new_owner: Option<GroupId>,
    ) -> Result<UploadContext, SegShareError> {
        let dedup = self.store.config().dedup;
        let (key, hmac) = if dedup {
            // §V-A: stage under a temporary key; the real (content-
            // derived) key is only known once the content HMAC is.
            let temp_key: [u8; 16] = SystemRng::new().array();
            let hmac = Hmac::<Sha256>::new(&self.store.keys().dedup_name_key());
            (temp_key, Some(hmac))
        } else {
            (
                self.store
                    .keys()
                    .file_key(&ObjectId::FileData(path.clone())),
                None,
            )
        };
        let mut writer = PfsWriter::new(&key, &mut SystemRng::new())?;
        // An inline body ends in its marker byte. The announced size
        // only caps the blob buffer's growth; bytes reserve it.
        writer.bound_len(size.saturating_add(u64::from(!dedup)));
        Ok(UploadContext {
            path: path.clone(),
            writer: Some(writer),
            temp_key: key,
            remaining: size,
            hmac,
            new_owner,
        })
    }

    /// Appends one chunk to an upload and says whether all announced
    /// bytes have now arrived.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::BadRequest`] if the chunk overruns the
    /// announced size.
    pub fn upload_chunk(
        &self,
        upload: &mut UploadContext,
        chunk: &[u8],
    ) -> Result<bool, SegShareError> {
        if chunk.len() as u64 > upload.remaining {
            return Err(bad(ErrorCode::BadRequest, "upload exceeds announced size"));
        }
        upload.remaining -= chunk.len() as u64;
        if let Some(hmac) = upload.hmac.as_mut() {
            hmac.update(chunk);
        }
        upload
            .writer
            .as_mut()
            .expect("writer present until commit")
            .write(chunk);
        Ok(upload.remaining == 0)
    }

    /// Commits a finished upload: stores the blob (or dedup blob plus
    /// indirection), creates the ACL for new files, and links the file
    /// into its parent directory.
    pub fn commit_upload(&self, upload: UploadContext) -> Result<(), SegShareError> {
        let UploadContext {
            path,
            writer,
            temp_key,
            remaining,
            hmac,
            new_owner,
        } = upload;
        debug_assert_eq!(remaining, 0, "commit of incomplete upload");
        let mut writer = writer.expect("writer present until commit");
        let file_id = ObjectId::FileData(path.clone());
        // A new file's ACL and parent link commit with its body.
        let commit = |body: Change<'_>| match &new_owner {
            Some(owner) => self.link(
                &path,
                (&file_id, body),
                &AclFile::with_owner(owner.clone()).encode(),
            ),
            None => self.store.commit([(&file_id, body)]),
        };

        match hmac {
            None => {
                writer.write(&[MARKER_INLINE]);
                commit(Change::Blob(writer.finish()))
            }
            Some(hmac) => {
                let blob = writer.finish();
                // §V-A deduplication: name the blob by its content HMAC.
                let hname = hex(&hmac.finalize());
                // An overwrite drops the old content's reference; read
                // the old indirection before it is replaced.
                let old_hname = self.dedup_hname(&path)?;
                if !self.store.dedup_blob_indexed(&hname)? {
                    // First copy: re-encrypt the staged blob under the
                    // content-derived key, one node at a time.
                    let staged = PfsFile::open(&temp_key, blob)?;
                    let mut final_writer = PfsWriter::new(
                        &self.store.keys().dedup_blob_key(&hname),
                        &mut SystemRng::new(),
                    )?;
                    final_writer.bound_len(staged.data_len());
                    for i in 0..staged.node_count() {
                        final_writer.write(&staged.read_node(i)?);
                    }
                    self.store.commit([(
                        &ObjectId::DedupBlob(hname.clone()),
                        Change::Blob(final_writer.finish()),
                    )])?;
                }
                // The content file holds only the indirection.
                let mut body = Vec::with_capacity(hname.len() + 1);
                body.extend_from_slice(hname.as_bytes());
                body.push(MARKER_DEDUP);
                commit(Change::Body(&body))?;
                self.store
                    .dedup_ref_update(Some(&hname), old_hname.as_deref())
            }
        }
    }

    // ---------------------------------------------------------- download

    /// Opens a download of the content file at `path`, which the request
    /// found.
    pub fn open_download(&self, path: &SegPath) -> Result<DownloadContext, SegShareError> {
        // A small body the enclave cache holds is served from its
        // verified plaintext with no store access. (Authorization ran
        // against live metadata before this, so a warm cache never
        // outlives a revocation.)
        let body = self
            .store
            .open_stream(&ObjectId::FileData(path.clone()))?
            .ok_or_else(|| missing(path, "the content file"))?;
        // The last body byte is the inline/dedup marker; its slice is
        // the header's tail unless that was too long to sit there.
        let marker = match &body {
            StreamBody::Plain(body) => body.last().copied(),
            StreamBody::Blob(file) => match file.node_count().checked_sub(1) {
                Some(last) => file.read_node(last)?.last().copied(),
                None => None,
            },
        };
        match marker {
            Some(MARKER_INLINE) => Ok(DownloadContext::over(body, 1)),
            Some(MARKER_DEDUP) => {
                let body = body.into_bytes()?;
                let hname = Self::indirection_name(path, &body[..body.len() - 1])?;
                let blob = self
                    .store
                    .open_stream(&ObjectId::DedupBlob(hname.clone()))?
                    .ok_or_else(|| {
                        SegShareError::Integrity(format!(
                            "{path}: dangling dedup indirection {hname}"
                        ))
                    })?;
                Ok(DownloadContext::over(blob, 0))
            }
            None => Err(SegShareError::Integrity(format!(
                "{path}: empty content record"
            ))),
            Some(other) => Err(SegShareError::Integrity(format!(
                "{path}: unknown content marker {other}"
            ))),
        }
    }

    fn indirection_name(path: &SegPath, name: &[u8]) -> Result<String, SegShareError> {
        String::from_utf8(name.to_vec())
            .map_err(|_| SegShareError::Integrity(format!("{path}: malformed dedup indirection")))
    }

    /// Reads the whole content of a file (small-file convenience; the
    /// request path streams instead).
    pub fn read_file(&self, path: &SegPath) -> Result<Vec<u8>, SegShareError> {
        let mut download = self.open_download(path)?;
        let len = download.total_len() as usize;
        let mut out = Vec::with_capacity(len + DATA_PER_NODE);
        download.fill(&mut out, len)?;
        Ok(out)
    }

    /// The dedup blob name referenced by the indirection at `path`, or
    /// `None` when no file exists there or its body is inline. Only
    /// meaningful with dedup on, where indirections are one small record.
    fn dedup_hname(&self, path: &SegPath) -> Result<Option<String>, SegShareError> {
        let Some(body) = self.store.read(&ObjectId::FileData(path.clone()))? else {
            return Ok(None);
        };
        match split_marker(&body) {
            Some((name, MARKER_DEDUP)) => Self::indirection_name(path, name).map(Some),
            _ => Ok(None),
        }
    }

    /// §V-A extension: reclaims dedup blobs whose reference count has
    /// dropped to zero. Returns the number of blobs deleted. Callers
    /// serialize this against request dispatch (the global lock scope).
    pub fn blob_gc(&self) -> Result<u64, SegShareError> {
        self.store.blob_gc()
    }

    // ---------------------------------------------------------- removal

    /// Removes a content file or an *empty* directory, which the request
    /// found.
    pub fn remove(&self, path: &SegPath) -> Result<(), SegShareError> {
        if path.is_root() {
            return Err(bad(ErrorCode::BadRequest, "cannot remove the root"));
        }
        if path.is_dir() {
            let dir = self
                .dir_file(path)?
                .ok_or_else(|| missing(path, "the directory file"))?;
            if !dir.is_empty() {
                return Err(bad(
                    ErrorCode::BadRequest,
                    format!("directory {path} is not empty"),
                ));
            }
            self.unlink(path, &ObjectId::DirData(path.clone()))?;
        } else {
            // Other files may reference the same dedup blob, so removal
            // only drops this file's reference; blobs whose count
            // reaches zero are reclaimed later by [`FileManager::blob_gc`].
            let dedup = if self.store.config().dedup {
                self.dedup_hname(path)?
            } else {
                None
            };
            self.unlink(path, &ObjectId::FileData(path.clone()))?;
            self.store.dedup_ref_update(None, dedup.as_deref())?;
        }
        Ok(())
    }

    // -------------------------------------------------------------- move

    /// Moves a content file or directory (recursively). Per-file keys
    /// are path-bound, so moving re-encrypts file bodies under the new
    /// path's key — except dedup indirections, which stay one small
    /// record.
    pub fn rename(&self, from: &SegPath, to: &SegPath) -> Result<(), SegShareError> {
        if from.is_root() || to.is_root() {
            return Err(bad(ErrorCode::BadRequest, "cannot move the root"));
        }
        if from.is_dir() != to.is_dir() {
            return Err(bad(
                ErrorCode::BadRequest,
                "source and destination must both be directories or both files",
            ));
        }
        if to.starts_with(from) {
            return Err(bad(
                ErrorCode::BadRequest,
                "cannot move a directory into itself",
            ));
        }
        if from.is_dir() {
            self.rename_dir(from, to)?;
        } else {
            self.rename_file(from, to)?;
        }
        Ok(())
    }

    fn rename_file(&self, from: &SegPath, to: &SegPath) -> Result<(), SegShareError> {
        let body = self
            .store
            .read(&ObjectId::FileData(from.clone()))?
            .ok_or_else(|| missing(from, "the content file"))?;
        let acl = self.acl_bytes(from)?;
        self.link(
            to,
            (&ObjectId::FileData(to.clone()), Change::Body(&body)),
            &acl,
        )?;
        self.unlink(from, &ObjectId::FileData(from.clone()))
    }

    fn rename_dir(&self, from: &SegPath, to: &SegPath) -> Result<(), SegShareError> {
        let dir = self
            .dir_file(from)?
            .ok_or_else(|| missing(from, "the directory file"))?;
        let acl = self.acl_bytes(from)?;
        // Create the destination empty, then move the children one by
        // one, depth-first, each leaving the source's directory file as
        // it enters the destination's: at every step both directory
        // files list exactly the children whose tree records exist, so
        // every verified read on the way (same-bucket siblings included)
        // finds what it expects.
        let new_dir = DirFile::new(to.clone());
        self.link(
            to,
            (
                &ObjectId::DirData(to.clone()),
                Change::Body(&new_dir.encode()),
            ),
            &acl,
        )?;
        for (name, kind) in dir.children() {
            let from_child = dir.child_path(name, kind)?;
            let to_child = new_dir.child_path(name, kind)?;
            match kind {
                ChildKind::Directory => self.rename_dir(&from_child, &to_child)?,
                ChildKind::File => self.rename_file(&from_child, &to_child)?,
            }
        }
        self.unlink(from, &ObjectId::DirData(from.clone()))
    }

    fn acl_bytes(&self, path: &SegPath) -> Result<Vec<u8>, SegShareError> {
        let acl = self
            .store
            .read_decoded(&ObjectId::Acl(path.clone()), |body| {
                Ok(AclFile::decode(body)?)
            })?;
        Ok(acl.ok_or_else(|| missing(path, "the ACL"))?.encode())
    }
}

/// State of one in-flight streaming upload.
pub struct UploadContext {
    path: SegPath,
    writer: Option<PfsWriter>,
    temp_key: [u8; 16],
    remaining: u64,
    hmac: Option<Hmac<Sha256>>,
    new_owner: Option<GroupId>,
}

impl std::fmt::Debug for UploadContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UploadContext")
            .field("path", &self.path)
            .field("remaining", &self.remaining)
            .finish()
    }
}

impl UploadContext {
    /// The target path.
    #[must_use]
    pub fn path(&self) -> &SegPath {
        &self.path
    }
}

/// State of one in-flight download.
pub struct DownloadContext {
    body: StreamBody,
    /// Plaintext bytes to emit: the body's, less a trailer marker.
    total: u64,
    /// Plaintext bytes already emitted.
    emitted: u64,
    /// The next slice of a blob to decrypt.
    next_node: u64,
    /// What the last chunk left of the slice that straddled its end.
    carry: Vec<u8>,
}

impl std::fmt::Debug for DownloadContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DownloadContext")
            .field("total", &self.total)
            .field("emitted", &self.emitted)
            .finish()
    }
}

impl DownloadContext {
    /// A download of all of `body` but its last `trailer` bytes.
    fn over(body: StreamBody, trailer: u64) -> DownloadContext {
        let len = match &body {
            StreamBody::Plain(body) => body.len() as u64,
            StreamBody::Blob(file) => file.data_len(),
        };
        DownloadContext {
            body,
            total: len - trailer,
            emitted: 0,
            next_node: 0,
            carry: Vec::new(),
        }
    }

    /// Total plaintext length of the download.
    #[must_use]
    pub fn total_len(&self) -> u64 {
        self.total
    }

    /// Whether every plaintext byte has been emitted.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.emitted == self.total
    }

    /// The next chunk (up to [`CHUNK_LEN`] bytes) as a Data message,
    /// or `None` when the download is complete. The chunk is decrypted
    /// (or copied) once, after the header, into a buffer with room for
    /// the record's tag, so the message is sealed where it is.
    pub fn next_message(&mut self) -> Result<Option<Vec<u8>>, SegShareError> {
        let want = (self.total - self.emitted).min(CHUNK_LEN as u64) as usize;
        if want == 0 {
            return Ok(None);
        }
        // Room for the slice that overruns the chunk as it decrypts,
        // then for the tag.
        let mut message =
            Vec::with_capacity(DATA_HEADER_LEN + want + DATA_PER_NODE + RECORD_OVERHEAD);
        put_data_header(&mut message, want);
        self.fill(&mut message, want)?;
        Ok(Some(message))
    }

    /// Appends the next `want` plaintext bytes to `out`. Whole slices
    /// decrypt where they land; only the one that straddles the end is
    /// split, its remainder carried to the next call.
    fn fill(&mut self, out: &mut Vec<u8>, want: usize) -> Result<(), SegShareError> {
        let end = out.len() + want;
        match &self.body {
            StreamBody::Plain(body) => {
                let at = self.emitted as usize;
                out.extend_from_slice(&body[at..at + want]);
            }
            StreamBody::Blob(file) => {
                out.append(&mut self.carry);
                while out.len() < end {
                    file.read_into(self.next_node, out)?;
                    self.next_node += 1;
                }
                // Past `end`: the next chunk's first bytes, or the trailer.
                self.carry.extend_from_slice(&out[end..]);
                out.truncate(end);
            }
        }
        self.emitted += want as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnclaveConfig;
    use crate::enclave::testutil::components;
    use seg_fs::UserId;

    fn p(path: &str) -> SegPath {
        SegPath::parse(path).unwrap()
    }

    fn owner() -> GroupId {
        UserId::new("alice").unwrap().default_group()
    }

    /// Upload helper pushing `content` through the streaming path in
    /// odd-sized chunks.
    fn upload(f: &crate::enclave::testutil::ComponentFixture, path: &str, content: &[u8]) {
        let new_owner = match f.files.listed(&p(path)).unwrap() {
            Some(_) => None,
            None => Some(owner()),
        };
        let mut ctx = f
            .files
            .begin_upload(&p(path), content.len() as u64, new_owner)
            .unwrap();
        for chunk in content.chunks(1013) {
            f.files.upload_chunk(&mut ctx, chunk).unwrap();
        }
        assert!(f.files.upload_chunk(&mut ctx, &[]).unwrap(), "complete");
        f.files.commit_upload(ctx).unwrap();
    }

    #[test]
    fn init_is_idempotent() {
        let f = components(EnclaveConfig::default());
        f.files.init_file_system().unwrap();
        f.files.init_file_system().unwrap();
        assert!(f.files.list_dir(&p("/")).unwrap().is_empty());
    }

    #[test]
    fn create_list_remove_dirs() {
        let f = components(EnclaveConfig::default());
        f.files.create_dir(&p("/a/"), owner()).unwrap();
        f.files.create_dir(&p("/a/b/"), owner()).unwrap();
        let listing = f.files.list_dir(&p("/a/")).unwrap();
        assert_eq!(listing.len(), 1);
        assert_eq!(listing[0].name, "b");
        assert!(listing[0].is_dir);
        // Non-empty dirs refuse removal.
        assert!(f.files.remove(&p("/a/")).is_err());
        f.files.remove(&p("/a/b/")).unwrap();
        f.files.remove(&p("/a/")).unwrap();
        assert_eq!(f.files.listed(&p("/a/")).unwrap(), None);
        // Root is protected.
        assert!(f.files.remove(&p("/")).is_err());
    }

    #[test]
    fn streaming_upload_download_chunk_boundaries() {
        for cache in [false, true] {
            chunk_boundaries(cache);
        }
    }

    /// With the cache on, a small body's download is served from the
    /// plaintext its first read cached; a large one streams either way.
    fn chunk_boundaries(cache: bool) {
        let f = components(EnclaveConfig {
            cache,
            ..EnclaveConfig::default()
        });
        // Sizes straddling the header's inline capacity (the body is one
        // trailer byte longer), PFS node and protocol chunk boundaries.
        let sizes = [
            0usize,
            1,
            seg_sgx::pfs::HEADER_SPARE - 2,
            seg_sgx::pfs::HEADER_SPARE - 1,
            seg_sgx::pfs::HEADER_SPARE,
            4067,
            4068,
            4069,
            CHUNK_LEN - 1,
            CHUNK_LEN,
            CHUNK_LEN + 1,
            300_000,
            2 * CHUNK_LEN + 5,
        ];
        for (i, size) in sizes.iter().enumerate() {
            let path = format!("/f{i}");
            let content: Vec<u8> = (0..*size).map(|b| (b % 251) as u8).collect();
            upload(&f, &path, &content);
            assert_eq!(
                f.files.read_file(&p(&path)).unwrap(),
                content,
                "size {size}"
            );
            // Download context reports the exact size, and every chunk
            // but the last is full.
            let mut dl = f.files.open_download(&p(&path)).unwrap();
            assert_eq!(dl.total_len(), *size as u64);
            // The stored body is the content and its marker byte.
            let small = *size < crate::enclave::trusted_store::HOT_BODY_MAX;
            let plain = matches!(dl.body, StreamBody::Plain(_));
            assert_eq!(plain, cache && small, "size {size}");
            let mut left = *size;
            let mut got = Vec::new();
            while let Some(message) = dl.next_message().unwrap() {
                let chunk = seg_proto::data_payload(&message).expect("a Data message");
                assert_eq!(chunk.len(), left.min(CHUNK_LEN), "size {size}");
                left -= chunk.len();
                got.extend_from_slice(chunk);
            }
            assert_eq!(got, content, "size {size}");
            assert_eq!(left, 0, "size {size}");
        }
    }

    #[test]
    fn oversized_chunk_rejected() {
        let f = components(EnclaveConfig::default());
        let mut ctx = f.files.begin_upload(&p("/f"), 10, Some(owner())).unwrap();
        assert!(f.files.upload_chunk(&mut ctx, &[0u8; 11]).is_err());
    }

    #[test]
    fn rename_file_and_directory_tree() {
        let f = components(EnclaveConfig::default());
        f.files.create_dir(&p("/src/"), owner()).unwrap();
        f.files.create_dir(&p("/src/sub/"), owner()).unwrap();
        upload(&f, "/src/a", b"file a");
        upload(&f, "/src/sub/b", b"file b");
        f.files.create_dir(&p("/dst/"), owner()).unwrap();

        f.files.rename(&p("/src/"), &p("/dst/moved/")).unwrap();
        assert_eq!(f.files.read_file(&p("/dst/moved/a")).unwrap(), b"file a");
        assert_eq!(
            f.files.read_file(&p("/dst/moved/sub/b")).unwrap(),
            b"file b"
        );
        assert_eq!(f.files.listed(&p("/src/")).unwrap(), None);
        // Moving a directory into itself is refused.
        assert!(f
            .files
            .rename(&p("/dst/"), &p("/dst/moved/inner/"))
            .is_err());
        // Kind mismatch is refused.
        assert!(f.files.rename(&p("/dst/moved/a"), &p("/x/")).is_err());
    }

    #[test]
    fn moving_a_directory_whose_children_share_buckets_keeps_every_read_verified() {
        // 40 files are 80 tree children (each a body and an ACL) over 64
        // buckets: some share a bucket whatever the bucket function, so
        // moving one means verified reads that look for its siblings'
        // records. Plus a nested directory, which recurses.
        let body = |i: usize| -> Vec<u8> { (0..i * 331 % 9000).map(|b| (b + i) as u8).collect() };
        for cache in [false, true] {
            let f = components(EnclaveConfig {
                cache,
                ..EnclaveConfig::default()
            });
            f.files.create_dir(&p("/d/"), owner()).unwrap();
            f.files.create_dir(&p("/d/sub/"), owner()).unwrap();
            for i in 0..40 {
                upload(&f, &format!("/d/f-{i}"), &body(i));
            }
            upload(&f, "/d/sub/inner", b"nested");
            f.files.create_dir(&p("/dst/"), owner()).unwrap();

            f.files.rename(&p("/d/"), &p("/dst/moved/")).unwrap();

            let mut moved = vec![p("/dst/moved/"), p("/dst/moved/sub/")];
            for i in 0..40 {
                let to = p(&format!("/dst/moved/f-{i}"));
                assert_eq!(f.files.read_file(&to).unwrap(), body(i), "cache {cache}");
                moved.push(to);
            }
            let inner = p("/dst/moved/sub/inner");
            assert_eq!(f.files.read_file(&inner).unwrap(), b"nested");
            moved.push(inner);
            assert_eq!(f.files.list_dir(&p("/dst/moved/")).unwrap().len(), 41);
            // The full walk over store records, whatever the cache holds.
            for path in &moved {
                let data = match path.is_dir() {
                    true => ObjectId::DirData(path.clone()),
                    false => ObjectId::FileData(path.clone()),
                };
                for id in [data, ObjectId::Acl(path.clone())] {
                    let scrubbed = f.files.store.scrub_read(&id).unwrap();
                    assert!(scrubbed.is_some(), "{} (cache {cache})", id.canonical());
                }
            }
            // Nothing stays behind, and the source's old parent verifies.
            assert_eq!(f.files.listed(&p("/d/")).unwrap(), None);
            let gone = ObjectId::FileData(p("/d/f-0"));
            assert!(f.files.store.scrub_read(&gone).unwrap().is_none());
            assert_eq!(f.files.list_dir(&p("/")).unwrap().len(), 1);
        }
    }

    #[test]
    fn dedup_upload_creates_indirection() {
        let f = components(EnclaveConfig {
            dedup: true,
            ..EnclaveConfig::default()
        });
        let content = vec![0x77u8; 50_000];
        upload(&f, "/one", &content);
        upload(&f, "/two", &content);
        assert_eq!(f.files.read_file(&p("/one")).unwrap(), content);
        assert_eq!(f.files.read_file(&p("/two")).unwrap(), content);
        // Removing one copy leaves the other intact (blob remains).
        f.files.remove(&p("/one")).unwrap();
        assert_eq!(f.files.read_file(&p("/two")).unwrap(), content);
    }

    #[test]
    fn remove_missing_file_errors() {
        let f = components(EnclaveConfig::default());
        assert!(f.files.remove(&p("/ghost")).is_err());
        assert!(f.files.open_download(&p("/ghost")).is_err());
    }

    #[test]
    fn blob_gc_reclaims_only_unreferenced_blobs() {
        let f = components(EnclaveConfig {
            dedup: true,
            ..EnclaveConfig::default()
        });
        let shared = vec![0x42u8; 30_000];
        let lonely = vec![0x43u8; 30_000];
        upload(&f, "/one", &shared);
        upload(&f, "/two", &shared);
        upload(&f, "/three", &lonely);
        // Everything still referenced: GC finds nothing.
        assert_eq!(f.files.blob_gc().unwrap(), 0);
        // One of two references gone: the shared blob survives.
        f.files.remove(&p("/one")).unwrap();
        assert_eq!(f.files.blob_gc().unwrap(), 0);
        assert_eq!(f.files.read_file(&p("/two")).unwrap(), shared);
        // Last references gone: both blobs are reclaimed, exactly once.
        f.files.remove(&p("/two")).unwrap();
        f.files.remove(&p("/three")).unwrap();
        assert_eq!(f.files.blob_gc().unwrap(), 2);
        assert_eq!(f.files.blob_gc().unwrap(), 0);
    }

    #[test]
    fn overwrite_moves_dedup_reference() {
        let f = components(EnclaveConfig {
            dedup: true,
            ..EnclaveConfig::default()
        });
        let old = vec![0x11u8; 20_000];
        let new = vec![0x22u8; 20_000];
        upload(&f, "/doc", &old);
        // Overwriting releases the old content's reference...
        upload(&f, "/doc", &new);
        assert_eq!(f.files.blob_gc().unwrap(), 1);
        assert_eq!(f.files.read_file(&p("/doc")).unwrap(), new);
        // ...and re-uploading identical content is refcount-neutral.
        upload(&f, "/doc", &new);
        assert_eq!(f.files.blob_gc().unwrap(), 0);
        assert_eq!(f.files.read_file(&p("/doc")).unwrap(), new);
    }

    #[test]
    fn rename_keeps_dedup_reference_alive() {
        let f = components(EnclaveConfig {
            dedup: true,
            ..EnclaveConfig::default()
        });
        let content = vec![0x55u8; 20_000];
        upload(&f, "/before", &content);
        f.files.rename(&p("/before"), &p("/after")).unwrap();
        // The indirection moved verbatim: net-zero refcount change.
        assert_eq!(f.files.blob_gc().unwrap(), 0);
        assert_eq!(f.files.read_file(&p("/after")).unwrap(), content);
        f.files.remove(&p("/after")).unwrap();
        assert_eq!(f.files.blob_gc().unwrap(), 1);
    }
}
