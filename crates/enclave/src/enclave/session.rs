//! Per-connection session state: the trusted TLS interface plus the
//! request handler (§IV-B, Algorithm 1).
//!
//! The untrusted host owns the socket and shuttles opaque frames; this
//! module terminates the handshake, decrypts requests, authorizes them
//! with the identity from the client certificate (separation of
//! authentication and authorization, F8), executes them, and encrypts
//! responses. Uploads and downloads are chunked so the enclave holds
//! only one chunk at a time (§VI).

use std::collections::VecDeque;
use std::sync::Arc;

use seg_crypto::ed25519::{PublicKey, SecretKey};
use seg_crypto::rng::SystemRng;
use seg_fs::{Access, AclFile, ChildKind, GroupId, Perm, SegPath, UserId};
use seg_obs::{CostVector, Decision, Phase, RequestRecord};
use seg_pki::Certificate;
use seg_proto::{data_payload, ErrorCode, Request, Response};
use seg_tls::{ServerHandshake, TlsChannel};

use crate::error::SegShareError;

use super::file_manager::{DownloadContext, UploadContext};
use super::locks::{LockIntent, LockKey, LockScope};
use super::SegShareEnclave;

// The established variant is naturally the big one (channel state);
// sessions are few and long-lived, so the size skew is fine.
#[allow(clippy::large_enum_variant)]
enum SessionState {
    Handshaking(Box<ServerHandshake>),
    Established { channel: TlsChannel, user: UserId },
    Failed,
}

/// One client connection's trusted-side state.
pub struct EnclaveSession {
    state: SessionState,
    /// An accepted upload still streaming: its staged body, and the
    /// header's record, which is the upload's one audit record when it
    /// ends.
    upload: Option<(UploadContext, RequestRecord)>,
    /// Bytes of a rejected upload still to swallow silently (the error
    /// response was already queued; the client learns of it after
    /// streaming).
    discard: u64,
    download: Option<DownloadContext>,
    out: VecDeque<Vec<u8>>,
    rng: SystemRng,
}

impl std::fmt::Debug for EnclaveSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match &self.state {
            SessionState::Handshaking(_) => "handshaking",
            SessionState::Established { .. } => "established",
            SessionState::Failed => "failed",
        };
        f.debug_struct("EnclaveSession")
            .field("state", &state)
            .finish()
    }
}

/// A decoded request. A Data chunk is its payload, borrowed from the
/// opened record; every other request is decoded in full.
enum Incoming<'a> {
    Data(&'a [u8]),
    Control(Request),
}

impl Incoming<'_> {
    fn op_name(&self) -> &'static str {
        match self {
            // `Request::Data`'s label.
            Incoming::Data(_) => "data",
            Incoming::Control(request) => request.op_name(),
        }
    }
}

/// Seals the download's next chunk as one record: the Data message is
/// built in the record's buffer and sealed there. The last chunk ends
/// the download (an empty one ends with `None`). A stored node that fails
/// verification after `FileStart` went out ends the stream with the
/// error (the client's data loop takes one) and the session lives on,
/// rather than the connection dropping without a reason.
fn seal_chunk(
    download: &mut Option<DownloadContext>,
    channel: &mut TlsChannel,
    enclave: &SegShareEnclave,
) -> Option<Vec<u8>> {
    let context = download.as_mut()?;
    let message = match context.next_message() {
        Ok(Some(message)) => {
            if context.is_done() {
                *download = None;
            }
            message
        }
        Ok(None) => {
            *download = None;
            return None;
        }
        Err(err) => {
            *download = None;
            error_response(err).encode()
        }
    };
    // Register the chunk as enclave memory while it exists.
    let _epc = enclave.sgx().epc().alloc(message.len() as u64);
    Some(channel.seal_owned(message))
}

fn deny(msg: impl Into<String>) -> SegShareError {
    SegShareError::request(ErrorCode::Denied, msg)
}

fn not_found(msg: impl Into<String>) -> SegShareError {
    SegShareError::request(ErrorCode::NotFound, msg)
}

fn bad_request(msg: impl Into<String>) -> SegShareError {
    SegShareError::request(ErrorCode::BadRequest, msg)
}

/// Parses a group operand that may be a regular group or a user's
/// default group (`~user`) — "permission requests also apply for
/// individual users" via their default groups (§IV-B).
fn parse_perm_group(s: &str) -> Result<GroupId, SegShareError> {
    if let Some(user) = s.strip_prefix('~') {
        Ok(UserId::new(user)
            .map_err(|e| bad_request(e.to_string()))?
            .default_group())
    } else {
        GroupId::new(s).map_err(|e| bad_request(e.to_string()))
    }
}

impl EnclaveSession {
    pub(crate) fn new(
        server_cert: Arc<Certificate>,
        server_key: SecretKey,
        ca_key: PublicKey,
        now: u64,
    ) -> EnclaveSession {
        let mut rng = SystemRng::new();
        let hs = ServerHandshake::new(server_cert, server_key, ca_key, now, &mut rng);
        EnclaveSession {
            state: SessionState::Handshaking(Box::new(hs)),
            upload: None,
            discard: 0,
            download: None,
            out: VecDeque::new(),
            rng,
        }
    }

    /// The authenticated user, once the handshake completed.
    #[must_use]
    pub fn user(&self) -> Option<&UserId> {
        match &self.state {
            SessionState::Established { user, .. } => Some(user),
            _ => None,
        }
    }

    /// Feeds one wire frame from the untrusted host into the enclave.
    ///
    /// # Errors
    ///
    /// An error is *fatal to the session* (handshake failure, record
    /// forgery, protocol violation); request-level failures are reported
    /// to the client as [`Response::Error`] instead.
    pub fn handle_frame(
        &mut self,
        enclave: &SegShareEnclave,
        frame: &[u8],
    ) -> Result<(), SegShareError> {
        match std::mem::replace(&mut self.state, SessionState::Failed) {
            SessionState::Handshaking(mut hs) => {
                // Profiler root: handshake frames never reach the
                // request dispatcher, so they get their own root op.
                let _prof = enclave.begin_root("handshake");
                let step = {
                    let _authn = seg_obs::prof::phase(Phase::Authn);
                    hs.process(frame, &mut self.rng)?
                };
                for reply in step.replies {
                    self.out.push_back(reply);
                }
                if step.done {
                    let (channel, cert) = hs.into_established().expect("handshake reported done");
                    let user = cert
                        .subject()
                        .user_id()
                        .expect("server handshake only accepts user certificates")
                        .clone();
                    self.state = SessionState::Established { channel, user };
                } else {
                    self.state = SessionState::Handshaking(hs);
                }
                Ok(())
            }
            SessionState::Established { mut channel, user } => {
                // The request's profiler root, which is its clock, starts
                // before the record is even decrypted (so tls_record
                // time is attributed) under a placeholder op; once the
                // request is decoded the root is renamed to the real
                // operation.
                let _prof = enclave.begin_root("request");
                // The host's frame is copied into enclave memory (the
                // ecall's `[in]` copy) and opened there, in place.
                let plaintext = channel.open_owned(frame.to_vec())?;
                let request = {
                    let _ser = seg_obs::prof::phase(Phase::Serialize);
                    match data_payload(&plaintext) {
                        Some(bytes) => Incoming::Data(bytes),
                        None => Incoming::Control(Request::decode(&plaintext)?),
                    }
                };
                seg_obs::prof::set_root_op(request.op_name());
                let wire_len = plaintext.len() as u64;
                let responses = self.handle_request(enclave, &user, request, wire_len)?;
                for response in responses {
                    let encoded = {
                        let _ser = seg_obs::prof::phase(Phase::Serialize);
                        response.encode()
                    };
                    self.out.push_back(channel.seal_owned(encoded));
                }
                self.state = SessionState::Established { channel, user };
                Ok(())
            }
            SessionState::Failed => Err(SegShareError::Protocol(
                "frame after session failure".to_string(),
            )),
        }
    }

    /// Pops the next wire frame for the untrusted host to send; lazily
    /// materializes download chunks so only one chunk is ever buffered.
    ///
    /// # Errors
    ///
    /// Fails on storage/crypto failures while producing download chunks.
    pub fn next_outgoing(
        &mut self,
        enclave: &SegShareEnclave,
    ) -> Result<Option<Vec<u8>>, SegShareError> {
        if let Some(frame) = self.out.pop_front() {
            return Ok(Some(frame));
        }
        if self.download.is_none() {
            return Ok(None);
        }
        // Streamed download chunks are produced outside any request
        // frame, so they carry their own profiler root.
        let _prof = enclave.begin_root("get_stream");
        match &mut self.state {
            SessionState::Established { channel, .. } => {
                Ok(seal_chunk(&mut self.download, channel, enclave))
            }
            _ => Err(SegShareError::Protocol(
                "download outside established session".to_string(),
            )),
        }
    }

    /// Whether a download is still streaming.
    #[must_use]
    pub fn download_active(&self) -> bool {
        self.download.is_some() || !self.out.is_empty()
    }

    /// The connection closed: an upload still streaming ends here,
    /// abandoned, with its audit record.
    pub fn close(&mut self, enclave: &SegShareEnclave) {
        // Nobody is left to send a response or an error to.
        let _ = self.end_upload(enclave, Err(bad_request("connection closed mid-upload")));
    }

    // ------------------------------------------------------- dispatching

    fn handle_request(
        &mut self,
        enclave: &SegShareEnclave,
        user: &UserId,
        request: Incoming<'_>,
        wire_len: u64,
    ) -> Result<Vec<Response>, SegShareError> {
        let control = match &request {
            Incoming::Data(_) => None,
            Incoming::Control(request) => Some(request),
        };
        // The request's one record. Its label is the compiled-in
        // operation name and its operands appear only as keyed
        // fingerprints — never raw (seg-obs trust-boundary rule). It
        // opens here because the audit append, inside the commit window,
        // takes its ids and outcome from it.
        let mut record = RequestRecord::open(
            enclave.next_request_id(),
            request.op_name(),
            enclave.fingerprint_user(user),
            control
                .and_then(request_object)
                .map_or(0, |name| enclave.fingerprint_name(name)),
        );
        // The rest of the record is telemetry only: the group
        // fingerprint and the counter baseline are skipped — the HMAC
        // included — while telemetry is off.
        let baseline = enclave.telemetry_enabled().then(|| {
            record.group = control
                .and_then(request_group)
                .map_or(0, |g| enclave.fingerprint_name(g));
            enclave.cost_counters()
        });
        let result = match request {
            // Data chunks are the streaming fast path.
            Incoming::Data(bytes) => self.handle_data(enclave, bytes),
            Incoming::Control(request) => self.handle_control(enclave, user, &request, &mut record),
        };
        // An audit-append or durability failure outranks the outcome
        // the audit record itself was written with.
        note_outcome(&mut record, &result);
        if let Some(before) = baseline {
            let now = enclave.cost_counters();
            record.cost = CostVector {
                req_bytes: wire_len,
                resp_bytes: result.as_deref().map_or(0, response_bytes),
                cache_hits: now.cache_hits.saturating_sub(before.cache_hits),
                cache_misses: now.cache_misses.saturating_sub(before.cache_misses),
                store_reads: now.store_reads.saturating_sub(before.store_reads),
                store_writes: now.store_writes.saturating_sub(before.store_writes),
                audit_bytes: now.audit_bytes.saturating_sub(before.audit_bytes),
            };
            // The record leaves with its root's phases, in the one ocall
            // that closes the root; the host takes its duration and phase
            // vector from those. The audit trail took its ids and outcome
            // from it before this.
            seg_obs::prof::attach_record(&record);
        }
        match result {
            Err(err) if !is_fatal(&err) => Ok(vec![error_response(err)]),
            result => result,
        }
    }

    /// Every request but a data chunk: dispatch inside the commit
    /// window, with the decision audited before the response leaves the
    /// enclave. An upload header writes nothing: its checks run in a
    /// window of their own with no record, a refused header's record
    /// then takes a second, and an accepted one keeps its record until
    /// the upload ends.
    fn handle_control(
        &mut self,
        enclave: &SegShareEnclave,
        user: &UserId,
        request: &Request,
        record: &mut RequestRecord,
    ) -> Result<Vec<Response>, SegShareError> {
        if self.upload.is_some() {
            // A non-Data request aborts an in-flight upload: the upload
            // ends with its record, then the request is refused.
            let interrupted = bad_request("upload interrupted by another request");
            let ended = self.end_upload(enclave, Err(interrupted));
            return enclave.commit(Some(record), || ended);
        }
        let Request::PutFile { path, size } = request else {
            return enclave.commit(Some(record), || self.dispatch(enclave, user, request));
        };
        match enclave.commit(None, || do_put_file(enclave, user, path, *size)) {
            Ok(upload) => {
                self.upload = Some((upload, *record));
                if *size > 0 {
                    return Ok(Vec::new());
                }
                self.end_upload(enclave, Ok(()))
            }
            Err(err) => {
                // Swallow the refused upload's announced bytes so the
                // client sees exactly one response.
                self.discard = *size;
                enclave.commit(Some(record), || Err(err))
            }
        }
    }

    fn handle_data(
        &mut self,
        enclave: &SegShareEnclave,
        bytes: &[u8],
    ) -> Result<Vec<Response>, SegShareError> {
        if self.discard > 0 {
            self.discard = self.discard.saturating_sub(bytes.len() as u64);
            return Ok(Vec::new());
        }
        let Some((upload, _)) = self.upload.as_mut() else {
            return Err(bad_request("data chunk without an active upload"));
        };
        let _epc = enclave.sgx().epc().alloc(bytes.len() as u64);
        match enclave.files().upload_chunk(upload, bytes) {
            Ok(false) => Ok(Vec::new()),
            outcome => self.end_upload(enclave, outcome.map(drop)),
        }
    }

    /// Ends the active upload, however it ends: its last chunk, a
    /// zero-byte header, an overrunning chunk, an interrupting request
    /// or the connection closing. `outcome` is `Ok` for a complete body
    /// and otherwise why the upload was abandoned. One commit window
    /// takes the path + parent scope, commits the body (the staged
    /// chunks never touched the store) or returns the error, and
    /// appends the header's record — op `put_file`, the header's
    /// request id — with that outcome. With no active upload it
    /// returns `outcome`.
    fn end_upload(
        &mut self,
        enclave: &SegShareEnclave,
        outcome: Result<(), SegShareError>,
    ) -> Result<Vec<Response>, SegShareError> {
        let Some((upload, mut record)) = self.upload.take() else {
            return outcome.map(|()| Vec::new());
        };
        enclave.commit(Some(&mut record), || {
            outcome?;
            let _scope = path_scope(enclave, upload.path().as_str(), LockIntent::Write, true);
            enclave.files().commit_upload(upload)?;
            Ok(vec![Response::Ok])
        })
    }

    fn dispatch(
        &mut self,
        enclave: &SegShareEnclave,
        user: &UserId,
        request: &Request,
    ) -> Result<Vec<Response>, SegShareError> {
        // Each arm computes its lock scope from the raw operands before
        // entering the handler: path keys cover the dirfile/content/ACL
        // at that path (trailing-slash insensitive, so WebDAV-style
        // resolution inside the handler stays under the same key), and
        // handlers that link or unlink a child also take the parent.
        // Operations whose object set is unbounded (recursive Move,
        // DeleteGroup's member-list sweep) use the exclusive global
        // mode instead. Scope acquisition order is documented in
        // `enclave::locks`.
        match request {
            Request::MkDir { path } => {
                let _scope = path_scope(enclave, path, LockIntent::Write, true);
                self.do_mkdir(enclave, user, path)
            }
            Request::Get { path } => {
                let _scope = path_scope(enclave, path, LockIntent::Read, false);
                self.do_get(enclave, user, path)
            }
            Request::Remove { path } => {
                let _scope = path_scope(enclave, path, LockIntent::Write, true);
                self.do_remove(enclave, user, path)
            }
            Request::Move { from, to } => {
                // Moving a directory re-encrypts the whole subtree —
                // an unbounded object set, so global mode.
                let _scope = enclave.locks().acquire_global();
                self.do_move(enclave, user, from, to)
            }
            Request::SetPerm {
                path,
                group,
                perm,
                remove,
            } => {
                // Algorithm 1 `set_p`.
                let group = || parse_perm_group(group);
                edit_acl(
                    enclave,
                    user,
                    path,
                    "change permissions on",
                    group,
                    |acl, group| {
                        if *remove {
                            acl.remove_perm(&group);
                        } else {
                            let perm =
                                Perm::decode(*perm).map_err(|e| bad_request(e.to_string()))?;
                            acl.set_perm(group, perm);
                        }
                        Ok(())
                    },
                )
            }
            Request::SetInherit { path, inherit } => {
                // §V-B: add/remove the inherit flag.
                edit_acl(
                    enclave,
                    user,
                    path,
                    "change inheritance on",
                    || Ok(()),
                    |acl, ()| {
                        acl.set_inherit(*inherit);
                        Ok(())
                    },
                )
            }
            Request::AddOwner { path, group } => {
                // `r_FO` extension (F7).
                let group = || parse_perm_group(group);
                edit_acl(
                    enclave,
                    user,
                    path,
                    "extend ownership of",
                    group,
                    |acl, group| {
                        acl.add_owner(group);
                        Ok(())
                    },
                )
            }
            Request::AddUser {
                user: member,
                group,
            } => {
                let member = UserId::new(member.clone()).map_err(|e| bad_request(e.to_string()))?;
                let group = GroupId::new(group.clone()).map_err(|e| bad_request(e.to_string()))?;
                // add_user may create the group (group-list and
                // group-root writes) and joins both the requester and
                // the member, so all four objects are exclusive.
                let _scope = enclave.locks().acquire(&[
                    (LockKey::GroupList, LockIntent::Write),
                    (LockKey::GroupRoot, LockIntent::Write),
                    (LockKey::member(user), LockIntent::Write),
                    (LockKey::member(&member), LockIntent::Write),
                ]);
                enclave.access().add_user(user, &member, &group)?;
                Ok(vec![Response::Ok])
            }
            Request::RemoveUser {
                user: member,
                group,
            } => {
                let member = UserId::new(member.clone()).map_err(|e| bad_request(e.to_string()))?;
                let group = GroupId::new(group.clone()).map_err(|e| bad_request(e.to_string()))?;
                // Revocation mutates only the member's list; the
                // requester's list and the group list are read for the
                // ownership check, shared so concurrent revocations of
                // different members proceed in parallel.
                let _scope = enclave.locks().acquire(&[
                    (LockKey::member(&member), LockIntent::Write),
                    (LockKey::member(user), LockIntent::Read),
                    (LockKey::GroupList, LockIntent::Read),
                ]);
                enclave.access().remove_user(user, &member, &group)?;
                Ok(vec![Response::Ok])
            }
            Request::AddGroupOwner { owner_group, group } => {
                let owner_group = parse_perm_group(owner_group)?;
                let group = GroupId::new(group.clone()).map_err(|e| bad_request(e.to_string()))?;
                let _scope = enclave.locks().acquire(&[
                    (LockKey::GroupList, LockIntent::Write),
                    (LockKey::member(user), LockIntent::Read),
                ]);
                enclave
                    .access()
                    .add_group_owner(user, &owner_group, &group)?;
                Ok(vec![Response::Ok])
            }
            Request::DeleteGroup { group } => {
                let group = GroupId::new(group.clone()).map_err(|e| bad_request(e.to_string()))?;
                // Deleting a group sweeps every member list — an
                // unbounded object set, so global mode.
                let _scope = enclave.locks().acquire_global();
                enclave.access().delete_group(user, &group)?;
                Ok(vec![Response::Ok])
            }
            Request::RemoveOwner { path, group } => {
                // `r_FO` shrink; the last owner is protected.
                let group = || parse_perm_group(group);
                edit_acl(
                    enclave,
                    user,
                    path,
                    "shrink ownership of",
                    group,
                    |acl, group| {
                        if acl.remove_owner(&group) {
                            Ok(())
                        } else {
                            Err(bad_request(format!(
                                "cannot remove {group}: files keep at least one owner"
                            )))
                        }
                    },
                )
            }
            Request::RemoveGroupOwner { owner_group, group } => {
                let owner_group = parse_perm_group(owner_group)?;
                let group = GroupId::new(group.clone()).map_err(|e| bad_request(e.to_string()))?;
                let _scope = enclave.locks().acquire(&[
                    (LockKey::GroupList, LockIntent::Write),
                    (LockKey::member(user), LockIntent::Read),
                ]);
                enclave
                    .access()
                    .remove_group_owner(user, &owner_group, &group)?;
                Ok(vec![Response::Ok])
            }
            Request::Data { .. } => unreachable!("decoded as Incoming::Data"),
            _ => Err(bad_request("unsupported request")),
        }
    }

    /// Algorithm 1 `put_fD`.
    fn do_mkdir(
        &mut self,
        enclave: &SegShareEnclave,
        user: &UserId,
        path: &str,
    ) -> Result<Vec<Response>, SegShareError> {
        let path = parse_path(path)?;
        if !path.is_dir() || path.is_root() {
            return Err(bad_request("mkdir requires a non-root directory path"));
        }
        refuse_listed(&path, enclave.files().listed(&path)?)?;
        let parent = path.parent().expect("non-root");
        if !(parent.is_root() || enclave.access().auth_path(user, Access::Write, &parent)?) {
            return Err(deny(format!("no write permission on {parent}")));
        }
        enclave.files().create_dir(&path, user.default_group())?;
        Ok(vec![Response::Ok])
    }

    /// Algorithm 1 `get`: file content or directory listing.
    fn do_get(
        &mut self,
        enclave: &SegShareEnclave,
        user: &UserId,
        path: &str,
    ) -> Result<Vec<Response>, SegShareError> {
        let mut path = parse_path(path)?;
        // The root is listable by any authenticated user, matching
        // Algorithm 1's world-creatable root; every other entry is found
        // by its ACL and requires read permission.
        if !path.is_root() {
            let Some((found, acl)) = find(enclave, &path)? else {
                return Err(not_found(format!("nothing at {path}")));
            };
            path = found;
            if !enclave.access().auth_file(user, Access::Read, &path, acl)? {
                return Err(deny(format!("no read permission on {path}")));
            }
        }
        if path.is_dir() {
            let entries = enclave.files().list_dir(&path)?;
            Ok(vec![Response::Listing { entries }])
        } else {
            let download = enclave.files().open_download(&path)?;
            let size = download.total_len();
            self.download = Some(download);
            Ok(vec![Response::FileStart { size }])
        }
    }

    fn do_remove(
        &mut self,
        enclave: &SegShareEnclave,
        user: &UserId,
        path: &str,
    ) -> Result<Vec<Response>, SegShareError> {
        let path = parse_path(path)?;
        let Some((path, acl)) = find(enclave, &path)? else {
            return Err(not_found(format!("nothing at {path}")));
        };
        let access = enclave.access();
        if !access.auth_file(user, Access::Write, &path, acl)? {
            return Err(deny(format!("no write permission on {path}")));
        }
        enclave.files().remove(&path)?;
        Ok(vec![Response::Ok])
    }

    fn do_move(
        &mut self,
        enclave: &SegShareEnclave,
        user: &UserId,
        from: &str,
        to: &str,
    ) -> Result<Vec<Response>, SegShareError> {
        let from = parse_path(from)?;
        let found = find(enclave, &from)?;
        let mut to = parse_path(to)?;
        let Some((from, acl)) = found else {
            return Err(not_found(format!("nothing at {from}")));
        };
        if from.is_dir() && !to.is_dir() {
            to = parse_path(&format!("{}/", to.as_str()))?;
        }
        let access = enclave.access();
        if !access.auth_file(user, Access::Write, &from, acl)? {
            return Err(deny(format!("no write permission on {from}")));
        }
        let to_parent = to
            .parent()
            .ok_or_else(|| bad_request("cannot move to root"))?;
        let listed = enclave.files().listed(&to)?;
        if !(to_parent.is_root() || access.auth_path(user, Access::Write, &to_parent)?) {
            return Err(deny(format!("no write permission on {to_parent}")));
        }
        refuse_listed(&to, listed)?;
        enclave.files().rename(&from, &to)?;
        Ok(vec![Response::Ok])
    }
}

/// The one ACL edit — permissions, the inherit flag, owner growth and
/// shrink: under the path's write scope, find the entry, parse the
/// `operand`, admit file owners only (Table IV `auth_f` with the empty
/// permission), then apply `edit` to the ACL that found the entry and
/// save it.
fn edit_acl<G>(
    enclave: &SegShareEnclave,
    user: &UserId,
    path: &str,
    what: &str,
    operand: impl FnOnce() -> Result<G, SegShareError>,
    edit: impl FnOnce(&mut AclFile, G) -> Result<(), SegShareError>,
) -> Result<Vec<Response>, SegShareError> {
    let _scope = path_scope(enclave, path, LockIntent::Write, false);
    let path = parse_path(path)?;
    let found = find(enclave, &path)?;
    let operand = operand()?;
    let (path, acl) = match found {
        Some((path, acl)) if enclave.access().is_file_owner(user, &acl)? => (path, acl),
        _ => return Err(deny(format!("only file owners may {what} {path}"))),
    };
    let mut acl = Arc::unwrap_or_clone(acl);
    edit(&mut acl, operand)?;
    enclave.access().save_acl(&path, &acl)?;
    Ok(vec![Response::Ok])
}

/// Algorithm 1 `put_fC`, for the header: the upload it admits, whose
/// content then arrives in chunks. It only reads, under the path +
/// parent scope, outside any window; the scope is dropped on return,
/// before anything else, so the commit mutex stays the outermost lock.
fn do_put_file(
    enclave: &SegShareEnclave,
    user: &UserId,
    path: &str,
    size: u64,
) -> Result<UploadContext, SegShareError> {
    let _scope = path_scope(enclave, path, LockIntent::Write, true);
    let path = parse_path(path)?;
    if path.is_dir() {
        return Err(bad_request("put requires a content-file path"));
    }
    let parent = path.parent().expect("files are never the root");
    // Algorithm 1's `put_fC` lets anyone create below the root; we
    // additionally require write permission (or ownership) on an
    // *existing* file even in the root, so the world-creatable root
    // cannot be abused to clobber other users' files.
    let access = enclave.access();
    // The ACL of the file being overwritten, or `None` for a create.
    // With the cache on, the parent's verified listing is an in-memory
    // hit, so it goes first and a create reads no ACL. With the cache
    // off every verified read walks the store, so the ACL an overwrite
    // needs anyway goes first and only its absence asks the listing.
    // Either way a listed file whose ACL the store does not return must
    // not change hands, and a listed directory is refused.
    let acl_first = !enclave.config().cache;
    let mut existing = if acl_first { access.acl(&path)? } else { None };
    if existing.is_none() {
        match enclave.files().listed(&path)? {
            Some(ChildKind::File) => {
                existing = Some(access.acl(&path)?.ok_or_else(|| {
                    SegShareError::Integrity(format!(
                        "{path}: listed in its parent, but its ACL is missing from the store"
                    ))
                })?);
            }
            listed => refuse_listed(&path, listed)?,
        }
    }
    let (allowed, owner) = match existing {
        Some(acl) => {
            let allowed = access.auth_file(user, Access::Write, &path, acl)?
                || access.auth_path(user, Access::Write, &parent)?;
            (allowed, None)
        }
        None => {
            let allowed = parent.is_root() || access.auth_path(user, Access::Write, &parent)?;
            (allowed, Some(user.default_group()))
        }
    };
    if !allowed {
        return Err(deny(format!("no write permission for {path}")));
    }
    enclave.files().begin_upload(&path, size, owner)
}

fn parse_path(s: &str) -> Result<SegPath, SegShareError> {
    SegPath::parse(s).map_err(|e| bad_request(e.to_string()))
}

/// Acquires the lock scope of everything stored at `path` (dirfile or
/// content file plus its ACL — one key covers all three) and, when
/// `with_parent`, of the parent directory whose dirfile the operation
/// links or unlinks. An unparsable path gets the empty scope — the
/// handler re-parses the operand and reports the error, touching
/// nothing.
fn path_scope<'a>(
    enclave: &'a SegShareEnclave,
    path: &str,
    intent: LockIntent,
    with_parent: bool,
) -> LockScope<'a> {
    let mut requests = Vec::new();
    if let Ok(path) = SegPath::parse(path) {
        requests.push((LockKey::path(&path), intent));
        if let Some(parent) = path.parent().filter(|_| with_parent) {
            requests.push((LockKey::path(&parent), intent));
        }
    }
    enclave.locks().acquire(&requests)
}

/// Finds the entry a client path names by its ACL: the verified read
/// that proves the entry exists (Table IV `exists_f`), handed back for
/// the checks to start their chain from. A path without a trailing
/// slash whose name has no ACL of its own resolves to the directory of
/// that name, if there is one (WebDAV-style convenience). `None` when
/// neither ACL is stored.
fn find(
    enclave: &SegShareEnclave,
    path: &SegPath,
) -> Result<Option<(SegPath, Arc<AclFile>)>, SegShareError> {
    if let Some(acl) = enclave.access().acl(path)? {
        return Ok(Some((path.clone(), acl)));
    }
    if path.is_dir() {
        return Ok(None);
    }
    let dir = parse_path(&format!("{}/", path.as_str()))?;
    Ok(enclave.access().acl(&dir)?.map(|acl| (dir, acl)))
}

/// Refuses to create `path` where its parent already lists the name
/// (`listed`, from [`super::file_manager::FileManager::listed`]).
fn refuse_listed(path: &SegPath, listed: Option<ChildKind>) -> Result<(), SegShareError> {
    let what = match listed {
        None => return Ok(()),
        Some(kind) if (kind == ChildKind::Directory) == path.is_dir() => "already exists",
        Some(_) => "exists with a different kind",
    };
    Err(SegShareError::request(
        ErrorCode::AlreadyExists,
        format!("{path} {what}"),
    ))
}

/// The request operand that identifies what the request acts on — its
/// path, else its group — the value fingerprinted into the record and
/// with it into trace and audit events (never carried raw).
fn request_object(request: &Request) -> Option<&str> {
    request_path(request).or_else(|| request_group(request))
}

/// The path operand a request carries, if any (`Move` attributes to its
/// source).
fn request_path(request: &Request) -> Option<&str> {
    match request {
        Request::MkDir { path }
        | Request::PutFile { path, .. }
        | Request::Get { path }
        | Request::Remove { path }
        | Request::SetPerm { path, .. }
        | Request::SetInherit { path, .. }
        | Request::AddOwner { path, .. }
        | Request::RemoveOwner { path, .. } => Some(path),
        Request::Move { from, .. } => Some(from),
        _ => None,
    }
}

/// The group operand a request touches, if any — the record's `group`
/// fingerprint. Group-membership operations name the target group; ACL
/// operations name the group being granted/revoked.
fn request_group(request: &Request) -> Option<&str> {
    match request {
        Request::SetPerm { group, .. }
        | Request::AddOwner { group, .. }
        | Request::RemoveOwner { group, .. }
        | Request::AddUser { group, .. }
        | Request::RemoveUser { group, .. }
        | Request::AddGroupOwner { group, .. }
        | Request::DeleteGroup { group }
        | Request::RemoveGroupOwner { group, .. } => Some(group),
        _ => None,
    }
}

/// Payload bytes a response hands back to the client: announced
/// download sizes, inline chunk/listing content, and error detail.
fn response_bytes(responses: &[Response]) -> u64 {
    responses
        .iter()
        .map(|r| match r {
            Response::Ok => 0,
            Response::FileStart { size } => *size,
            Response::Data { bytes } => bytes.len() as u64,
            Response::Listing { entries } => entries.iter().map(|e| e.name.len() as u64 + 1).sum(),
            Response::Error { message, .. } => message.len() as u64,
            // `Response` is non_exhaustive; unknown payloads count 0.
            _ => 0,
        })
        .sum()
}

/// The one derivation of a request's outcome: granted, explicitly
/// denied, or failed for another reason, with the error-code label.
pub(super) fn note_outcome<T>(record: &mut RequestRecord, result: &Result<T, SegShareError>) {
    (record.decision, record.code) = match result.as_ref().map_err(error_code) {
        Ok(_) => (Decision::Allow, "ok"),
        Err(ErrorCode::Denied) => (Decision::Deny, ErrorCode::Denied.name()),
        Err(code) => (Decision::Error, code.name()),
    };
}

/// The wire error code an error maps to (also its telemetry label).
fn error_code(err: &SegShareError) -> ErrorCode {
    match err {
        SegShareError::Request { code, .. } => *code,
        SegShareError::Integrity(_)
        | SegShareError::Sgx(seg_sgx::SgxError::ProtectedFileCorrupted(_)) => {
            ErrorCode::IntegrityViolation
        }
        _ => ErrorCode::Internal,
    }
}

fn error_response(err: SegShareError) -> Response {
    let code = error_code(&err);
    let message = match err {
        SegShareError::Request { message, .. } => message,
        SegShareError::Integrity(message)
        | SegShareError::Sgx(seg_sgx::SgxError::ProtectedFileCorrupted(message)) => message,
        other => other.to_string(),
    };
    Response::Error { code, message }
}

/// Whether an error must tear down the session rather than being
/// reported as a response.
fn is_fatal(err: &SegShareError) -> bool {
    matches!(
        err,
        SegShareError::Tls(_) | SegShareError::Net(_) | SegShareError::Protocol(_)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EnclaveConfig;
    use seg_crypto::rng::SystemRng;
    use seg_pki::{CertificateAuthority, Identity};
    use seg_sgx::Platform;
    use seg_store::MemStore;
    use std::sync::Arc;

    const VALIDITY_END: u64 = 1 << 40;

    /// A CA and an enclave launched under it with in-memory stores,
    /// not yet certified.
    fn launched() -> (CertificateAuthority, Arc<SegShareEnclave>) {
        let ca = CertificateAuthority::new("ca", &mut SystemRng::new());
        let enclave = SegShareEnclave::launch(
            &Platform::new(),
            EnclaveConfig::default(),
            ca.public_key(),
            Arc::new(MemStore::new()),
            Arc::new(MemStore::new()),
            Arc::new(MemStore::new()),
            None,
        )
        .unwrap();
        (ca, enclave)
    }

    /// [`launched`], then certified by its CA.
    fn certified() -> (CertificateAuthority, Arc<SegShareEnclave>) {
        let (ca, enclave) = launched();
        let (csr, _quote) = enclave.certification_request("segshare");
        let cert = ca.issue_server_from_csr(&csr, 0, VALIDITY_END).unwrap();
        enclave.install_certificate(cert).unwrap();
        (ca, enclave)
    }

    #[test]
    fn parse_perm_group_handles_default_groups() {
        assert_eq!(
            parse_perm_group("~bob").unwrap(),
            UserId::new("bob").unwrap().default_group()
        );
        assert_eq!(
            parse_perm_group("eng").unwrap(),
            GroupId::new("eng").unwrap()
        );
        assert!(parse_perm_group("~").is_err());
        assert!(parse_perm_group("").is_err());
        assert!(parse_perm_group("bad\nname").is_err());
    }

    #[test]
    fn session_rejects_frames_before_certification() {
        // Launch the enclave, skipping certification.
        let (_ca, enclave) = launched();
        assert!(enclave.new_session().is_err(), "no server certificate yet");
    }

    #[test]
    fn garbage_handshake_frame_is_fatal() {
        let (_ca, enclave) = certified();
        let enclave = &enclave;
        let mut session = enclave.new_session().unwrap();
        assert!(session.user().is_none());
        assert!(session.handle_frame(enclave, b"not a tls frame").is_err());
        // The session is poisoned afterwards.
        assert!(session.handle_frame(enclave, b"anything").is_err());
        assert!(session.user().is_none());
    }

    #[test]
    fn session_identifies_user_after_handshake() {
        let (ca, enclave) = certified();
        let enclave = &enclave;
        let mut rng = SystemRng::new();
        let alice = Identity::user("alice", "a@x", "Alice").unwrap();
        let (certificate, secret_key) = ca.issue_user(alice, 0, VALIDITY_END, &mut rng);
        // Drive a session by hand to observe the state.
        let mut session = enclave.new_session().unwrap();
        let (mut hs, m1) = seg_tls::ClientHandshake::start(
            certificate,
            secret_key,
            ca.public_key(),
            1_000,
            &mut rng,
        );
        session.handle_frame(enclave, &m1).unwrap();
        let m2 = session.next_outgoing(enclave).unwrap().unwrap();
        let step = hs.process(&m2).unwrap();
        for frame in &step.replies {
            session.handle_frame(enclave, frame).unwrap();
        }
        let f2 = session.next_outgoing(enclave).unwrap().unwrap();
        let step = hs.process(&f2).unwrap();
        assert!(step.done);
        assert_eq!(session.user().unwrap().as_str(), "alice");
        assert!(!session.download_active());
    }
}
