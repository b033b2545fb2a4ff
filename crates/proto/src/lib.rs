//! The request/response protocol between user applications and the
//! SeGShare enclave.
//!
//! The paper's prototype speaks WebDAV over its TLS channel (§VI); this
//! reproduction keeps the verbs (create/update/move/download/remove
//! files, create/list/move/remove directories, permission and group
//! management — §III-A) on a compact binary framing. Uploads and
//! downloads are *streamed*: a [`Request::PutFile`] / the
//! [`Response::FileStart`] header announces the size, then the payload
//! follows in [`CHUNK_LEN`]-byte [`Request::Data`] / [`Response::Data`]
//! messages, "the enclave processes one chunk at a time ... thus, the
//! enclave only requires a small, constant size buffer for each request"
//! (§VI).
//!
//! Every message is carried as one TLS record; message boundaries are
//! record boundaries.

use seg_fs::codec::{Decoder, Encoder};

use std::error::Error;
use std::fmt;

/// Streaming chunk size for uploads and downloads (the enclave's
/// constant per-request buffer).
pub const CHUNK_LEN: usize = 256 * 1024;

/// Bytes before a Data message's payload: its kind byte and the `u32`
/// payload length.
///
/// [`Request::Data`] and [`Response::Data`] encode alike, so one
/// borrowed codec writes and reads both without copying a payload:
/// [`put_data_header`] writes the header into the buffer the payload
/// then lands in (a TLS record's, sealed in place after it), and
/// [`data_payload`] reads the payload as a slice of the opened record.
pub const DATA_HEADER_LEN: usize = 5;

/// The kind byte of [`Request::Data`] and [`Response::Data`].
const DATA_KIND: u8 = 2;

/// Appends the header of a Data message carrying `len` payload bytes;
/// the caller appends exactly those bytes next. Header and payload are
/// then byte for byte the `encode` of a `Data` request or response.
///
/// # Panics
///
/// Panics if `len` does not fit the `u32` length field (chunks are at
/// most [`CHUNK_LEN`] bytes).
pub fn put_data_header(buf: &mut Vec<u8>, len: usize) {
    let len = u32::try_from(len).expect("a Data payload fits its u32 length");
    buf.push(DATA_KIND);
    buf.extend_from_slice(&len.to_le_bytes());
}

/// The payload of a Data message, borrowed from it. `Some` exactly
/// when [`Request::decode`] (and so [`Response::decode`]) would return
/// `Data`, with the same bytes; `None` for every other message,
/// well-formed or not, which the caller then decodes in full.
#[must_use]
pub fn data_payload(message: &[u8]) -> Option<&[u8]> {
    let (&kind, rest) = message.split_first()?;
    let (len, payload) = rest.split_first_chunk::<4>()?;
    let len = usize::try_from(u32::from_le_bytes(*len)).ok()?;
    (kind == DATA_KIND && payload.len() == len).then_some(payload)
}

/// Errors from protocol codecs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed protocol message: {}", self.0)
    }
}

impl Error for ProtoError {}

/// Errors from transports (`seg-net`). They live here, beside the
/// protocol both ends speak, so the enclave can name a session's
/// transport failure without linking a transport.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// The peer closed the connection.
    Closed,
    /// An underlying I/O failure.
    Io(String),
    /// A frame exceeded the receiver's size limit.
    FrameTooLarge(usize),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Closed => f.write_str("connection closed by peer"),
            NetError::Io(msg) => write!(f, "network i/o error: {msg}"),
            NetError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
        }
    }
}

impl Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::BrokenPipe => NetError::Closed,
            _ => NetError::Io(e.to_string()),
        }
    }
}

fn codec_err(e: seg_fs::FsError) -> ProtoError {
    ProtoError(e.to_string())
}

/// Why the enclave refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The authenticated user lacks the required permission.
    Denied,
    /// Path, group, or user not found.
    NotFound,
    /// Target already exists.
    AlreadyExists,
    /// The request was structurally invalid for the target.
    BadRequest,
    /// Stored data failed integrity verification (tamper/rollback).
    IntegrityViolation,
    /// Internal server failure.
    Internal,
}

impl ErrorCode {
    fn encode(self) -> u8 {
        match self {
            ErrorCode::Denied => 0,
            ErrorCode::NotFound => 1,
            ErrorCode::AlreadyExists => 2,
            ErrorCode::BadRequest => 3,
            ErrorCode::IntegrityViolation => 4,
            ErrorCode::Internal => 5,
        }
    }

    fn decode(v: u8) -> Result<ErrorCode, ProtoError> {
        Ok(match v {
            0 => ErrorCode::Denied,
            1 => ErrorCode::NotFound,
            2 => ErrorCode::AlreadyExists,
            3 => ErrorCode::BadRequest,
            4 => ErrorCode::IntegrityViolation,
            5 => ErrorCode::Internal,
            other => return Err(ProtoError(format!("unknown error code {other}"))),
        })
    }

    /// Stable snake_case identifier, suitable as a telemetry label
    /// (charset `[a-z_]`, never request-derived).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Denied => "denied",
            ErrorCode::NotFound => "not_found",
            ErrorCode::AlreadyExists => "already_exists",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::IntegrityViolation => "integrity_violation",
            ErrorCode::Internal => "internal",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::Denied => "permission denied",
            ErrorCode::NotFound => "not found",
            ErrorCode::AlreadyExists => "already exists",
            ErrorCode::BadRequest => "bad request",
            ErrorCode::IntegrityViolation => "stored data failed integrity verification",
            ErrorCode::Internal => "internal error",
        };
        f.write_str(s)
    }
}

/// A client request (§III-A's request list plus the §V extensions).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Request {
    /// Create a directory (`put_fD`).
    MkDir {
        /// Directory path (trailing slash).
        path: String,
    },
    /// Create or update a content file (`put_fC`); `size` bytes of
    /// [`Request::Data`] follow.
    PutFile {
        /// Content-file path.
        path: String,
        /// Total upload size in bytes.
        size: u64,
    },
    /// One chunk of an ongoing upload.
    Data {
        /// Chunk payload (at most [`CHUNK_LEN`] bytes).
        bytes: Vec<u8>,
    },
    /// Download a file or list a directory (`get`).
    Get {
        /// Target path.
        path: String,
    },
    /// Remove a file or (empty) directory.
    Remove {
        /// Target path.
        path: String,
    },
    /// Move/rename a file or directory.
    Move {
        /// Source path.
        from: String,
        /// Destination path.
        to: String,
    },
    /// Set or remove a group's permission on a file (`set_p`).
    SetPerm {
        /// Target path.
        path: String,
        /// Group (or `~user` default group).
        group: String,
        /// Encoded [`seg_fs::Perm`]; ignored when `remove`.
        perm: u8,
        /// Remove the entry instead of setting it.
        remove: bool,
    },
    /// Toggle permission inheritance (§V-B).
    SetInherit {
        /// Target path.
        path: String,
        /// New inherit-flag value.
        inherit: bool,
    },
    /// Extend file ownership to another group (`r_FO` update, F7).
    AddOwner {
        /// Target path.
        path: String,
        /// New owner group.
        group: String,
    },
    /// Add a user to a group (`add_u`), creating the group if needed.
    AddUser {
        /// User to add.
        user: String,
        /// Target group.
        group: String,
    },
    /// Remove a user from a group (`rmv_u`).
    RemoveUser {
        /// User to remove.
        user: String,
        /// Target group.
        group: String,
    },
    /// Extend group ownership to another group (`r_GO` update).
    AddGroupOwner {
        /// Group receiving ownership.
        owner_group: String,
        /// Group being owned.
        group: String,
    },
    /// Delete a group entirely. The paper notes this is the one
    /// intentionally inefficient operation: "the member list of each
    /// user has to be checked and possibly modified" (§IV-B).
    DeleteGroup {
        /// Group to delete.
        group: String,
    },
    /// Remove a file owner (`r_FO` shrink); the last owner is protected.
    RemoveOwner {
        /// Target path.
        path: String,
        /// Owner group to remove.
        group: String,
    },
    /// Remove a group owner (`r_GO` shrink); the last owner is
    /// protected.
    RemoveGroupOwner {
        /// Owner group to remove.
        owner_group: String,
        /// Group being owned.
        group: String,
    },
}

impl Request {
    /// Stable snake_case operation label for telemetry — one per
    /// variant, carrying no request content (charset `[a-z_]`).
    #[must_use]
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::MkDir { .. } => "mk_dir",
            Request::PutFile { .. } => "put_file",
            Request::Data { .. } => "data",
            Request::Get { .. } => "get",
            Request::Remove { .. } => "remove",
            Request::Move { .. } => "mv",
            Request::SetPerm { .. } => "set_perm",
            Request::SetInherit { .. } => "set_inherit",
            Request::AddOwner { .. } => "add_owner",
            Request::AddUser { .. } => "add_user",
            Request::RemoveUser { .. } => "remove_user",
            Request::AddGroupOwner { .. } => "add_group_owner",
            Request::DeleteGroup { .. } => "delete_group",
            Request::RemoveOwner { .. } => "remove_owner",
            Request::RemoveGroupOwner { .. } => "remove_group_owner",
        }
    }

    /// Serializes the request.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            Request::MkDir { path } => {
                e.u8(0);
                e.str(path);
            }
            Request::PutFile { path, size } => {
                e.u8(1);
                e.str(path);
                e.u64(*size);
            }
            Request::Data { bytes } => {
                e.u8(DATA_KIND);
                e.bytes(bytes);
            }
            Request::Get { path } => {
                e.u8(3);
                e.str(path);
            }
            Request::Remove { path } => {
                e.u8(4);
                e.str(path);
            }
            Request::Move { from, to } => {
                e.u8(5);
                e.str(from);
                e.str(to);
            }
            Request::SetPerm {
                path,
                group,
                perm,
                remove,
            } => {
                e.u8(6);
                e.str(path);
                e.str(group);
                e.u8(*perm);
                e.u8(*remove as u8);
            }
            Request::SetInherit { path, inherit } => {
                e.u8(7);
                e.str(path);
                e.u8(*inherit as u8);
            }
            Request::AddOwner { path, group } => {
                e.u8(8);
                e.str(path);
                e.str(group);
            }
            Request::AddUser { user, group } => {
                e.u8(9);
                e.str(user);
                e.str(group);
            }
            Request::RemoveUser { user, group } => {
                e.u8(10);
                e.str(user);
                e.str(group);
            }
            Request::AddGroupOwner { owner_group, group } => {
                e.u8(11);
                e.str(owner_group);
                e.str(group);
            }
            Request::DeleteGroup { group } => {
                e.u8(12);
                e.str(group);
            }
            Request::RemoveOwner { path, group } => {
                e.u8(13);
                e.str(path);
                e.str(group);
            }
            Request::RemoveGroupOwner { owner_group, group } => {
                e.u8(14);
                e.str(owner_group);
                e.str(group);
            }
        }
        e.finish()
    }

    /// Parses a [`Request::encode`] payload.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError`] on malformed input.
    pub fn decode(data: &[u8]) -> Result<Request, ProtoError> {
        let mut d = Decoder::new(data);
        let kind = d.u8().map_err(codec_err)?;
        let req = match kind {
            0 => Request::MkDir {
                path: d.str().map_err(codec_err)?,
            },
            1 => Request::PutFile {
                path: d.str().map_err(codec_err)?,
                size: d.u64().map_err(codec_err)?,
            },
            DATA_KIND => Request::Data {
                bytes: d.bytes().map_err(codec_err)?,
            },
            3 => Request::Get {
                path: d.str().map_err(codec_err)?,
            },
            4 => Request::Remove {
                path: d.str().map_err(codec_err)?,
            },
            5 => Request::Move {
                from: d.str().map_err(codec_err)?,
                to: d.str().map_err(codec_err)?,
            },
            6 => Request::SetPerm {
                path: d.str().map_err(codec_err)?,
                group: d.str().map_err(codec_err)?,
                perm: d.u8().map_err(codec_err)?,
                remove: d.u8().map_err(codec_err)? != 0,
            },
            7 => Request::SetInherit {
                path: d.str().map_err(codec_err)?,
                inherit: d.u8().map_err(codec_err)? != 0,
            },
            8 => Request::AddOwner {
                path: d.str().map_err(codec_err)?,
                group: d.str().map_err(codec_err)?,
            },
            9 => Request::AddUser {
                user: d.str().map_err(codec_err)?,
                group: d.str().map_err(codec_err)?,
            },
            10 => Request::RemoveUser {
                user: d.str().map_err(codec_err)?,
                group: d.str().map_err(codec_err)?,
            },
            11 => Request::AddGroupOwner {
                owner_group: d.str().map_err(codec_err)?,
                group: d.str().map_err(codec_err)?,
            },
            12 => Request::DeleteGroup {
                group: d.str().map_err(codec_err)?,
            },
            13 => Request::RemoveOwner {
                path: d.str().map_err(codec_err)?,
                group: d.str().map_err(codec_err)?,
            },
            14 => Request::RemoveGroupOwner {
                owner_group: d.str().map_err(codec_err)?,
                group: d.str().map_err(codec_err)?,
            },
            other => return Err(ProtoError(format!("unknown request kind {other}"))),
        };
        d.finish().map_err(codec_err)?;
        Ok(req)
    }
}

/// One entry in a directory listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListingEntry {
    /// Child name.
    pub name: String,
    /// Whether the child is a directory.
    pub is_dir: bool,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Response {
    /// Request succeeded with no payload.
    Ok,
    /// A download follows: `size` bytes in [`Response::Data`] chunks.
    FileStart {
        /// Total download size in bytes.
        size: u64,
    },
    /// One chunk of an ongoing download.
    Data {
        /// Chunk payload.
        bytes: Vec<u8>,
    },
    /// Directory listing.
    Listing {
        /// Children in sorted order.
        entries: Vec<ListingEntry>,
    },
    /// The request failed.
    Error {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail (never secret-bearing).
        message: String,
    },
}

impl Response {
    /// Serializes the response.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            Response::Ok => e.u8(0),
            Response::FileStart { size } => {
                e.u8(1);
                e.u64(*size);
            }
            Response::Data { bytes } => {
                e.u8(DATA_KIND);
                e.bytes(bytes);
            }
            Response::Listing { entries } => {
                e.u8(3);
                e.u32(entries.len() as u32);
                for entry in entries {
                    e.str(&entry.name);
                    e.u8(entry.is_dir as u8);
                }
            }
            Response::Error { code, message } => {
                e.u8(4);
                e.u8(code.encode());
                e.str(message);
            }
        }
        e.finish()
    }

    /// Parses a [`Response::encode`] payload.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError`] on malformed input.
    pub fn decode(data: &[u8]) -> Result<Response, ProtoError> {
        let mut d = Decoder::new(data);
        let kind = d.u8().map_err(codec_err)?;
        let resp = match kind {
            0 => Response::Ok,
            1 => Response::FileStart {
                size: d.u64().map_err(codec_err)?,
            },
            DATA_KIND => Response::Data {
                bytes: d.bytes().map_err(codec_err)?,
            },
            3 => {
                let count = d.u32().map_err(codec_err)?;
                let mut entries = Vec::new();
                for _ in 0..count {
                    entries.push(ListingEntry {
                        name: d.str().map_err(codec_err)?,
                        is_dir: d.u8().map_err(codec_err)? != 0,
                    });
                }
                Response::Listing { entries }
            }
            4 => Response::Error {
                code: ErrorCode::decode(d.u8().map_err(codec_err)?)?,
                message: d.str().map_err(codec_err)?,
            },
            other => return Err(ProtoError(format!("unknown response kind {other}"))),
        };
        d.finish().map_err(codec_err)?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn all_requests_roundtrip() {
        roundtrip_req(Request::MkDir {
            path: "/d/".to_string(),
        });
        roundtrip_req(Request::PutFile {
            path: "/d/f".to_string(),
            size: 1 << 40,
        });
        roundtrip_req(Request::Data {
            bytes: vec![1, 2, 3],
        });
        roundtrip_req(Request::Get {
            path: "/d/".to_string(),
        });
        roundtrip_req(Request::Remove {
            path: "/d/f".to_string(),
        });
        roundtrip_req(Request::Move {
            from: "/a".to_string(),
            to: "/b".to_string(),
        });
        roundtrip_req(Request::SetPerm {
            path: "/d/f".to_string(),
            group: "eng".to_string(),
            perm: 3,
            remove: false,
        });
        roundtrip_req(Request::SetInherit {
            path: "/d/f".to_string(),
            inherit: true,
        });
        roundtrip_req(Request::AddOwner {
            path: "/d/f".to_string(),
            group: "eng".to_string(),
        });
        roundtrip_req(Request::AddUser {
            user: "alice".to_string(),
            group: "eng".to_string(),
        });
        roundtrip_req(Request::RemoveUser {
            user: "alice".to_string(),
            group: "eng".to_string(),
        });
        roundtrip_req(Request::AddGroupOwner {
            owner_group: "leads".to_string(),
            group: "eng".to_string(),
        });
        roundtrip_req(Request::DeleteGroup {
            group: "eng".to_string(),
        });
        roundtrip_req(Request::RemoveOwner {
            path: "/d/f".to_string(),
            group: "eng".to_string(),
        });
        roundtrip_req(Request::RemoveGroupOwner {
            owner_group: "leads".to_string(),
            group: "eng".to_string(),
        });
    }

    #[test]
    fn all_responses_roundtrip() {
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::FileStart { size: 42 });
        roundtrip_resp(Response::Data {
            bytes: vec![0; 1000],
        });
        roundtrip_resp(Response::Listing {
            entries: vec![
                ListingEntry {
                    name: "a.txt".to_string(),
                    is_dir: false,
                },
                ListingEntry {
                    name: "sub".to_string(),
                    is_dir: true,
                },
            ],
        });
        roundtrip_resp(Response::Error {
            code: ErrorCode::Denied,
            message: "nope".to_string(),
        });
    }

    #[test]
    fn unknown_kinds_rejected() {
        assert!(Request::decode(&[200]).is_err());
        assert!(Response::decode(&[200]).is_err());
        assert!(Request::decode(&[]).is_err());
        assert!(Response::decode(&[]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut data = Request::Get {
            path: "/x".to_string(),
        }
        .encode();
        data.push(7);
        assert!(Request::decode(&data).is_err());
    }

    #[test]
    fn error_codes_roundtrip() {
        for code in [
            ErrorCode::Denied,
            ErrorCode::NotFound,
            ErrorCode::AlreadyExists,
            ErrorCode::BadRequest,
            ErrorCode::IntegrityViolation,
            ErrorCode::Internal,
        ] {
            roundtrip_resp(Response::Error {
                code,
                message: code.to_string(),
            });
        }
    }
}

#[cfg(test)]
mod fuzz_tests {
    use super::*;

    /// Deterministic xorshift for dependency-free fuzzing.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn decode_never_panics_on_random_bytes() {
        let mut state = 0x243F_6A88_85A3_08D3u64;
        for len in 0..256usize {
            let mut bytes = vec![0u8; len];
            for b in bytes.iter_mut() {
                *b = xorshift(&mut state) as u8;
            }
            let _ = Request::decode(&bytes);
            let _ = Response::decode(&bytes);
        }
    }

    #[test]
    fn decode_roundtrips_survive_truncation() {
        let req = Request::SetPerm {
            path: "/a/b".to_string(),
            group: "readers".to_string(),
            perm: 3,
            remove: false,
        };
        let encoded = req.encode();
        for cut in 0..encoded.len() {
            assert!(Request::decode(&encoded[..cut]).is_err(), "cut {cut}");
        }
    }
}
