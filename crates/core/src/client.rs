//! The user application (§IV-B): links a local view to the remote file
//! system over the secure channel.
//!
//! Requires no special hardware (F5) and stores only the client
//! certificate and key, independent of how much is shared with whom
//! (P1).

use crate::stream::record_buffer;
pub use crate::stream::SecureStream;
use seg_crypto::rng::SystemRng;
use seg_fs::Perm;
use seg_net::FrameTransport;
use seg_proto::{
    data_payload, put_data_header, ErrorCode, ListingEntry, Request, Response, CHUNK_LEN,
    DATA_HEADER_LEN,
};

use crate::error::SegShareError;
use crate::server::EnrolledUser;

/// One upload chunk's record: its Data header and then the chunk, in
/// a buffer with room for the record's tag.
fn data_record(chunk: &[u8]) -> Vec<u8> {
    let mut record = record_buffer(DATA_HEADER_LEN + chunk.len());
    put_data_header(&mut record, chunk.len());
    record.extend_from_slice(chunk);
    record
}

/// A connected SeGShare client.
pub struct Client<T: FrameTransport> {
    stream: SecureStream<T>,
}

impl<T: FrameTransport> std::fmt::Debug for Client<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Client(..)")
    }
}

impl<T: FrameTransport> Client<T> {
    /// Connects and mutually authenticates over `transport`.
    ///
    /// # Errors
    ///
    /// Returns TLS/PKI errors if either side fails authentication.
    pub fn connect(transport: T, user: &EnrolledUser) -> Result<Client<T>, SegShareError> {
        let stream = SecureStream::connect(
            transport,
            user.certificate.clone(),
            user.secret_key.clone(),
            user.ca_key,
            user.now,
            &mut SystemRng::new(),
        )?;
        Ok(Client { stream })
    }

    fn send(&mut self, request: &Request) -> Result<(), SegShareError> {
        self.stream.send(&request.encode())?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, SegShareError> {
        Ok(Response::decode(&self.stream.recv()?)?)
    }

    /// Sends one upload chunk: its Data header and then the chunk
    /// itself are written into the record's buffer, sealed there.
    fn send_data(&mut self, chunk: &[u8]) -> Result<(), SegShareError> {
        self.stream.send_owned(data_record(chunk))
    }

    /// Sends an upload's `PutFile` header with its first chunk's record,
    /// if it has one, in one hand-over to the transport: a put of up to
    /// [`CHUNK_LEN`] bytes is one socket write. A refused header costs
    /// nothing more: the server swallows the announced bytes and sends
    /// its one response.
    fn send_put(
        &mut self,
        path: &str,
        size: u64,
        first: Option<Vec<u8>>,
    ) -> Result<(), SegShareError> {
        let request = Request::PutFile {
            path: path.to_string(),
            size,
        }
        .encode();
        let mut header = record_buffer(request.len());
        header.extend_from_slice(&request);
        match first {
            Some(first) => self.stream.send_owned_all([header, first]),
            None => self.stream.send_owned(header),
        }
    }

    /// Receives one download chunk and hands its payload, a slice of
    /// the opened record, to `sink`; returns the payload's length. Any
    /// other response ends the download with an error.
    fn recv_data(
        &mut self,
        sink: impl FnOnce(&[u8]) -> Result<(), SegShareError>,
    ) -> Result<u64, SegShareError> {
        let message = self.stream.recv()?;
        if let Some(payload) = data_payload(&message) {
            sink(payload)?;
            return Ok(payload.len() as u64);
        }
        match Response::decode(&message)? {
            Response::Error { code, message } => Err(SegShareError::Request { code, message }),
            other => Err(SegShareError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    fn expect_ok(&mut self) -> Result<(), SegShareError> {
        match self.recv()? {
            Response::Ok => Ok(()),
            Response::Error { code, message } => Err(SegShareError::Request { code, message }),
            other => Err(SegShareError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Creates a directory. Accepts paths with or without the trailing
    /// slash.
    ///
    /// # Errors
    ///
    /// Returns the server's refusal as [`SegShareError::Request`].
    pub fn mkdir(&mut self, path: &str) -> Result<(), SegShareError> {
        let path = canonical_dir(path);
        self.send(&Request::MkDir { path })?;
        self.expect_ok()
    }

    /// Creates or updates a content file, streaming `content` in
    /// [`CHUNK_LEN`] chunks.
    ///
    /// # Errors
    ///
    /// Returns the server's refusal as [`SegShareError::Request`].
    pub fn put(&mut self, path: &str, content: &[u8]) -> Result<(), SegShareError> {
        let mut chunks = content.chunks(CHUNK_LEN);
        let first = chunks.next().map(data_record);
        self.send_put(path, content.len() as u64, first)?;
        for chunk in chunks {
            self.send_data(chunk)?;
        }
        self.expect_ok()
    }

    /// Creates or updates a content file from a reader, streaming
    /// [`CHUNK_LEN`] chunks without buffering the whole file — the
    /// client-side half of the paper's streaming design (§VI). The total
    /// `size` must be known up front (as in HTTP's Content-Length).
    ///
    /// # Errors
    ///
    /// Returns transport errors or the server's refusal.
    pub fn put_reader<R: std::io::Read>(
        &mut self,
        path: &str,
        size: u64,
        mut reader: R,
    ) -> Result<(), SegShareError> {
        let mut remaining = size;
        let mut next = || -> Result<Option<Vec<u8>>, SegShareError> {
            if remaining == 0 {
                return Ok(None);
            }
            let want = remaining.min(CHUNK_LEN as u64) as usize;
            remaining -= want as u64;
            // The reader fills the record's buffer after the header.
            let mut record = record_buffer(DATA_HEADER_LEN + want);
            put_data_header(&mut record, want);
            record.resize(DATA_HEADER_LEN + want, 0);
            let mut filled = DATA_HEADER_LEN;
            while filled < record.len() {
                let n = reader
                    .read(&mut record[filled..])
                    .map_err(|e| SegShareError::Protocol(format!("reader failed: {e}")))?;
                if n == 0 {
                    return Err(SegShareError::Protocol(
                        "reader ended before the announced size".to_string(),
                    ));
                }
                filled += n;
            }
            Ok(Some(record))
        };
        let first = next()?;
        self.send_put(path, size, first)?;
        while let Some(record) = next()? {
            self.stream.send_owned(record)?;
        }
        self.expect_ok()
    }

    /// Downloads a content file into a writer, one chunk at a time.
    ///
    /// # Errors
    ///
    /// Returns transport errors or the server's refusal; a directory
    /// path yields [`ErrorCode::BadRequest`].
    pub fn get_to_writer<W: std::io::Write>(
        &mut self,
        path: &str,
        writer: W,
    ) -> Result<u64, SegShareError> {
        let size = self.start_get(path)?;
        self.recv_file(size, writer)?;
        Ok(size)
    }

    /// Downloads a content file.
    ///
    /// # Errors
    ///
    /// Returns the server's refusal as [`SegShareError::Request`]; a
    /// directory path yields [`ErrorCode::BadRequest`].
    pub fn get(&mut self, path: &str) -> Result<Vec<u8>, SegShareError> {
        let size = self.start_get(path)?;
        let mut out = Vec::with_capacity(size as usize);
        self.recv_file(size, &mut out)?;
        Ok(out)
    }

    /// Sends `Get` for a content file and returns the size its
    /// `FileStart` announces.
    fn start_get(&mut self, path: &str) -> Result<u64, SegShareError> {
        self.send(&Request::Get {
            path: path.to_string(),
        })?;
        match self.recv()? {
            Response::FileStart { size } => Ok(size),
            Response::Listing { .. } => Err(SegShareError::request(
                ErrorCode::BadRequest,
                format!("{path} is a directory; use list()"),
            )),
            Response::Error { code, message } => Err(SegShareError::Request { code, message }),
            other => Err(SegShareError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Receives the `size` bytes a `FileStart` announced into `writer`.
    fn recv_file(
        &mut self,
        size: u64,
        mut writer: impl std::io::Write,
    ) -> Result<(), SegShareError> {
        let mut received = 0u64;
        while received < size {
            received += self.recv_data(|payload| {
                writer
                    .write_all(payload)
                    .map_err(|e| SegShareError::Protocol(format!("writer failed: {e}")))
            })?;
        }
        Ok(())
    }

    /// Lists a directory.
    ///
    /// # Errors
    ///
    /// Returns the server's refusal as [`SegShareError::Request`].
    pub fn list(&mut self, path: &str) -> Result<Vec<ListingEntry>, SegShareError> {
        let path = canonical_dir(path);
        self.send(&Request::Get { path })?;
        match self.recv()? {
            Response::Listing { entries } => Ok(entries),
            Response::Error { code, message } => Err(SegShareError::Request { code, message }),
            other => Err(SegShareError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Removes a file or empty directory.
    ///
    /// # Errors
    ///
    /// Returns the server's refusal as [`SegShareError::Request`].
    pub fn remove(&mut self, path: &str) -> Result<(), SegShareError> {
        self.send(&Request::Remove {
            path: path.to_string(),
        })?;
        self.expect_ok()
    }

    /// Moves/renames a file or directory.
    ///
    /// # Errors
    ///
    /// Returns the server's refusal as [`SegShareError::Request`].
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), SegShareError> {
        self.send(&Request::Move {
            from: from.to_string(),
            to: to.to_string(),
        })?;
        self.expect_ok()
    }

    /// Sets `group`'s permission on a file or directory. Use `~user` to
    /// address an individual user's default group.
    ///
    /// # Errors
    ///
    /// Returns the server's refusal as [`SegShareError::Request`].
    pub fn set_perm(&mut self, path: &str, group: &str, perm: Perm) -> Result<(), SegShareError> {
        self.send(&Request::SetPerm {
            path: path.to_string(),
            group: group.to_string(),
            perm: perm.encode(),
            remove: false,
        })?;
        self.expect_ok()
    }

    /// Removes `group`'s permission entry entirely.
    ///
    /// # Errors
    ///
    /// Returns the server's refusal as [`SegShareError::Request`].
    pub fn remove_perm(&mut self, path: &str, group: &str) -> Result<(), SegShareError> {
        self.send(&Request::SetPerm {
            path: path.to_string(),
            group: group.to_string(),
            perm: 0,
            remove: true,
        })?;
        self.expect_ok()
    }

    /// Toggles permission inheritance (§V-B).
    ///
    /// # Errors
    ///
    /// Returns the server's refusal as [`SegShareError::Request`].
    pub fn set_inherit(&mut self, path: &str, inherit: bool) -> Result<(), SegShareError> {
        self.send(&Request::SetInherit {
            path: path.to_string(),
            inherit,
        })?;
        self.expect_ok()
    }

    /// Extends file ownership to `group` (F7).
    ///
    /// # Errors
    ///
    /// Returns the server's refusal as [`SegShareError::Request`].
    pub fn add_owner(&mut self, path: &str, group: &str) -> Result<(), SegShareError> {
        self.send(&Request::AddOwner {
            path: path.to_string(),
            group: group.to_string(),
        })?;
        self.expect_ok()
    }

    /// Adds `user` to `group`, creating the group (owned by the caller)
    /// if needed.
    ///
    /// # Errors
    ///
    /// Returns the server's refusal as [`SegShareError::Request`].
    pub fn add_user(&mut self, user: &str, group: &str) -> Result<(), SegShareError> {
        self.send(&Request::AddUser {
            user: user.to_string(),
            group: group.to_string(),
        })?;
        self.expect_ok()
    }

    /// Removes `user` from `group` — immediate revocation (S4).
    ///
    /// # Errors
    ///
    /// Returns the server's refusal as [`SegShareError::Request`].
    pub fn remove_user(&mut self, user: &str, group: &str) -> Result<(), SegShareError> {
        self.send(&Request::RemoveUser {
            user: user.to_string(),
            group: group.to_string(),
        })?;
        self.expect_ok()
    }

    /// Removes a file owner (file owners only; the last owner stays).
    ///
    /// # Errors
    ///
    /// Returns the server's refusal as [`SegShareError::Request`].
    pub fn remove_owner(&mut self, path: &str, group: &str) -> Result<(), SegShareError> {
        self.send(&Request::RemoveOwner {
            path: path.to_string(),
            group: group.to_string(),
        })?;
        self.expect_ok()
    }

    /// Removes a group owner (group owners only; the last owner stays).
    ///
    /// # Errors
    ///
    /// Returns the server's refusal as [`SegShareError::Request`].
    pub fn remove_group_owner(
        &mut self,
        owner_group: &str,
        group: &str,
    ) -> Result<(), SegShareError> {
        self.send(&Request::RemoveGroupOwner {
            owner_group: owner_group.to_string(),
            group: group.to_string(),
        })?;
        self.expect_ok()
    }

    /// Deletes `group` entirely (group owners only). Deliberately the
    /// expensive operation: the enclave sweeps every member list
    /// (§IV-B).
    ///
    /// # Errors
    ///
    /// Returns the server's refusal as [`SegShareError::Request`].
    pub fn delete_group(&mut self, group: &str) -> Result<(), SegShareError> {
        self.send(&Request::DeleteGroup {
            group: group.to_string(),
        })?;
        self.expect_ok()
    }

    /// Extends ownership of `group` to `owner_group`.
    ///
    /// # Errors
    ///
    /// Returns the server's refusal as [`SegShareError::Request`].
    pub fn add_group_owner(&mut self, owner_group: &str, group: &str) -> Result<(), SegShareError> {
        self.send(&Request::AddGroupOwner {
            owner_group: owner_group.to_string(),
            group: group.to_string(),
        })?;
        self.expect_ok()
    }
}

fn canonical_dir(path: &str) -> String {
    if path.ends_with('/') {
        path.to_string()
    } else {
        format!("{path}/")
    }
}
