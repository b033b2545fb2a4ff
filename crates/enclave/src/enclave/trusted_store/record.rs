//! Stored codecs of the trusted store: the group store's root file and
//! the rollback-tree hash record.

use std::collections::BTreeSet;

use seg_crypto::mset::{MsetHash, MSET_HASH_LEN};
use seg_fs::codec::{Decoder, Encoder};
use seg_fs::UserId;

use crate::error::SegShareError;

/// The group store's root file: the list of users with member-list
/// files ("a root directory file stores a list of all contained files",
/// §IV-B).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GroupRootFile {
    users: BTreeSet<UserId>,
}

impl GroupRootFile {
    /// An empty root file.
    #[must_use]
    pub fn new() -> GroupRootFile {
        GroupRootFile::default()
    }

    /// Registers a user's member-list file; returns whether it was new.
    pub fn add_user(&mut self, user: UserId) -> bool {
        self.users.insert(user)
    }

    /// Whether `user` has a member-list file.
    #[must_use]
    pub fn contains(&self, user: &UserId) -> bool {
        self.users.contains(user)
    }

    /// Iterates over registered users.
    pub fn users(&self) -> impl Iterator<Item = &UserId> {
        self.users.iter()
    }

    /// Serializes the root file.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.tag(b"GRT1");
        e.u32(self.users.len() as u32);
        for u in &self.users {
            e.str(u.as_str());
        }
        e.finish()
    }

    /// Parses a [`GroupRootFile::encode`] payload.
    ///
    /// # Errors
    ///
    /// Returns [`seg_fs::FsError`] on malformed input.
    pub fn decode(data: &[u8]) -> Result<GroupRootFile, seg_fs::FsError> {
        let mut d = Decoder::new(data);
        d.tag(b"GRT1")?;
        let count = d.u32()?;
        let mut users = BTreeSet::new();
        for _ in 0..count {
            let user = UserId::new(d.str()?)?;
            seg_fs::codec::ascending(users.last(), &user)?;
            users.insert(user);
        }
        d.finish()?;
        Ok(GroupRootFile { users })
    }
}

/// One object's rollback-tree hash record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRecord {
    /// The node's main hash: its header binding plus `fold`.
    pub main: MsetHash,
    /// The sum of the bucket elements (the empty hash for a leaf).
    pub fold: MsetHash,
    /// Bucket hashes (inner nodes only).
    pub buckets: Vec<MsetHash>,
    /// Monotonic-counter value (tree roots with whole-FS protection).
    pub counter: u64,
}

/// Record tag of storage format version 2; the last byte is the version.
pub(super) const RECORD_TAG: &[u8; 4] = b"HRC2";

impl HashRecord {
    /// `tag | main | counter | bucket count`, then — inner nodes only —
    /// `fold` and the buckets. A leaf has no buckets, so no fold either.
    /// The writer encodes with [`HashRecord::encode_into`].
    #[cfg(test)]
    pub(super) fn encode(&self) -> Vec<u8> {
        let mut out = vec![0; self.encoded_len()];
        self.encode_into(&mut out);
        out
    }

    /// The length of [`HashRecord::encode`]'s output.
    pub(super) fn encoded_len(&self) -> usize {
        let hashes = match self.buckets.len() {
            0 => 1,
            n => 2 + n,
        };
        RECORD_TAG.len() + 8 + 4 + hashes * MSET_HASH_LEN
    }

    /// [`HashRecord::encode`] into `out`, which is exactly
    /// [`HashRecord::encoded_len`] bytes: the sealer encodes a record
    /// straight into its ciphertext buffer.
    pub(super) fn encode_into(&self, out: &mut [u8]) {
        let mut at = 0;
        let mut put = |bytes: &[u8]| {
            out[at..at + bytes.len()].copy_from_slice(bytes);
            at += bytes.len();
        };
        put(RECORD_TAG);
        put(&self.main.to_bytes());
        put(&self.counter.to_le_bytes());
        put(&(self.buckets.len() as u32).to_le_bytes());
        if !self.buckets.is_empty() {
            put(&self.fold.to_bytes());
        }
        for b in &self.buckets {
            put(&b.to_bytes());
        }
        debug_assert_eq!(at, out.len());
    }

    /// Bytes a cached copy is charged for (the hashes it holds).
    pub(super) fn cached_bytes(&self) -> u64 {
        (MSET_HASH_LEN * (2 + self.buckets.len()) + 8) as u64
    }

    pub(super) fn decode(data: &[u8]) -> Result<HashRecord, SegShareError> {
        if let [b'H', b'R', b'C', version] = data[..data.len().min(4)] {
            if version != RECORD_TAG[3] && version.is_ascii_digit() {
                return Err(SegShareError::Integrity(format!(
                    "hash record written by storage format version {}; \
                     this build reads version 2 only",
                    char::from(version)
                )));
            }
        }
        fn hash(d: &mut Decoder<'_>) -> Result<MsetHash, SegShareError> {
            let bytes: [u8; MSET_HASH_LEN] =
                d.raw(MSET_HASH_LEN)?.try_into().expect("fixed length");
            Ok(MsetHash::from_bytes(&bytes))
        }
        let mut d = Decoder::new(data);
        d.tag(RECORD_TAG)?;
        let main = hash(&mut d)?;
        let counter = d.u64()?;
        let count = d.u32()? as usize;
        // The count is the input's word: hold it against the bytes that
        // are there before sizing anything by it.
        if count > d.remaining() / MSET_HASH_LEN {
            return Err(SegShareError::Integrity(format!(
                "hash record names {count} buckets in {} bytes",
                d.remaining()
            )));
        }
        let fold = match count {
            0 => MsetHash::empty(),
            _ => hash(&mut d)?,
        };
        let mut buckets = Vec::with_capacity(count);
        for _ in 0..count {
            buckets.push(hash(&mut d)?);
        }
        d.finish()?;
        Ok(HashRecord {
            main,
            fold,
            buckets,
            counter,
        })
    }
}
