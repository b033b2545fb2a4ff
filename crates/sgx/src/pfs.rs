//! Reimplementation of the Intel SGX Protected File System Library
//! (§II-A "Protected File System Library").
//!
//! The library stores a byte stream as uniform 4 KiB nodes: on write,
//! "data is separated into 4kB chunks, the data's integrity is ensured
//! with a Merkle hash tree variant, and each chunk is encrypted with
//! AES-GCM". Like Intel's library, which keeps the first kilobytes of a
//! file in its metadata node, the header node here carries data, so a
//! small file is one node. This module writes and reads **format
//! version 2**:
//!
//! * **Data and meta nodes** — exactly [`NODE_LEN`] bytes each:
//!   `IV (12) || ciphertext || tag (16) || zero padding`. Data node *i*
//!   holds plaintext bytes `[i·4068, (i+1)·4068)`
//!   ([`DATA_PER_NODE`]); a meta node holds the concatenated tags of up
//!   to [`TAGS_PER_NODE`] children.
//! * **Header node** — `IV (12) || sealed payload (4068) || tag (16)`,
//!   the payload sealed at its full fixed size so the tag sits at a
//!   fixed offset: magic `SEGPFS2\0` | version (u16) | meta levels (u16)
//!   | `data_len` (u64), then the **top-level tag list**, then the
//!   **inline tail**, then zeros. [`header_id`] (its IV and tag, 28
//!   bytes) identifies one written version of the whole file.
//! * **Layout rule** — one pure function of `data_len`, shared by the
//!   writer, the reader and [`encrypted_size`]: tags are reduced through
//!   meta levels only until the list fits the header's
//!   [`HEADER_SPARE`] bytes; the tail (`data_len % 4068` bytes) goes in
//!   the header after the list when both fit, else it is a last data
//!   node. Blob order: header, data nodes, meta levels ascending.
//! * **Tag tree** — every node's GCM tag is plaintext of its parent (a
//!   meta node or the header), and the header authenticates itself
//!   under the file key. Any modification, truncation, extension or
//!   node swap breaks a tag on the path to the header; every stored
//!   byte is covered by exactly one check (GCM, or the zero-padding
//!   test).
//! * **IV discipline** — per-file random nonce XOR (level, index), so IVs
//!   never repeat within a file; rewriting draws a fresh nonce.
//! * **Space overhead** — a file of up to [`HEADER_SPARE`] bytes is one
//!   node; beyond that, 28 bytes of framing per 4,068 data bytes plus
//!   the header, plus one meta node per 254 data nodes once a file has
//!   more than 253 of them (~1 MB): 2.0× at 4 KiB, 1.25× at 16 KiB,
//!   ~1.1 % for large files, matching the paper's measured 1.05–1.48 %
//!   storage overheads (§VII-B).
//!
//! A blob written by format version 1 (`data_len` and one top tag in a
//! 48-byte header payload, no inline data) is refused with an error
//! naming the version; there is no reader for it.
//!
//! Writing is streaming: [`PfsWriter`] buffers only the current node plus
//! 16 bytes per finished node (the tag list), which is what lets the
//! enclave re-encrypt arbitrarily large uploads with a small, constant
//! data buffer (§VI).

use seg_crypto::gcm::{Gcm, IV_LEN, TAG_LEN};
use seg_crypto::rng::SecureRandom;
use seg_obs::Phase;

use crate::SgxError;

/// Size of every stored node.
pub const NODE_LEN: usize = 4096;
/// Framing per node: IV plus GCM tag.
pub const NODE_OVERHEAD: usize = IV_LEN + TAG_LEN;
/// Plaintext data capacity of a data node.
pub const DATA_PER_NODE: usize = NODE_LEN - NODE_OVERHEAD;
/// Child tags per meta node.
pub const TAGS_PER_NODE: usize = DATA_PER_NODE / TAG_LEN;
/// Header payload bytes available to the top-level tag list and the
/// inline tail; a file up to this long is a single node.
pub const HEADER_SPARE: usize = DATA_PER_NODE - HEADER_FIXED;
/// Length of a [`header_id`].
pub const HEADER_ID_LEN: usize = IV_LEN + TAG_LEN;

const MAGIC: &[u8; 8] = b"SEGPFS2\0";
const VERSION: u16 = 2;
/// Fixed header fields: magic 8 | version 2 | levels 2 | data_len 8.
const HEADER_FIXED: usize = 8 + 2 + 2 + 8;
/// Level byte of the header in IVs and AAD; no other node uses it.
const HEADER_LEVEL: u8 = 0xff;

fn corrupted(what: impl Into<String>) -> SgxError {
    SgxError::ProtectedFileCorrupted(what.into())
}

fn node_iv(nonce: &[u8; IV_LEN], level: u8, index: u64) -> [u8; IV_LEN] {
    let mut iv = *nonce;
    for (slot, b) in iv.iter_mut().zip(index.to_le_bytes()) {
        *slot ^= b;
    }
    iv[8] ^= level;
    iv
}

fn node_aad(level: u8, index: u64) -> [u8; 9] {
    let mut aad = [0u8; 9];
    aad[0] = level;
    aad[1..].copy_from_slice(&index.to_le_bytes());
    aad
}

/// Appends `plaintext` to `out` as one padded 4 KiB node, sealed where
/// it lands, and returns the node's tag.
fn seal_node(
    gcm: &Gcm,
    nonce: &[u8; IV_LEN],
    level: u8,
    index: u64,
    plaintext: &[u8],
    out: &mut Vec<u8>,
) -> [u8; TAG_LEN] {
    debug_assert!(plaintext.len() <= DATA_PER_NODE);
    let iv = node_iv(nonce, level, index);
    let node_end = out.len() + NODE_LEN;
    out.extend_from_slice(&iv);
    let body = out.len();
    out.extend_from_slice(plaintext);
    let tag = gcm.seal_in_place(&iv, &node_aad(level, index), &mut out[body..]);
    out.extend_from_slice(&tag);
    out.resize(node_end, 0);
    tag
}

/// Checks a node's tag against `expected_tag`, then appends its
/// plaintext to `out`, decrypted where it lands. On any error `out` is
/// as it was.
fn open_node(
    gcm: &Gcm,
    node: &[u8],
    level: u8,
    index: u64,
    plaintext_len: usize,
    expected_tag: &[u8; TAG_LEN],
    out: &mut Vec<u8>,
) -> Result<(), SgxError> {
    if node.len() != NODE_LEN || plaintext_len > DATA_PER_NODE {
        return Err(corrupted(format!(
            "bad node length at level {level} index {index}"
        )));
    }
    let iv: [u8; IV_LEN] = node[..IV_LEN].try_into().expect("12 bytes");
    let ct = &node[IV_LEN..IV_LEN + plaintext_len];
    let stored_tag = &node[IV_LEN + plaintext_len..IV_LEN + plaintext_len + TAG_LEN];
    // Padding is structurally zero; reject any modification so every
    // stored byte is covered by some check.
    if node[IV_LEN + plaintext_len + TAG_LEN..]
        .iter()
        .any(|&b| b != 0)
    {
        return Err(corrupted(format!(
            "nonzero padding at level {level} index {index}"
        )));
    }
    if !seg_crypto::ct::ct_eq(stored_tag, expected_tag) {
        return Err(corrupted(format!(
            "tag mismatch at level {level} index {index} (rollback or tamper)"
        )));
    }
    let body = out.len();
    out.extend_from_slice(ct);
    let opened = gcm.open_in_place(&iv, &node_aad(level, index), &mut out[body..], stored_tag);
    if opened.is_err() {
        // Still ciphertext (the tag is checked first); hand none of it on.
        out.truncate(body);
        return Err(corrupted(format!(
            "authentication failed at level {level} index {index}"
        )));
    }
    Ok(())
}

/// Where the bytes of a `data_len`-byte file are stored.
#[derive(Debug, PartialEq, Eq)]
struct Layout {
    /// Stored nodes per level: `counts[0]` data nodes, then each meta
    /// level. The header lists the tags of the last level.
    counts: Vec<u64>,
    /// Bytes of the tail the header holds; 0 when the tail is empty or
    /// is the last data node.
    inline_len: usize,
}

impl Layout {
    /// Every node of the blob, the header included.
    fn total_nodes(&self) -> u64 {
        1 + self.counts.iter().sum::<u64>()
    }

    fn top_tags(&self) -> usize {
        *self.counts.last().expect("the data level is always there") as usize
    }
}

/// Node counts per level over `data_nodes` data nodes, reduced through
/// meta levels only until the top level's tags fit the header.
fn level_counts(data_nodes: u64) -> Vec<u64> {
    let mut counts = vec![data_nodes];
    let mut top = data_nodes;
    while top > (HEADER_SPARE / TAG_LEN) as u64 {
        top = top.div_ceil(TAGS_PER_NODE as u64);
        counts.push(top);
    }
    counts
}

/// The one layout rule (see the module docs).
fn layout(data_len: u64) -> Layout {
    let full = data_len / DATA_PER_NODE as u64;
    let tail = (data_len % DATA_PER_NODE as u64) as usize;
    let inline = Layout {
        counts: level_counts(full),
        inline_len: tail,
    };
    if inline.top_tags() * TAG_LEN + tail <= HEADER_SPARE {
        return inline;
    }
    Layout {
        counts: level_counts(full + 1),
        inline_len: 0,
    }
}

/// Number of [`DATA_PER_NODE`]-byte slices in a plaintext of `data_len`
/// bytes (what `read_node` indexes), stored as data nodes or inline.
fn slice_count(data_len: u64) -> u64 {
    data_len.div_ceil(DATA_PER_NODE as u64)
}

/// Total stored size (bytes) for a plaintext of `data_len` bytes —
/// the quantity the paper's storage-overhead table reports.
#[must_use]
pub fn encrypted_size(data_len: u64) -> u64 {
    layout(data_len).total_nodes() * NODE_LEN as u64
}

/// The identity of one written version of a protected file: its header
/// node's IV and GCM tag. The tag (under the file's key) authenticates
/// every header byte — length, tag list and inline data — and through
/// the tag list every other node; the IV is fresh per write. This is
/// all a rollback tree needs to bind.
///
/// # Errors
///
/// Returns [`SgxError::ProtectedFileCorrupted`] if `blob` is shorter
/// than a header node.
pub fn header_id(blob: &[u8]) -> Result<[u8; HEADER_ID_LEN], SgxError> {
    if blob.len() < NODE_LEN {
        return Err(corrupted("blob is shorter than a header node"));
    }
    let mut id = [0u8; HEADER_ID_LEN];
    id[..IV_LEN].copy_from_slice(&blob[..IV_LEN]);
    id[IV_LEN..].copy_from_slice(&blob[NODE_LEN - TAG_LEN..NODE_LEN]);
    Ok(id)
}

/// Seals a header node into `node` (all of it is overwritten): the
/// fixed fields, then `spare` (tag list, inline tail), zero-filled to
/// the payload's fixed size. The writer's last step; tests call it with
/// fields no writer would produce.
fn seal_header(
    gcm: &Gcm,
    nonce: &[u8; IV_LEN],
    levels: u16,
    data_len: u64,
    spare: &[&[u8]],
    node: &mut [u8],
) {
    let iv = node_iv(nonce, HEADER_LEVEL, 0);
    let (iv_out, rest) = node.split_at_mut(IV_LEN);
    let (payload, tag_out) = rest.split_at_mut(DATA_PER_NODE);
    iv_out.copy_from_slice(&iv);
    payload.fill(0);
    payload[..8].copy_from_slice(MAGIC);
    payload[8..10].copy_from_slice(&VERSION.to_le_bytes());
    payload[10..12].copy_from_slice(&levels.to_le_bytes());
    payload[12..HEADER_FIXED].copy_from_slice(&data_len.to_le_bytes());
    let mut at = HEADER_FIXED;
    for part in spare {
        payload[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
    tag_out.copy_from_slice(&gcm.seal_in_place(&iv, &node_aad(HEADER_LEVEL, 0), payload));
}

/// The format version of a header node sealed the way version 1 sealed
/// it (a 48-byte payload, its tag, zero padding), if `node` is one: a
/// store from before the format change, to be named rather than
/// reported as tampering.
fn earlier_format_version(gcm: &Gcm, node: &[u8]) -> Option<u16> {
    const PAYLOAD: usize = 48;
    let iv: [u8; IV_LEN] = node[..IV_LEN].try_into().expect("12 bytes");
    let mut payload: [u8; PAYLOAD] = node[IV_LEN..IV_LEN + PAYLOAD].try_into().expect("48 bytes");
    let tag = &node[IV_LEN + PAYLOAD..IV_LEN + PAYLOAD + TAG_LEN];
    gcm.open_in_place(&iv, &node_aad(HEADER_LEVEL, 0), &mut payload, tag)
        .ok()?;
    (payload[..6] == MAGIC[..6])
        .then(|| u16::from_le_bytes(payload[8..10].try_into().expect("2 bytes")))
}

fn unsupported_version(version: u16) -> SgxError {
    corrupted(format!(
        "protected file written by storage format version {version}; \
         this build reads version {VERSION} only"
    ))
}

/// Streaming writer producing a protected-file blob.
pub struct PfsWriter {
    gcm: Gcm,
    nonce: [u8; IV_LEN],
    buffer: Vec<u8>,
    tags: Vec<[u8; TAG_LEN]>,
    /// Blob under construction; node 0 (header) is sealed in `finish`.
    out: Vec<u8>,
    /// The blob size `out` may grow to, from [`PfsWriter::bound_len`].
    bound: Option<usize>,
    data_len: u64,
}

impl std::fmt::Debug for PfsWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PfsWriter")
            .field("data_len", &self.data_len)
            .finish()
    }
}

impl PfsWriter {
    /// Starts a protected file under `key` (16, 24, or 32 bytes — the
    /// caller provides the file key, as the paper's trusted file manager
    /// does; deriving from the sealing key is the caller's choice).
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::Crypto`] for invalid key lengths.
    pub fn new<R: SecureRandom>(key: &[u8], rng: &mut R) -> Result<PfsWriter, SgxError> {
        Ok(PfsWriter {
            gcm: Gcm::new(key)?,
            nonce: rng.array(),
            buffer: Vec::with_capacity(DATA_PER_NODE),
            tags: Vec::new(),
            out: vec![0u8; NODE_LEN], // header placeholder
            bound: None,
            data_len: 0,
        })
    }

    /// Bounds the blob buffer's growth by the plaintext the caller was
    /// told the file will hold (an upload's announced size). The buffer
    /// still grows only as plaintext arrives, doubling as a `Vec` does,
    /// but never past the blob that much plaintext makes, so a file that
    /// arrives as announced ends in a buffer of exactly its blob. The
    /// bound only limits: nothing is reserved for it, and plaintext past
    /// it is still written.
    pub fn bound_len(&mut self, data_len: u64) {
        self.bound = layout(data_len)
            .total_nodes()
            .checked_mul(NODE_LEN as u64)
            .and_then(|len| usize::try_from(len).ok());
    }

    /// Makes room in `out` for `nodes` more nodes.
    fn reserve_nodes(&mut self, nodes: usize) {
        let need = self.out.len() + nodes * NODE_LEN;
        if need <= self.out.capacity() {
            return;
        }
        let doubled = need.max(2 * self.out.capacity());
        let target = self
            .bound
            .map_or(doubled, |bound| doubled.min(bound.max(need)));
        self.out.reserve_exact(target - self.out.len());
    }

    /// Appends plaintext; full nodes are encrypted and emitted
    /// immediately (constant data buffering).
    pub fn write(&mut self, mut data: &[u8]) {
        let _prof = seg_obs::prof::phase(Phase::Pfs);
        self.data_len += data.len() as u64;
        self.reserve_nodes((self.buffer.len() + data.len()) / DATA_PER_NODE);
        while !data.is_empty() {
            if self.buffer.is_empty() && data.len() >= DATA_PER_NODE {
                // A whole node straight from the caller's bytes.
                let (node, rest) = data.split_at(DATA_PER_NODE);
                let index = self.tags.len() as u64;
                let tag = seal_node(&self.gcm, &self.nonce, 0, index, node, &mut self.out);
                self.tags.push(tag);
                data = rest;
                continue;
            }
            let take = (DATA_PER_NODE - self.buffer.len()).min(data.len());
            self.buffer.extend_from_slice(&data[..take]);
            data = &data[take..];
            if self.buffer.len() == DATA_PER_NODE {
                self.flush_buffer();
            }
        }
    }

    fn flush_buffer(&mut self) {
        let index = self.tags.len() as u64;
        let tag = seal_node(
            &self.gcm,
            &self.nonce,
            0,
            index,
            &self.buffer,
            &mut self.out,
        );
        self.tags.push(tag);
        self.buffer.clear();
    }

    /// Finishes the file and returns the complete blob.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        let _prof = seg_obs::prof::phase(Phase::Pfs);
        // Whole nodes went out as they filled; what is buffered is the tail.
        let layout = layout(self.data_len);
        // The blob's size is known now; its buffer grows to exactly that.
        let blob_len = layout.total_nodes() as usize * NODE_LEN;
        self.out.reserve_exact(blob_len - self.out.len());
        if layout.inline_len == 0 && !self.buffer.is_empty() {
            self.flush_buffer();
        }
        debug_assert_eq!(self.buffer.len(), layout.inline_len);
        // Meta levels bottom-up, until the tag list fits the header.
        let mut level_tags = std::mem::take(&mut self.tags);
        for level in 1..layout.counts.len() {
            debug_assert_eq!(level_tags.len() as u64, layout.counts[level - 1]);
            let mut next_tags = Vec::with_capacity(layout.counts[level] as usize);
            for (idx, group) in level_tags.chunks(TAGS_PER_NODE).enumerate() {
                next_tags.push(seal_node(
                    &self.gcm,
                    &self.nonce,
                    level as u8,
                    idx as u64,
                    group.as_flattened(),
                    &mut self.out,
                ));
            }
            level_tags = next_tags;
        }
        debug_assert_eq!(level_tags.len(), layout.top_tags());
        seal_header(
            &self.gcm,
            &self.nonce,
            (layout.counts.len() - 1) as u16,
            self.data_len,
            &[level_tags.as_flattened(), &self.buffer],
            &mut self.out[..NODE_LEN],
        );
        self.out
    }
}

/// A verified reader over a protected-file blob, generic over who holds
/// the blob: borrowed for a one-shot read ([`pfs_decrypt`]), or owned by
/// a caller that streams a file's chunks across turns (the enclave's
/// download sessions), where the encrypted blob stays in (conceptually
/// untrusted) memory while the enclave holds only the current chunk.
///
/// Opening verifies the header and the meta-node path from its tag list
/// down to the per-data-node tags; [`read_node`](Self::read_node) then
/// serves random-access decryption of individual 4,068-byte slices.
pub struct PfsFile<B = Vec<u8>> {
    gcm: Gcm,
    blob: B,
    data_len: u64,
    data_tags: Vec<[u8; TAG_LEN]>,
    /// The tail the header held (empty when there is none inline).
    inline: Vec<u8>,
}

impl<B> std::fmt::Debug for PfsFile<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PfsFile")
            .field("data_len", &self.data_len)
            .finish()
    }
}

impl<B: AsRef<[u8]>> PfsFile<B> {
    /// Opens and integrity-verifies the blob's meta structure.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::ProtectedFileCorrupted`] for any structural,
    /// cryptographic, or rollback problem, and for a blob written by
    /// another format version.
    pub fn open(key: &[u8], blob: B) -> Result<PfsFile<B>, SgxError> {
        let _prof = seg_obs::prof::phase(Phase::Pfs);
        let gcm = Gcm::new(key)?;
        let bytes = blob.as_ref();
        if bytes.len() < NODE_LEN || !bytes.len().is_multiple_of(NODE_LEN) {
            return Err(corrupted("blob is not a whole number of nodes"));
        }
        // The header authenticates itself via GCM (we do not know its tag
        // in advance, so open it directly from its stored IV and tag).
        let header = &bytes[..NODE_LEN];
        let iv: [u8; IV_LEN] = header[..IV_LEN].try_into().expect("12 bytes");
        let (sealed, tag) = header[IV_LEN..].split_at(DATA_PER_NODE);
        let mut payload = sealed.to_vec();
        if gcm
            .open_in_place(&iv, &node_aad(HEADER_LEVEL, 0), &mut payload, tag)
            .is_err()
        {
            return Err(match earlier_format_version(&gcm, header) {
                Some(version) => unsupported_version(version),
                None => corrupted("header authentication failed"),
            });
        }
        let version = u16::from_le_bytes(payload[8..10].try_into().expect("2 bytes"));
        if payload[..8] != MAGIC[..] || version != VERSION {
            // Another version of this format says so in the same place.
            return Err(match payload[..6] == MAGIC[..6] {
                true => unsupported_version(version),
                false => corrupted("bad magic"),
            });
        }
        let levels = u16::from_le_bytes(payload[10..12].try_into().expect("2 bytes")) as usize;
        let data_len = u64::from_le_bytes(payload[12..HEADER_FIXED].try_into().expect("8 bytes"));

        // Everything below is sized by the layout, and the layout is
        // first held against the blob: nothing is allocated beyond what
        // the input's own length accounts for.
        let layout = layout(data_len);
        if layout.counts.len() != levels + 1 {
            return Err(corrupted("level count inconsistent with data length"));
        }
        if layout.total_nodes() != (bytes.len() / NODE_LEN) as u64 {
            return Err(corrupted(
                "blob size inconsistent with header (truncation or extension)",
            ));
        }
        let counts = &layout.counts;

        // Node offsets: header, data level, then meta levels ascending.
        let mut level_offsets = Vec::with_capacity(counts.len());
        let mut offset = 1u64;
        for &c in counts {
            level_offsets.push(offset);
            offset += c;
        }

        // Walk meta levels top-down from the header's list, verifying
        // tags and collecting the level below's expected tags.
        let list_end = HEADER_FIXED + layout.top_tags() * TAG_LEN;
        let mut expected: Vec<[u8; TAG_LEN]> = payload[HEADER_FIXED..list_end]
            .chunks_exact(TAG_LEN)
            .map(|tag| tag.try_into().expect("16 bytes"))
            .collect();
        for level in (1..=levels).rev() {
            let count = counts[level];
            debug_assert_eq!(expected.len() as u64, count);
            let child_count = counts[level - 1];
            let mut child_tags = Vec::with_capacity(child_count as usize);
            let mut pt = Vec::with_capacity(DATA_PER_NODE);
            for idx in 0..count {
                let node_start = ((level_offsets[level] + idx) as usize) * NODE_LEN;
                let node = &bytes[node_start..node_start + NODE_LEN];
                let children_here =
                    (child_count - idx * TAGS_PER_NODE as u64).min(TAGS_PER_NODE as u64) as usize;
                pt.clear();
                open_node(
                    &gcm,
                    node,
                    level as u8,
                    idx,
                    children_here * TAG_LEN,
                    &expected[idx as usize],
                    &mut pt,
                )?;
                for chunk in pt.chunks_exact(TAG_LEN) {
                    child_tags.push(chunk.try_into().expect("16 bytes"));
                }
            }
            expected = child_tags;
        }
        debug_assert_eq!(expected.len() as u64, counts[0]);
        // Keep the inline tail in the buffer it was opened in.
        payload.truncate(list_end + layout.inline_len);
        payload.drain(..list_end);
        Ok(PfsFile {
            gcm,
            blob,
            data_len,
            data_tags: expected,
            inline: payload,
        })
    }

    /// Plaintext length of the protected file.
    #[must_use]
    pub fn data_len(&self) -> u64 {
        self.data_len
    }

    /// Number of [`DATA_PER_NODE`]-byte slices of the plaintext.
    #[must_use]
    pub fn node_count(&self) -> u64 {
        slice_count(self.data_len)
    }

    /// Decrypts and verifies slice `index` of the plaintext: a data
    /// node, or the tail the already-verified header held.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::ProtectedFileCorrupted`] on tamper/rollback or
    /// out-of-range index.
    pub fn read_node(&self, index: u64) -> Result<Vec<u8>, SgxError> {
        let mut node = Vec::new();
        self.read_into(index, &mut node)?;
        Ok(node)
    }

    /// [`read_node`](Self::read_node) appending to `out`, decrypted
    /// where it lands. On any error `out` is as it was.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::ProtectedFileCorrupted`] on tamper/rollback or
    /// out-of-range index.
    pub fn read_into(&self, index: u64, out: &mut Vec<u8>) -> Result<(), SgxError> {
        let _prof = seg_obs::prof::phase(Phase::Pfs);
        let n = self.node_count();
        if index >= n {
            return Err(corrupted(format!(
                "node index {index} out of range ({n} nodes)"
            )));
        }
        let Some(tag) = self.data_tags.get(index as usize) else {
            // Past the stored data nodes: the tail, opened with the header.
            out.extend_from_slice(&self.inline);
            return Ok(());
        };
        let len = (self.data_len - index * DATA_PER_NODE as u64).min(DATA_PER_NODE as u64);
        let start = ((1 + index) as usize) * NODE_LEN;
        let node = &self.blob.as_ref()[start..start + NODE_LEN];
        open_node(&self.gcm, node, 0, index, len as usize, tag, out)
    }

    /// Decrypts the whole file, each slice where it belongs.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::ProtectedFileCorrupted`] on any integrity
    /// failure.
    pub fn read_all(&self) -> Result<Vec<u8>, SgxError> {
        let _prof = seg_obs::prof::phase(Phase::Pfs);
        let mut out = Vec::with_capacity(self.data_len as usize);
        for index in 0..self.node_count() {
            self.read_into(index, &mut out)?;
        }
        Ok(out)
    }
}

/// One-shot encryption of `plaintext` into a protected-file blob.
///
/// # Errors
///
/// Returns [`SgxError::Crypto`] for invalid key lengths.
pub fn pfs_encrypt<R: SecureRandom>(
    key: &[u8],
    plaintext: &[u8],
    rng: &mut R,
) -> Result<Vec<u8>, SgxError> {
    let _prof = seg_obs::prof::phase(Phase::Pfs);
    let mut w = PfsWriter::new(key, rng)?;
    // The header node is already there; the rest is known up front.
    w.out
        .reserve_exact(encrypted_size(plaintext.len() as u64) as usize - NODE_LEN);
    w.write(plaintext);
    Ok(w.finish())
}

/// One-shot verification and decryption of a protected-file blob.
///
/// # Errors
///
/// Returns [`SgxError::ProtectedFileCorrupted`] on any integrity failure.
pub fn pfs_decrypt(key: &[u8], blob: &[u8]) -> Result<Vec<u8>, SgxError> {
    let _prof = seg_obs::prof::phase(Phase::Pfs);
    PfsFile::open(key, blob)?.read_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seg_crypto::rng::DeterministicRng;

    const KEY: [u8; 16] = [7u8; 16];

    fn rng() -> DeterministicRng {
        DeterministicRng::seeded(99)
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    /// Lengths on both sides of every layout decision: the inline
    /// capacity, the node size, the tail that stops fitting beside the
    /// tag list, and the tag list that stops fitting the header.
    fn boundary_lengths() -> Vec<usize> {
        let header_tags = HEADER_SPARE / TAG_LEN;
        let mut lens = vec![0, 1, 100, 3 * DATA_PER_NODE + 17];
        for edge in [
            HEADER_SPARE,
            DATA_PER_NODE,
            DATA_PER_NODE + HEADER_SPARE - TAG_LEN,
            header_tags * DATA_PER_NODE,
            (header_tags + 1) * DATA_PER_NODE,
            TAGS_PER_NODE * DATA_PER_NODE,
        ] {
            lens.extend([edge - 1, edge, edge + 1]);
        }
        lens
    }

    #[test]
    fn roundtrip_various_sizes() {
        for len in boundary_lengths() {
            let pt = pattern(len);
            let blob = pfs_encrypt(&KEY, &pt, &mut rng()).unwrap();
            assert_eq!(blob.len() as u64, encrypted_size(len as u64), "len {len}");
            assert_eq!(pfs_decrypt(&KEY, &blob).unwrap(), pt, "len {len}");
            // Chunked writes take the buffered path; same bytes.
            let mut w = PfsWriter::new(&KEY, &mut rng()).unwrap();
            for chunk in pt.chunks(1000) {
                w.write(chunk);
            }
            assert_eq!(w.finish(), blob, "len {len} streamed");
        }
    }

    /// Nodes format version 1 stored for `data_len` bytes: a header
    /// without data, and tags reduced until a single top node remained.
    fn v1_nodes(data_len: u64) -> u64 {
        let mut level = data_len.div_ceil(DATA_PER_NODE as u64);
        let mut nodes = 1 + level;
        while level > 1 {
            level = level.div_ceil(TAGS_PER_NODE as u64);
            nodes += level;
        }
        nodes
    }

    #[test]
    fn layout_node_counts_are_pinned() {
        let nodes = |len: u64| encrypted_size(len) / NODE_LEN as u64;
        for (len, now, was) in [
            (0u64, 1u64, 1u64),
            (1, 1, 2),
            (3 * 1024, 1, 2),
            (4097, 2, 4),
            (16_385, 5, 7),
            (65_537, 17, 19),
            ((1 << 20) + 1, 260, 262),
            (10_000_000, 2469, 2471),
        ] {
            assert_eq!(nodes(len), now, "len {len}");
            assert_eq!(v1_nodes(len), was, "len {len} in version 1");
        }
        // Never more nodes than version 1, at any length: every length
        // up to three meta nodes' worth in steps that hit each residue
        // of the node size, and both sides of each node boundary.
        let mut len = 0u64;
        while len < 3 * (TAGS_PER_NODE * DATA_PER_NODE) as u64 {
            for len in [len.saturating_sub(1), len, len + 1] {
                assert!(nodes(len) <= v1_nodes(len), "len {len}");
            }
            len += if len < 3 * DATA_PER_NODE as u64 {
                1
            } else {
                4067
            };
        }
        for len in boundary_lengths() {
            assert!(nodes(len as u64) <= v1_nodes(len as u64), "len {len}");
        }
    }

    #[test]
    fn layout_places_the_tail_and_stops_reducing_when_the_list_fits() {
        let d = DATA_PER_NODE as u64;
        assert_eq!(
            layout(0),
            Layout {
                counts: vec![0],
                inline_len: 0
            }
        );
        assert_eq!(layout(HEADER_SPARE as u64).counts, [0]);
        assert_eq!(layout(HEADER_SPARE as u64 + 1).counts, [1]);
        assert_eq!(layout(HEADER_SPARE as u64 + 1).inline_len, 0);
        // One tag beside the tail: the tail fits up to SPARE - 16.
        let fits = d + (HEADER_SPARE - TAG_LEN) as u64;
        assert_eq!(layout(fits).counts, [1]);
        assert_eq!(layout(fits).inline_len, HEADER_SPARE - TAG_LEN);
        assert_eq!(layout(fits + 1).counts, [2]);
        assert_eq!(layout(fits + 1).inline_len, 0);
        // 253 tags fit the header; the 254th costs one meta node.
        assert_eq!(layout(253 * d).counts, [253]);
        assert_eq!(layout(254 * d).counts, [254, 1]);
        assert_eq!(layout(254 * d + 5).inline_len, 5);
        assert_eq!(layout(255 * d).counts, [255, 2]);
    }

    // Digests of the blobs this writer (format version 2) produced when
    // the format was introduced: stored files must not change again
    // without a version bump.
    #[test]
    fn blob_bytes_are_pinned() {
        use seg_crypto::sha256::Sha256;
        for (len, digest) in [
            (
                0usize,
                "8ec147929f5f02b9f0dcd36dfdba771582796113fee9a7911635fd56f7c9c816",
            ),
            (
                100,
                "f3e01650e98d841de9e47f4536bba8c0bb697dabbeb2a65419363736d63e9e9f",
            ),
            (
                3 * DATA_PER_NODE + 17,
                "a969d532c8c5958a059b77ca3dfe3ec164e58944f9d51e9b1fa2bcdc0e7949ef",
            ),
            (
                255 * DATA_PER_NODE,
                "82fff9b70c09cab9f05afd668922b0b088e55517fbd7f4cc85831675d85a3ae8",
            ), // one meta level
        ] {
            let blob = pfs_encrypt(&KEY, &pattern(len), &mut rng()).unwrap();
            let hex: String = Sha256::digest(&blob)
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            assert_eq!(hex, digest, "len {len}");
        }
    }

    #[test]
    fn streaming_write_matches_one_shot_semantics() {
        let pt: Vec<u8> = (0..3 * DATA_PER_NODE + 100)
            .map(|i| (i % 256) as u8)
            .collect();
        let mut w = PfsWriter::new(&KEY, &mut rng()).unwrap();
        for chunk in pt.chunks(1000) {
            w.write(chunk);
        }
        let blob = w.finish();
        assert_eq!(pfs_decrypt(&KEY, &blob).unwrap(), pt);
    }

    /// An announced length only caps the blob buffer's growth: a file
    /// written as announced ends in a buffer of exactly its blob, one
    /// written past it (or under a length no blob can have) is written
    /// whole, and the bytes are the same either way.
    #[test]
    fn bound_len_only_caps_the_blob_buffer() {
        for (announced, len) in [
            (1u64 << 20, 1usize << 20),
            (5_000, 5_000),
            (10_000, 50_000),
            (u64::MAX, 5_000),
        ] {
            let pt = pattern(len);
            let mut w = PfsWriter::new(&KEY, &mut rng()).unwrap();
            w.bound_len(announced);
            for chunk in pt.chunks(256 * 1024) {
                w.write(chunk);
            }
            let blob = w.finish();
            assert_eq!(blob.len() as u64, encrypted_size(len as u64));
            if announced == len as u64 {
                assert_eq!(blob.capacity(), blob.len(), "{len} bytes as announced");
            }
            assert_eq!(pfs_decrypt(&KEY, &blob).unwrap(), pt);
        }
    }

    #[test]
    fn random_access_reads() {
        let pt = pattern(5 * DATA_PER_NODE + 123);
        let blob = pfs_encrypt(&KEY, &pt, &mut rng()).unwrap();
        // Header (five tags and the 123-byte tail) and five data nodes.
        assert_eq!(blob.len(), 6 * NODE_LEN);
        let r = PfsFile::open(&KEY, &blob[..]).unwrap();
        assert_eq!(r.node_count(), 6);
        // Middle node.
        assert_eq!(
            r.read_node(2).unwrap(),
            &pt[2 * DATA_PER_NODE..3 * DATA_PER_NODE]
        );
        // The tail, served from the header.
        assert_eq!(r.read_node(5).unwrap(), &pt[5 * DATA_PER_NODE..]);
        assert!(r.read_node(6).is_err());

        let file = PfsFile::open(&KEY, blob).unwrap();
        let mut out = vec![0xee];
        file.read_into(4, &mut out).unwrap();
        file.read_into(5, &mut out).unwrap();
        assert_eq!(out[1..], pt[4 * DATA_PER_NODE..]);
        assert!(file.read_into(6, &mut out).is_err());
        assert_eq!(out.len(), 1 + DATA_PER_NODE + 123, "untouched on error");
    }

    #[test]
    fn wrong_key_rejected() {
        let blob = pfs_encrypt(&KEY, b"secret contents", &mut rng()).unwrap();
        assert!(matches!(
            pfs_decrypt(&[8u8; 16], &blob),
            Err(SgxError::ProtectedFileCorrupted(_))
        ));
    }

    #[test]
    fn header_id_is_the_header_iv_and_tag() {
        let mut rng = rng();
        let blob = pfs_encrypt(&KEY, &pattern(5000), &mut rng).unwrap();
        let id = header_id(&blob).unwrap();
        assert_eq!(id[..IV_LEN], blob[..IV_LEN]);
        assert_eq!(id[IV_LEN..], blob[NODE_LEN - TAG_LEN..NODE_LEN]);
        // A rewrite of the same bytes is another version.
        let again = pfs_encrypt(&KEY, &pattern(5000), &mut rng).unwrap();
        assert_ne!(header_id(&again).unwrap(), id);
        assert!(header_id(&blob[..NODE_LEN - 1]).is_err());
        assert!(header_id(&[]).is_err());
    }

    #[test]
    fn a_flip_at_any_offset_is_detected() {
        // One node (inline data, then sealed zero fill); a tag list, an
        // inline tail and a full data node; a tail too long for the
        // header, so a last data node with padding.
        for len in [100, DATA_PER_NODE + 50, 2 * DATA_PER_NODE - 8] {
            let pt = pattern(len);
            let blob = pfs_encrypt(&KEY, &pt, &mut rng()).unwrap();
            let mut bad = blob.clone();
            for at in 0..blob.len() {
                bad[at] ^= 0x20;
                assert!(pfs_decrypt(&KEY, &bad).is_err(), "len {len} offset {at}");
                bad[at] = blob[at];
            }
        }
    }

    #[test]
    fn every_node_tamper_detected() {
        // 254 data nodes: one more tag than the header lists, so a meta
        // node; the 50-byte tail is inline.
        let pt = pattern(254 * DATA_PER_NODE + 50);
        let blob = pfs_encrypt(&KEY, &pt, &mut rng()).unwrap();
        let nodes = blob.len() / NODE_LEN;
        assert_eq!(nodes, 256); // header + 254 data + 1 meta
        for node in 0..nodes {
            // Flip a byte inside each node's ciphertext region.
            let mut bad = blob.clone();
            bad[node * NODE_LEN + IV_LEN + 3] ^= 1;
            assert!(
                pfs_decrypt(&KEY, &bad).is_err(),
                "tamper in node {node} undetected"
            );
        }
    }

    #[test]
    fn node_swap_detected() {
        let pt = pattern(3 * DATA_PER_NODE);
        let blob = pfs_encrypt(&KEY, &pt, &mut rng()).unwrap();
        let mut swapped = blob.clone();
        // Swap data nodes 0 and 1 (blob nodes 1 and 2).
        let (a, b) = (NODE_LEN, 2 * NODE_LEN);
        let tmp = swapped[a..a + NODE_LEN].to_vec();
        swapped.copy_within(b..b + NODE_LEN, a);
        swapped[b..b + NODE_LEN].copy_from_slice(&tmp);
        assert!(pfs_decrypt(&KEY, &swapped).is_err());
    }

    #[test]
    fn truncation_and_extension_detected() {
        let pt = vec![1u8; 2 * DATA_PER_NODE];
        let blob = pfs_encrypt(&KEY, &pt, &mut rng()).unwrap();
        assert!(pfs_decrypt(&KEY, &blob[..blob.len() - NODE_LEN]).is_err());
        let mut extended = blob.clone();
        extended.extend_from_slice(&vec![0u8; NODE_LEN]);
        assert!(pfs_decrypt(&KEY, &extended).is_err());
        assert!(pfs_decrypt(&KEY, &blob[..100]).is_err());
        assert!(pfs_decrypt(&KEY, &[]).is_err());
    }

    #[test]
    fn cross_file_node_replay_detected() {
        // Two files under the same key: nodes cannot be transplanted
        // because tags are checked against each file's own tag tree.
        let blob_a = pfs_encrypt(&KEY, &vec![0xaa; DATA_PER_NODE * 2], &mut rng()).unwrap();
        let blob_b = pfs_encrypt(&KEY, &vec![0xbb; DATA_PER_NODE * 2], &mut rng()).unwrap();
        let mut franken = blob_a.clone();
        franken[NODE_LEN..2 * NODE_LEN].copy_from_slice(&blob_b[NODE_LEN..2 * NODE_LEN]);
        assert!(pfs_decrypt(&KEY, &franken).is_err());
    }

    /// A blob whose header claims `levels` and `data_len` and carries
    /// `spare`, sealed under the right key, over `nodes` nodes in all.
    fn blob_with_header(levels: u16, data_len: u64, spare: &[u8], nodes: usize) -> Vec<u8> {
        let mut blob = vec![0u8; nodes * NODE_LEN];
        let gcm = Gcm::new(&KEY).unwrap();
        seal_header(
            &gcm,
            &[5u8; IV_LEN],
            levels,
            data_len,
            &[spare],
            &mut blob[..NODE_LEN],
        );
        blob
    }

    #[test]
    fn authentic_headers_with_inconsistent_fields_are_rejected() {
        let open = |blob: &[u8]| PfsFile::open(&KEY, blob).map(|r| r.read_all());
        // The helper seals what the writer seals.
        let inline = blob_with_header(0, 3, b"abc", 1);
        assert_eq!(open(&inline).unwrap().unwrap(), b"abc");

        let d = DATA_PER_NODE as u64;
        for (what, blob) in [
            ("levels too high", blob_with_header(1, 3, b"abc", 1)),
            ("levels too low", blob_with_header(0, 300 * d, &[], 303)),
            (
                "data_len beyond the blob",
                blob_with_header(0, 2 * d, &[], 1),
            ),
            (
                "data_len short of the blob",
                blob_with_header(0, 3, b"abc", 2),
            ),
            ("huge data_len", blob_with_header(0, u64::MAX, &[], 1)),
            (
                "huge data_len, levels to match",
                blob_with_header(7, u64::MAX, &[], 1),
            ),
            (
                "tag list shorter than the blob",
                blob_with_header(0, 2 * d, &[0; 32], 2),
            ),
        ] {
            match open(&blob) {
                Err(SgxError::ProtectedFileCorrupted(_)) => {}
                other => panic!("{what}: {other:?}"),
            }
        }
        // Consistent sizes over nodes that are not the listed ones: the
        // header opens, the first read fails.
        let unlisted = blob_with_header(0, 2 * d, &[0; 32], 3);
        assert!(matches!(
            open(&unlisted),
            Ok(Err(SgxError::ProtectedFileCorrupted(_)))
        ));
    }

    #[test]
    fn a_version_1_header_is_refused_by_name() {
        // What format version 1 stored for an empty file: a 48-byte
        // payload (magic, version, levels, data_len, nonce, top tag),
        // its tag, zero padding.
        let gcm = Gcm::new(&KEY).unwrap();
        let nonce = [5u8; IV_LEN];
        let mut payload = [0u8; 48];
        payload[..8].copy_from_slice(b"SEGPFS1\0");
        payload[8..10].copy_from_slice(&1u16.to_le_bytes());
        payload[20..32].copy_from_slice(&nonce);
        let mut blob = Vec::new();
        seal_node(&gcm, &nonce, HEADER_LEVEL, 0, &payload, &mut blob);
        for open in [
            pfs_decrypt(&KEY, &blob).map(drop),
            PfsFile::open(&KEY, blob.clone()).map(drop),
        ] {
            match open {
                Err(SgxError::ProtectedFileCorrupted(msg)) => {
                    assert!(msg.contains("storage format version 1"), "{msg}");
                }
                other => panic!("{other:?}"),
            }
        }
        // Under another key it is just a header that does not open.
        assert!(matches!(
            pfs_decrypt(&[8u8; 16], &blob),
            Err(SgxError::ProtectedFileCorrupted(msg)) if msg.contains("authentication")
        ));
        // A header of this shape that names another version says so too.
        let newer = {
            let mut blob = blob_with_header(0, 0, &[], 1);
            let mut payload = [0u8; DATA_PER_NODE];
            payload[..8].copy_from_slice(b"SEGPFS3\0");
            payload[8..10].copy_from_slice(&3u16.to_le_bytes());
            let iv = node_iv(&nonce, HEADER_LEVEL, 0);
            let tag = gcm.seal_in_place(&iv, &node_aad(HEADER_LEVEL, 0), &mut payload);
            blob[IV_LEN..IV_LEN + DATA_PER_NODE].copy_from_slice(&payload);
            blob[NODE_LEN - TAG_LEN..].copy_from_slice(&tag);
            blob
        };
        assert!(matches!(
            pfs_decrypt(&KEY, &newer),
            Err(SgxError::ProtectedFileCorrupted(msg)) if msg.contains("format version 3")
        ));
    }

    #[test]
    fn encrypted_size_matches_paper_scale() {
        // ~1.1 % overhead for 10 MB and 200 MB files, matching §VII-B.
        for (plain, lo, hi) in [(10_000_000u64, 1.0, 1.25), (200_000_000u64, 1.0, 1.15)] {
            let enc = encrypted_size(plain) as f64;
            let overhead = (enc - plain as f64) / plain as f64 * 100.0;
            assert!(
                overhead > lo && overhead < hi,
                "overhead {overhead:.2}% for {plain} bytes outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn rewrites_use_fresh_nonces() {
        let mut rng = rng();
        let b1 = pfs_encrypt(&KEY, b"same content", &mut rng).unwrap();
        let b2 = pfs_encrypt(&KEY, b"same content", &mut rng).unwrap();
        assert_ne!(b1, b2, "re-encryption must be probabilistic");
    }
}
