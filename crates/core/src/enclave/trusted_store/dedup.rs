//! The dedup store's refcount index and blob collection.

use std::collections::HashMap;

use seg_fs::codec::{Decoder, Encoder};

use crate::enclave::names::ObjectId;
use crate::error::SegShareError;

use super::TrustedStore;

impl TrustedStore {
    // ---------------------------------------------- dedup refcount index

    /// Loads the dedup refcount index (blob HMAC-name → number of
    /// content files whose indirection references it). Absent means
    /// empty — stores predating the index simply never collect their
    /// orphan blobs.
    fn dedup_index_load(&self) -> Result<HashMap<String, u64>, SegShareError> {
        let Some(body) = self.read(&ObjectId::DedupIndex)? else {
            return Ok(HashMap::new());
        };
        let mut d = Decoder::new(&body);
        d.tag(b"DIX1")?;
        let count = d.u32()?;
        let mut index = HashMap::with_capacity(count as usize);
        for _ in 0..count {
            let name = d.str()?.to_string();
            let refs = d.u64()?;
            index.insert(name, refs);
        }
        d.finish()?;
        Ok(index)
    }

    fn dedup_index_save(&self, index: &HashMap<String, u64>) -> Result<(), SegShareError> {
        let mut e = Encoder::new();
        e.tag(b"DIX1");
        e.u32(index.len() as u32);
        let mut names: Vec<&String> = index.keys().collect();
        names.sort();
        for name in names {
            e.str(name);
            e.u64(index[name]);
        }
        self.write(&ObjectId::DedupIndex, &e.finish())
    }

    /// Adjusts dedup blob reference counts in one atomic index update:
    /// `inc` gains a reference, `dec` loses one. Counts saturate at
    /// zero — a decrement for a name the index never tracked (uploads
    /// predating the index) is a no-op, never a collection trigger.
    pub(crate) fn dedup_ref_update(
        &self,
        inc: Option<&str>,
        dec: Option<&str>,
    ) -> Result<(), SegShareError> {
        if inc.is_none() && dec.is_none() {
            return Ok(());
        }
        let _lock = self.dedup_index.lock();
        let mut index = self.dedup_index_load()?;
        if let Some(name) = inc {
            *index.entry(name.to_string()).or_insert(0) += 1;
        }
        if let Some(name) = dec {
            if let Some(refs) = index.get_mut(name) {
                *refs = refs.saturating_sub(1);
            }
        }
        self.dedup_index_save(&index)
    }

    /// Collects dedup blobs whose reference count reached zero,
    /// deleting both the blob and its index entry. The caller holds the
    /// global dispatch lock, so no upload can re-reference a blob
    /// mid-collection; the index mutex additionally serializes against
    /// direct white-box callers. Returns the number of blobs reclaimed.
    pub(crate) fn blob_gc(&self) -> Result<u64, SegShareError> {
        let _lock = self.dedup_index.lock();
        let mut index = self.dedup_index_load()?;
        let dead: Vec<String> = index
            .iter()
            .filter(|&(_, &refs)| refs == 0)
            .map(|(name, _)| name.clone())
            .collect();
        if dead.is_empty() {
            return Ok(0);
        }
        let mut reclaimed = 0u64;
        for name in dead {
            self.delete(&ObjectId::DedupBlob(name.clone()))?;
            index.remove(&name);
            reclaimed += 1;
        }
        self.dedup_index_save(&index)?;
        Ok(reclaimed)
    }
}
