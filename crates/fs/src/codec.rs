//! Minimal binary codec for the encrypted management files.
//!
//! Hand-rolled (rather than a serialization crate) because the format
//! must be deterministic — these bytes go under PAE and into Merkle
//! hashes — and because parsing happens *inside the enclave* on
//! attacker-influenced lengths, so every read is bounds-checked.

use crate::FsError;

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    #[must_use]
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Appends a fixed 4-byte tag.
    pub fn tag(&mut self, tag: &[u8; 4]) {
        self.buf.extend_from_slice(tag);
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends length-prefixed raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    /// Appends raw bytes without a length prefix (fixed-size fields).
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Finishes encoding.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked decoder.
#[derive(Debug)]
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Starts decoding `data`.
    #[must_use]
    pub fn new(data: &'a [u8]) -> Decoder<'a> {
        Decoder { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FsError> {
        if self.data.len() - self.pos < n {
            return Err(FsError::Codec(format!(
                "unexpected end of input (need {n} bytes at offset {})",
                self.pos
            )));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Bytes not yet consumed: the bound on any count field still to
    /// be read, for decoders that size an allocation from one.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Reads and checks a fixed 4-byte tag.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Codec`] on mismatch or truncation.
    pub fn tag(&mut self, expected: &[u8; 4]) -> Result<(), FsError> {
        let got = self.take(4)?;
        if got != expected {
            return Err(FsError::Codec(format!(
                "bad file tag: expected {expected:?}, got {got:?}"
            )));
        }
        Ok(())
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Codec`] on truncation.
    pub fn u8(&mut self) -> Result<u8, FsError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Codec`] on truncation.
    pub fn u32(&mut self) -> Result<u32, FsError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Codec`] on truncation.
    pub fn u64(&mut self) -> Result<u64, FsError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Codec`] on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<String, FsError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| FsError::Codec("string field is not utf-8".to_string()))
    }

    /// Reads length-prefixed raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Codec`] on truncation.
    pub fn bytes(&mut self) -> Result<Vec<u8>, FsError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Codec`] on truncation.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], FsError> {
        self.take(n)
    }

    /// Asserts that all input was consumed.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Codec`] if trailing bytes remain.
    pub fn finish(self) -> Result<(), FsError> {
        if self.pos != self.data.len() {
            return Err(FsError::Codec(format!(
                "{} trailing bytes after document",
                self.data.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_field_types() {
        let mut e = Encoder::new();
        e.tag(b"TEST");
        e.u8(7);
        e.u32(0xdead_beef);
        e.u64(0x0123_4567_89ab_cdef);
        e.str("héllo");
        e.bytes(&[1, 2, 3]);
        e.raw(&[9, 9]);
        let data = e.finish();

        let mut d = Decoder::new(&data);
        d.tag(b"TEST").unwrap();
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.remaining(), 2);
        assert_eq!(d.raw(2).unwrap(), &[9, 9]);
        assert_eq!(d.remaining(), 0);
        d.finish().unwrap();
    }

    #[test]
    fn truncation_detected_everywhere() {
        let mut e = Encoder::new();
        e.str("some string");
        let data = e.finish();
        for cut in 0..data.len() {
            let mut d = Decoder::new(&data[..cut]);
            assert!(d.str().is_err(), "cut at {cut} not detected");
        }
    }

    #[test]
    fn bad_tag_rejected() {
        let mut e = Encoder::new();
        e.tag(b"AAAA");
        let data = e.finish();
        let mut d = Decoder::new(&data);
        assert!(d.tag(b"BBBB").is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut e = Encoder::new();
        e.u8(1);
        let mut data = e.finish();
        data.push(0);
        let mut d = Decoder::new(&data);
        d.u8().unwrap();
        assert!(d.finish().is_err());
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        // A length prefix claiming 4 GiB must not panic or allocate.
        let mut data = Vec::new();
        data.extend_from_slice(&u32::MAX.to_le_bytes());
        data.extend_from_slice(b"short");
        let mut d = Decoder::new(&data);
        assert!(d.bytes().is_err());
        let mut d = Decoder::new(&data);
        assert!(d.str().is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut data = Vec::new();
        data.extend_from_slice(&2u32.to_le_bytes());
        data.extend_from_slice(&[0xff, 0xfe]);
        let mut d = Decoder::new(&data);
        assert!(matches!(d.str(), Err(FsError::Codec(_))));
    }
}
