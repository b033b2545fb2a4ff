//! Enclave lifecycle, measurements, and sealing.

use seg_crypto::hkdf;
use seg_crypto::pae::{pae_dec, pae_enc, PaeKey};
use seg_crypto::rng::SystemRng;
use seg_crypto::sha256::Sha256;

use crate::attestation::Quote;
use crate::boundary::{Boundary, CostModel};
use crate::counter::CounterHandle;
use crate::epc::EpcTracker;
use crate::platform::{Platform, DEFAULT_PRM_BYTES};
use crate::SgxError;

/// An enclave measurement (MRENCLAVE): SHA-256 over the initial code and
/// data.
pub type Measurement = [u8; 32];

/// The initial code and data loaded into an enclave; its hash is the
/// enclave's identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnclaveImage {
    code: Vec<u8>,
}

impl EnclaveImage {
    /// Builds an image from raw code bytes.
    #[must_use]
    pub fn from_code(code: &[u8]) -> EnclaveImage {
        EnclaveImage {
            code: code.to_vec(),
        }
    }

    /// The image's measurement.
    #[must_use]
    pub fn measurement(&self) -> Measurement {
        let mut h = Sha256::new();
        h.update(b"sgx-sim-measurement-v1\0");
        h.update(&self.code);
        h.finalize()
    }
}

/// A running enclave on a [`Platform`].
///
/// Created via [`Platform::launch`]. Enclaves are *stateless across
/// restarts* (§II-A): relaunching the same image yields a new instance
/// whose only link to the past is sealed data and monotonic counters.
pub struct Enclave {
    platform: Platform,
    measurement: Measurement,
    boundary: Boundary,
    epc: EpcTracker,
}

impl std::fmt::Debug for Enclave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Enclave({:02x}{:02x}.. on {:?})",
            self.measurement[0], self.measurement[1], self.platform
        )
    }
}

impl Enclave {
    pub(crate) fn launch(platform: Platform, image: &EnclaveImage) -> Enclave {
        Enclave {
            platform,
            measurement: image.measurement(),
            boundary: Boundary::new(CostModel::default()),
            epc: EpcTracker::new(DEFAULT_PRM_BYTES, CostModel::default()),
        }
    }

    /// This enclave's measurement (MRENCLAVE).
    #[must_use]
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// The platform this enclave runs on.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Boundary-crossing accounting for this enclave.
    #[must_use]
    pub fn boundary(&self) -> &Boundary {
        &self.boundary
    }

    /// EPC (enclave memory) accounting for this enclave.
    #[must_use]
    pub fn epc(&self) -> &EpcTracker {
        &self.epc
    }

    /// The MRENCLAVE-policy sealing key: derived from the platform's
    /// fused master secret and this enclave's measurement, so it is
    /// identical across restarts of the *same* enclave on the *same*
    /// platform and unobtainable anywhere else.
    #[must_use]
    pub fn sealing_key(&self) -> [u8; 16] {
        hkdf::derive_key_128(
            &self.platform.inner.master_seal_key,
            "sgx-seal-mrenclave",
            &self.measurement,
        )
    }

    /// Seals `data` so only this enclave (identity) on this platform can
    /// recover it (§II-A "Data Sealing").
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; the `Result` mirrors the SDK API.
    pub fn seal(&self, data: &[u8]) -> Result<Vec<u8>, SgxError> {
        let key = PaeKey::from_bytes(&self.sealing_key());
        let mut blob = Vec::with_capacity(32 + data.len() + 28);
        blob.extend_from_slice(&self.measurement);
        blob.extend_from_slice(&pae_enc(
            &key,
            data,
            &self.measurement,
            &mut SystemRng::new(),
        ));
        Ok(blob)
    }

    /// Unseals a blob produced by [`Enclave::seal`].
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::UnsealFailed`] if the blob was sealed by a
    /// different enclave identity, on a different platform, or was
    /// tampered with.
    pub fn unseal(&self, blob: &[u8]) -> Result<Vec<u8>, SgxError> {
        if blob.len() < 32 || blob[..32] != self.measurement {
            return Err(SgxError::UnsealFailed);
        }
        let key = PaeKey::from_bytes(&self.sealing_key());
        pae_dec(&key, &blob[32..], &self.measurement).map_err(|_| SgxError::UnsealFailed)
    }

    /// Produces an attestation quote over `report_data` (up to 64 bytes),
    /// signed by the platform's attestation key (§II-A "Attestation").
    ///
    /// # Panics
    ///
    /// Panics if `report_data` exceeds 64 bytes.
    #[must_use]
    pub fn quote(&self, report_data: &[u8]) -> Quote {
        Quote::issue(&self.platform, self.measurement, report_data)
    }

    /// Opens (creating on first use) the monotonic counter `id`, scoped
    /// to this enclave's measurement on this platform (§V-E).
    #[must_use]
    pub fn counter(&self, id: u64) -> CounterHandle {
        CounterHandle::new(self.platform.clone(), self.measurement, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform() -> Platform {
        Platform::new_with_seed(42)
    }

    #[test]
    fn measurement_is_stable_and_code_sensitive() {
        let a = EnclaveImage::from_code(b"code v1");
        let b = EnclaveImage::from_code(b"code v1");
        let c = EnclaveImage::from_code(b"code v2");
        assert_eq!(a.measurement(), b.measurement());
        assert_ne!(a.measurement(), c.measurement());
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let e = platform().launch(&EnclaveImage::from_code(b"segshare"));
        let sealed = e.seal(b"secret root key").unwrap();
        assert_eq!(e.unseal(&sealed).unwrap(), b"secret root key");
    }

    #[test]
    fn sealing_survives_enclave_restart() {
        let p = platform();
        let image = EnclaveImage::from_code(b"segshare");
        let sealed = p.launch(&image).seal(b"persistent state").unwrap();
        // "Restart": a brand-new enclave instance from the same image.
        let restarted = p.launch(&image);
        assert_eq!(restarted.unseal(&sealed).unwrap(), b"persistent state");
    }

    #[test]
    fn different_enclave_cannot_unseal() {
        let p = platform();
        let sealed = p
            .launch(&EnclaveImage::from_code(b"good"))
            .seal(b"secret")
            .unwrap();
        let evil = p.launch(&EnclaveImage::from_code(b"evil"));
        assert_eq!(evil.unseal(&sealed).unwrap_err(), SgxError::UnsealFailed);
    }

    #[test]
    fn different_platform_cannot_unseal() {
        let image = EnclaveImage::from_code(b"segshare");
        let sealed = Platform::new_with_seed(1)
            .launch(&image)
            .seal(b"secret")
            .unwrap();
        let other = Platform::new_with_seed(2).launch(&image);
        assert_eq!(other.unseal(&sealed).unwrap_err(), SgxError::UnsealFailed);
    }

    #[test]
    fn tampered_sealed_blob_rejected() {
        let e = platform().launch(&EnclaveImage::from_code(b"segshare"));
        let sealed = e.seal(b"secret").unwrap();
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 1;
            assert!(e.unseal(&bad).is_err(), "flip at byte {i}");
        }
        assert!(e.unseal(&[]).is_err());
        assert!(e.unseal(&sealed[..31]).is_err());
    }

    #[test]
    fn sealing_is_probabilistic_but_stable_key() {
        let e = platform().launch(&EnclaveImage::from_code(b"segshare"));
        let s1 = e.seal(b"x").unwrap();
        let s2 = e.seal(b"x").unwrap();
        assert_ne!(s1, s2, "sealing uses fresh IVs");
        assert_eq!(e.sealing_key(), e.sealing_key());
    }
}
