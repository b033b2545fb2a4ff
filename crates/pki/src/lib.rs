//! Certificate authority and certificates for SeGShare's setup phase.
//!
//! §III-A/§IV-A: "The FSO has an authentication service, which provides
//! an authentication token with identity information to all users.
//! W.l.o.g., we use a certificate authority (CA) as authentication
//! service and certificates as authentication tokens." The CA's public
//! key is hard-coded into the enclave; users trust the CA's key; during
//! setup the CA remote-attests the enclave, receives a CSR for a
//! temporary key pair generated *inside* the enclave, and returns a
//! signed server certificate.
//!
//! This crate provides the certificate format, the CSR flow, and the CA.
//! Certificates are Ed25519-signed over a deterministic binary encoding
//! (no X.509 — the paper's trust argument only needs identity binding
//! and CA signatures, not ASN.1).
//!
//! # Example
//!
//! ```
//! use seg_pki::{CertificateAuthority, Identity};
//! use seg_crypto::rng::DeterministicRng;
//!
//! # fn main() -> Result<(), seg_pki::PkiError> {
//! let mut rng = DeterministicRng::seeded(1);
//! let ca = CertificateAuthority::new("corp-ca", &mut rng);
//! let (cert, key) = ca.issue_user(
//!     Identity::user("alice", "alice@corp.example", "Alice Liddell")?,
//!     1_000, // not_before (unix seconds)
//!     2_000, // not_after
//!     &mut rng,
//! );
//! cert.validate(&ca.public_key(), 1_500)?;
//! assert!(cert.validate(&ca.public_key(), 3_000).is_err()); // expired
//! # let _ = key;
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;

use seg_crypto::ed25519::{PublicKey, SecretKey, Signature};
use seg_crypto::rng::SecureRandom;
use seg_fs::codec::{Decoder, Encoder};
use seg_fs::UserId;

/// Errors from certificate issuance and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PkiError {
    /// The certificate (or CSR) signature did not verify.
    BadSignature,
    /// The certificate is outside its validity window.
    Expired,
    /// A field was malformed.
    Malformed(String),
    /// An identity field was invalid.
    InvalidIdentity(String),
}

impl fmt::Display for PkiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PkiError::BadSignature => f.write_str("signature verification failed"),
            PkiError::Expired => f.write_str("certificate outside validity window"),
            PkiError::Malformed(msg) => write!(f, "malformed certificate: {msg}"),
            PkiError::InvalidIdentity(msg) => write!(f, "invalid identity: {msg}"),
        }
    }
}

impl Error for PkiError {}

/// The subject of a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Identity {
    /// An end user: id, mail address, full name (§IV-A: "identity
    /// information, e.g., a user ID, a mail address, and/or a full
    /// name").
    User {
        /// The stable user id used for authorization.
        user_id: UserId,
        /// Mail address.
        email: String,
        /// Display name.
        full_name: String,
    },
    /// A SeGShare server enclave.
    Server {
        /// Host name or deployment label.
        name: String,
    },
}

impl Identity {
    /// Builds a user identity.
    ///
    /// # Errors
    ///
    /// Returns [`PkiError::InvalidIdentity`] for malformed user ids.
    pub fn user(user_id: &str, email: &str, full_name: &str) -> Result<Identity, PkiError> {
        Ok(Identity::User {
            user_id: UserId::new(user_id).map_err(|e| PkiError::InvalidIdentity(e.to_string()))?,
            email: email.to_string(),
            full_name: full_name.to_string(),
        })
    }

    /// Builds a server identity.
    #[must_use]
    pub fn server(name: &str) -> Identity {
        Identity::Server {
            name: name.to_string(),
        }
    }

    /// The user id if this is a user identity.
    #[must_use]
    pub fn user_id(&self) -> Option<&UserId> {
        match self {
            Identity::User { user_id, .. } => Some(user_id),
            Identity::Server { .. } => None,
        }
    }

    fn encode_into(&self, e: &mut Encoder) {
        match self {
            Identity::User {
                user_id,
                email,
                full_name,
            } => {
                e.u8(0);
                e.str(user_id.as_str());
                e.str(email);
                e.str(full_name);
            }
            Identity::Server { name } => {
                e.u8(1);
                e.str(name);
            }
        }
    }

    fn decode_from(d: &mut Decoder<'_>) -> Result<Identity, PkiError> {
        match d.u8().map_err(codec_err)? {
            0 => {
                let user_id = UserId::new(d.str().map_err(codec_err)?)
                    .map_err(|e| PkiError::Malformed(e.to_string()))?;
                let email = d.str().map_err(codec_err)?;
                let full_name = d.str().map_err(codec_err)?;
                Ok(Identity::User {
                    user_id,
                    email,
                    full_name,
                })
            }
            1 => Ok(Identity::Server {
                name: d.str().map_err(codec_err)?,
            }),
            other => Err(PkiError::Malformed(format!(
                "unknown identity kind {other}"
            ))),
        }
    }
}

fn codec_err(e: seg_fs::FsError) -> PkiError {
    PkiError::Malformed(e.to_string())
}

/// A signed certificate binding an [`Identity`] to an Ed25519 public key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    subject: Identity,
    public_key: PublicKey,
    issuer: String,
    serial: u64,
    not_before: u64,
    not_after: u64,
    signature: Signature,
}

impl Certificate {
    /// The certified subject.
    #[must_use]
    pub fn subject(&self) -> &Identity {
        &self.subject
    }

    /// The certified public key.
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        self.public_key
    }

    /// The issuing CA's name.
    #[must_use]
    pub fn issuer(&self) -> &str {
        &self.issuer
    }

    /// Serial number (unique per CA).
    #[must_use]
    pub fn serial(&self) -> u64 {
        self.serial
    }

    /// Validity window start (unix seconds, inclusive).
    #[must_use]
    pub fn not_before(&self) -> u64 {
        self.not_before
    }

    /// Validity window end (unix seconds, exclusive).
    #[must_use]
    pub fn not_after(&self) -> u64 {
        self.not_after
    }

    fn tbs(&self) -> Vec<u8> {
        Self::tbs_bytes(
            &self.subject,
            &self.public_key,
            &self.issuer,
            self.serial,
            self.not_before,
            self.not_after,
        )
    }

    fn tbs_bytes(
        subject: &Identity,
        public_key: &PublicKey,
        issuer: &str,
        serial: u64,
        not_before: u64,
        not_after: u64,
    ) -> Vec<u8> {
        let mut e = Encoder::new();
        e.tag(b"CRT1");
        subject.encode_into(&mut e);
        e.raw(&public_key.to_bytes());
        e.str(issuer);
        e.u64(serial);
        e.u64(not_before);
        e.u64(not_after);
        e.finish()
    }

    /// Verifies the CA signature and validity window.
    ///
    /// # Errors
    ///
    /// Returns [`PkiError::BadSignature`] or [`PkiError::Expired`].
    pub fn validate(&self, ca_key: &PublicKey, now: u64) -> Result<(), PkiError> {
        ca_key
            .verify(&self.tbs(), &self.signature)
            .map_err(|_| PkiError::BadSignature)?;
        if now < self.not_before || now >= self.not_after {
            return Err(PkiError::Expired);
        }
        Ok(())
    }

    /// Serializes the certificate (including signature) for the wire.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.bytes(&self.tbs());
        e.raw(&self.signature.to_bytes());
        e.finish()
    }

    /// Parses a [`Certificate::encode`] payload.
    ///
    /// # Errors
    ///
    /// Returns [`PkiError::Malformed`] on any structural problem.
    pub fn decode(data: &[u8]) -> Result<Certificate, PkiError> {
        let mut outer = Decoder::new(data);
        let tbs = outer.bytes().map_err(codec_err)?;
        let sig_bytes = outer.raw(64).map_err(codec_err)?;
        outer.finish().map_err(codec_err)?;
        let signature = Signature::from_slice(sig_bytes)
            .map_err(|_| PkiError::Malformed("bad signature length".to_string()))?;

        let mut d = Decoder::new(&tbs);
        d.tag(b"CRT1").map_err(codec_err)?;
        let subject = Identity::decode_from(&mut d)?;
        let pk_bytes = d.raw(32).map_err(codec_err)?;
        let public_key = PublicKey::from_slice(pk_bytes)
            .map_err(|_| PkiError::Malformed("bad public key encoding".to_string()))?;
        let issuer = d.str().map_err(codec_err)?;
        let serial = d.u64().map_err(codec_err)?;
        let not_before = d.u64().map_err(codec_err)?;
        let not_after = d.u64().map_err(codec_err)?;
        d.finish().map_err(codec_err)?;
        Ok(Certificate {
            subject,
            public_key,
            issuer,
            serial,
            not_before,
            not_after,
            signature,
        })
    }
}

/// A certificate signing request: a subject and public key, signed by the
/// corresponding secret key (proof of possession). The enclave sends one
/// of these to the CA during setup (§IV-A message 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    subject: Identity,
    public_key: PublicKey,
    signature: Signature,
}

impl Csr {
    /// Creates a CSR, self-signed with `key`.
    #[must_use]
    pub fn new(subject: Identity, key: &SecretKey) -> Csr {
        let public_key = key.public_key();
        let signature = key.sign(&Self::tbs_bytes(&subject, &public_key));
        Csr {
            subject,
            public_key,
            signature,
        }
    }

    fn tbs_bytes(subject: &Identity, public_key: &PublicKey) -> Vec<u8> {
        let mut e = Encoder::new();
        e.tag(b"CSR1");
        subject.encode_into(&mut e);
        e.raw(&public_key.to_bytes());
        e.finish()
    }

    /// The requested subject.
    #[must_use]
    pub fn subject(&self) -> &Identity {
        &self.subject
    }

    /// The key being certified.
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        self.public_key
    }

    /// Verifies the proof-of-possession signature.
    ///
    /// # Errors
    ///
    /// Returns [`PkiError::BadSignature`] if invalid.
    pub fn verify(&self) -> Result<(), PkiError> {
        self.public_key
            .verify(
                &Self::tbs_bytes(&self.subject, &self.public_key),
                &self.signature,
            )
            .map_err(|_| PkiError::BadSignature)
    }

    /// Serializes the CSR.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        let mut inner = Encoder::new();
        inner.tag(b"CSR1");
        self.subject.encode_into(&mut inner);
        inner.raw(&self.public_key.to_bytes());
        e.bytes(&inner.finish());
        e.raw(&self.signature.to_bytes());
        e.finish()
    }

    /// Parses a [`Csr::encode`] payload.
    ///
    /// # Errors
    ///
    /// Returns [`PkiError::Malformed`] on any structural problem.
    pub fn decode(data: &[u8]) -> Result<Csr, PkiError> {
        let mut outer = Decoder::new(data);
        let tbs = outer.bytes().map_err(codec_err)?;
        let sig_bytes = outer.raw(64).map_err(codec_err)?;
        outer.finish().map_err(codec_err)?;
        let signature = Signature::from_slice(sig_bytes)
            .map_err(|_| PkiError::Malformed("bad signature length".to_string()))?;
        let mut d = Decoder::new(&tbs);
        d.tag(b"CSR1").map_err(codec_err)?;
        let subject = Identity::decode_from(&mut d)?;
        let pk_bytes = d.raw(32).map_err(codec_err)?;
        let public_key = PublicKey::from_slice(pk_bytes)
            .map_err(|_| PkiError::Malformed("bad public key encoding".to_string()))?;
        d.finish().map_err(codec_err)?;
        Ok(Csr {
            subject,
            public_key,
            signature,
        })
    }
}

/// The file-system owner's certificate authority.
pub struct CertificateAuthority {
    name: String,
    key: SecretKey,
    next_serial: std::sync::atomic::AtomicU64,
}

impl fmt::Debug for CertificateAuthority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CertificateAuthority({:?})", self.name)
    }
}

impl CertificateAuthority {
    /// Creates a CA with a fresh key pair.
    #[must_use]
    pub fn new<R: SecureRandom>(name: &str, rng: &mut R) -> CertificateAuthority {
        CertificateAuthority {
            name: name.to_string(),
            key: SecretKey::generate(rng),
            next_serial: std::sync::atomic::AtomicU64::new(1),
        }
    }

    /// The CA's verification key — the key hard-coded into the enclave
    /// and distributed to all users.
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        self.key.public_key()
    }

    /// The CA's name (appears as certificate issuer).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Signs an arbitrary administrative message with the CA key
    /// (SeGShare's backup-reset message, §V-G, is one).
    #[must_use]
    pub fn sign_message(&self, message: &[u8]) -> Signature {
        self.key.sign(message)
    }

    fn sign(
        &self,
        subject: Identity,
        public_key: PublicKey,
        not_before: u64,
        not_after: u64,
    ) -> Certificate {
        let serial = self
            .next_serial
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tbs = Certificate::tbs_bytes(
            &subject,
            &public_key,
            &self.name,
            serial,
            not_before,
            not_after,
        );
        Certificate {
            signature: self.key.sign(&tbs),
            subject,
            public_key,
            issuer: self.name.clone(),
            serial,
            not_before,
            not_after,
        }
    }

    /// Issues a user certificate and the matching secret key ("the CA
    /// validates u's identity and provides a client certificate", §IV-A).
    #[must_use]
    pub fn issue_user<R: SecureRandom>(
        &self,
        identity: Identity,
        not_before: u64,
        not_after: u64,
        rng: &mut R,
    ) -> (Certificate, SecretKey) {
        let key = SecretKey::generate(rng);
        let cert = self.sign(identity, key.public_key(), not_before, not_after);
        (cert, key)
    }

    /// Signs a server certificate for a CSR whose proof-of-possession
    /// verifies (§IV-A message 3). The caller is responsible for having
    /// attested the enclave that produced the CSR first.
    ///
    /// # Errors
    ///
    /// Returns [`PkiError::BadSignature`] if the CSR does not verify, or
    /// [`PkiError::Malformed`] if it requests a user identity.
    pub fn issue_server_from_csr(
        &self,
        csr: &Csr,
        not_before: u64,
        not_after: u64,
    ) -> Result<Certificate, PkiError> {
        csr.verify()?;
        if csr.subject().user_id().is_some() {
            return Err(PkiError::Malformed(
                "server certificates cannot carry user identities".to_string(),
            ));
        }
        Ok(self.sign(
            csr.subject().clone(),
            csr.public_key(),
            not_before,
            not_after,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seg_crypto::rng::DeterministicRng;

    fn rng() -> DeterministicRng {
        DeterministicRng::seeded(77)
    }

    fn alice() -> Identity {
        Identity::user("alice", "alice@example.com", "Alice").unwrap()
    }

    #[test]
    fn user_certificate_lifecycle() {
        let mut rng = rng();
        let ca = CertificateAuthority::new("test-ca", &mut rng);
        let (cert, _key) = ca.issue_user(alice(), 100, 200, &mut rng);
        cert.validate(&ca.public_key(), 150).unwrap();
        assert_eq!(
            cert.validate(&ca.public_key(), 99).unwrap_err(),
            PkiError::Expired
        );
        assert_eq!(
            cert.validate(&ca.public_key(), 200).unwrap_err(),
            PkiError::Expired
        );
        assert_eq!(cert.subject().user_id().unwrap().as_str(), "alice");
        assert_eq!(cert.issuer(), "test-ca");
    }

    #[test]
    fn wrong_ca_rejected() {
        let mut rng = rng();
        let ca1 = CertificateAuthority::new("ca1", &mut rng);
        let ca2 = CertificateAuthority::new("ca2", &mut rng);
        let (cert, _) = ca1.issue_user(alice(), 0, 1000, &mut rng);
        assert_eq!(
            cert.validate(&ca2.public_key(), 500).unwrap_err(),
            PkiError::BadSignature
        );
    }

    #[test]
    fn certificate_encode_decode_roundtrip() {
        let mut rng = rng();
        let ca = CertificateAuthority::new("ca", &mut rng);
        let (cert, _) = ca.issue_user(alice(), 0, 1000, &mut rng);
        let decoded = Certificate::decode(&cert.encode()).unwrap();
        assert_eq!(decoded, cert);
        decoded.validate(&ca.public_key(), 500).unwrap();
    }

    #[test]
    fn tampered_certificate_rejected() {
        let mut rng = rng();
        let ca = CertificateAuthority::new("ca", &mut rng);
        let (cert, _) = ca.issue_user(alice(), 0, 1000, &mut rng);
        let encoded = cert.encode();
        for i in 0..encoded.len() {
            let mut bad = encoded.clone();
            bad[i] ^= 1;
            match Certificate::decode(&bad) {
                Err(_) => {}
                Ok(c) => assert!(
                    c.validate(&ca.public_key(), 500).is_err(),
                    "bit flip at byte {i} accepted"
                ),
            }
        }
    }

    #[test]
    fn csr_flow() {
        let mut rng = rng();
        let ca = CertificateAuthority::new("ca", &mut rng);
        let enclave_key = SecretKey::generate(&mut rng);
        let csr = Csr::new(Identity::server("segshare-1"), &enclave_key);
        csr.verify().unwrap();
        let roundtripped = Csr::decode(&csr.encode()).unwrap();
        assert_eq!(roundtripped, csr);
        let cert = ca.issue_server_from_csr(&csr, 0, 1000).unwrap();
        cert.validate(&ca.public_key(), 10).unwrap();
        assert_eq!(cert.public_key(), enclave_key.public_key());
        assert!(cert.subject().user_id().is_none());
    }

    #[test]
    fn csr_with_user_identity_rejected_for_server_cert() {
        let mut rng = rng();
        let ca = CertificateAuthority::new("ca", &mut rng);
        let key = SecretKey::generate(&mut rng);
        let csr = Csr::new(alice(), &key);
        assert!(matches!(
            ca.issue_server_from_csr(&csr, 0, 1000),
            Err(PkiError::Malformed(_))
        ));
    }

    #[test]
    fn csr_proof_of_possession_enforced() {
        let mut rng = rng();
        let key1 = SecretKey::generate(&mut rng);
        let key2 = SecretKey::generate(&mut rng);
        let mut csr = Csr::new(Identity::server("s"), &key1);
        // Swap in a different key: possession proof must fail.
        csr.public_key = key2.public_key();
        assert_eq!(csr.verify().unwrap_err(), PkiError::BadSignature);
    }

    #[test]
    fn serials_are_unique() {
        let mut rng = rng();
        let ca = CertificateAuthority::new("ca", &mut rng);
        let (c1, _) = ca.issue_user(alice(), 0, 10, &mut rng);
        let (c2, _) = ca.issue_user(alice(), 0, 10, &mut rng);
        assert_ne!(c1.serial(), c2.serial());
    }

    /// Certificates arrive inside the handshake from unauthenticated
    /// peers, CSRs from the enclave host: whatever the bytes, each
    /// decoder returns an error or a value that re-encodes to exactly
    /// those bytes — never a panic.
    mod hostile_bytes {
        use super::*;
        use proptest::prelude::*;

        /// A user and a server certificate, and a CSR.
        fn encodings() -> [Vec<u8>; 3] {
            let mut rng = rng();
            let ca = CertificateAuthority::new("ca", &mut rng);
            let key = SecretKey::generate(&mut rng);
            let csr = Csr::new(Identity::server("segshare-1"), &key);
            let server = ca.issue_server_from_csr(&csr, 0, 1000).unwrap();
            [
                ca.issue_user(alice(), 0, 1000, &mut rng).0.encode(),
                server.encode(),
                csr.encode(),
            ]
        }

        fn decode_both(bytes: &[u8]) {
            if let Ok(cert) = Certificate::decode(bytes) {
                assert_eq!(cert.encode(), bytes);
            }
            if let Ok(csr) = Csr::decode(bytes) {
                assert_eq!(csr.encode(), bytes);
            }
        }

        #[test]
        fn every_truncation_is_refused() {
            for encoded in encodings() {
                for cut in 0..encoded.len() {
                    decode_both(&encoded[..cut]);
                    assert!(
                        Certificate::decode(&encoded[..cut]).is_err()
                            && Csr::decode(&encoded[..cut]).is_err(),
                        "cut {cut} of {}",
                        encoded.len()
                    );
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn decoders_survive_arbitrary_bytes(
                tbs in proptest::collection::vec(any::<u8>(), 0..300),
                tag in 0usize..3,
                tail in proptest::collection::vec(any::<u8>(), 0..80),
            ) {
                // Noise, and noise framed as the outer length-prefixed
                // body behind a real tag, so the inner fields are reached.
                decode_both(&tbs);
                let mut inner = [&b"CRT1"[..], b"CSR1", b""][tag].to_vec();
                inner.extend_from_slice(&tbs);
                let mut e = Encoder::new();
                e.bytes(&inner);
                e.raw(&tail);
                decode_both(&e.finish());
            }

            #[test]
            fn decoders_survive_bit_flips(
                which in 0usize..3,
                flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..4),
            ) {
                let mut bytes = encodings()[which].clone();
                let len = bytes.len();
                for (at, bit) in flips {
                    bytes[at % len] ^= 1 << bit;
                }
                decode_both(&bytes);
            }
        }
    }
}
