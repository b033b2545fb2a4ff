//! Blocking convenience wrapper: a [`TlsChannel`] bound to a transport.
//!
//! The *client* side owns both halves (user applications have no
//! trusted/untrusted split). The server host instead pumps frames
//! between its transport and the enclave's sans-I/O state machines.

use seg_crypto::ed25519::{PublicKey, SecretKey};
use seg_crypto::rng::SecureRandom;
use seg_net::FrameTransport;
use seg_pki::Certificate;
use seg_tls::{ClientHandshake, TlsChannel, RECORD_OVERHEAD};

use crate::error::SegShareError;

/// An established secure connection over a frame transport.
pub struct SecureStream<T: FrameTransport> {
    transport: T,
    channel: TlsChannel,
    peer_certificate: Certificate,
}

impl<T: FrameTransport> std::fmt::Debug for SecureStream<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureStream")
            .field("channel", &self.channel)
            .finish()
    }
}

impl<T: FrameTransport> SecureStream<T> {
    /// Performs the client side of the handshake over `transport`.
    ///
    /// # Errors
    ///
    /// Returns the handshake's [`SegShareError::Tls`] or the transport's
    /// [`SegShareError::Net`].
    pub fn connect<R: SecureRandom>(
        mut transport: T,
        certificate: Certificate,
        key: SecretKey,
        ca_key: PublicKey,
        now: u64,
        rng: &mut R,
    ) -> Result<SecureStream<T>, SegShareError> {
        let (mut hs, first) = ClientHandshake::start(certificate, key, ca_key, now, rng);
        transport.send_frame(&first)?;
        loop {
            let frame = transport.recv_frame()?;
            let step = hs.process(&frame)?;
            for reply in &step.replies {
                transport.send_frame(reply)?;
            }
            if step.done {
                break;
            }
        }
        let (channel, peer_certificate) = hs.into_established().expect("handshake reported done");
        Ok(SecureStream {
            transport,
            channel,
            peer_certificate,
        })
    }

    /// The peer's validated certificate.
    #[must_use]
    pub fn peer_certificate(&self) -> &Certificate {
        &self.peer_certificate
    }

    /// Encrypts and sends one message.
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Net`] on transport failure.
    pub fn send(&mut self, plaintext: &[u8]) -> Result<(), SegShareError> {
        let mut buf = record_buffer(plaintext.len());
        buf.extend_from_slice(plaintext);
        self.send_owned(buf)
    }

    /// Encrypts one message in its own buffer and sends it. A buffer
    /// with [`RECORD_OVERHEAD`] spare bytes takes the tag without
    /// reallocating.
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Net`] on transport failure.
    pub fn send_owned(&mut self, plaintext: Vec<u8>) -> Result<(), SegShareError> {
        let record = self.channel.seal_owned(plaintext);
        self.transport.send_frame(&record)?;
        Ok(())
    }

    /// Encrypts several messages, each in its own buffer as
    /// [`SecureStream::send_owned`] does, and hands the records to the
    /// transport together ([`FrameTransport::send_frames`]: over TCP,
    /// one socket write).
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Net`] on transport failure.
    pub fn send_owned_all<const N: usize>(
        &mut self,
        messages: [Vec<u8>; N],
    ) -> Result<(), SegShareError> {
        let records = messages.map(|message| self.channel.seal_owned(message));
        let frames: [&[u8]; N] = std::array::from_fn(|i| records[i].as_slice());
        self.transport.send_frames(&frames)?;
        Ok(())
    }

    /// Receives one message, decrypted in the frame's own buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Net`] on transport failure and
    /// [`SegShareError::Tls`] for a record that fails authentication.
    pub fn recv(&mut self) -> Result<Vec<u8>, SegShareError> {
        let record = self.transport.recv_frame()?;
        Ok(self.channel.open_owned(record)?)
    }
}

/// An empty buffer for a message of `len` bytes, with room for the
/// record's tag, so that [`SecureStream::send_owned`] seals it where it
/// is.
#[must_use]
pub(crate) fn record_buffer(len: usize) -> Vec<u8> {
    Vec::with_capacity(len + RECORD_OVERHEAD)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seg_crypto::rng::DeterministicRng;
    use seg_pki::{CertificateAuthority, Csr, Identity};
    use seg_tls::ServerHandshake;

    #[test]
    fn stream_over_duplex_with_threaded_server() {
        let mut rng = DeterministicRng::seeded(11);
        let ca = CertificateAuthority::new("ca", &mut rng);
        let (client_cert, client_key) = ca.issue_user(
            Identity::user("bob", "b@example.com", "Bob").unwrap(),
            0,
            1000,
            &mut rng,
        );
        let server_key = SecretKey::generate(&mut rng);
        let csr = Csr::new(Identity::server("s"), &server_key);
        let server_cert = ca.issue_server_from_csr(&csr, 0, 1000).unwrap();
        let ca_key = ca.public_key();

        let (client_t, mut server_t) = seg_net::duplex();

        let server_cert2 = server_cert.clone();
        let server = std::thread::spawn(move || {
            let mut srng = DeterministicRng::seeded(12);
            let mut hs = ServerHandshake::new(
                std::sync::Arc::new(server_cert2),
                server_key,
                ca_key,
                500,
                &mut srng,
            );
            let (channel, client_cert) = loop {
                let frame = server_t.recv_frame().unwrap();
                let step = hs.process(&frame, &mut srng).unwrap();
                for reply in &step.replies {
                    server_t.send_frame(reply).unwrap();
                }
                if step.done {
                    break hs.into_established().unwrap();
                }
            };
            let mut stream = SecureStream {
                transport: server_t,
                channel,
                peer_certificate: client_cert,
            };
            // Echo until close.
            while let Ok(msg) = stream.recv() {
                stream.send(&msg).unwrap();
            }
        });

        let mut crng = DeterministicRng::seeded(13);
        let mut stream =
            SecureStream::connect(client_t, client_cert, client_key, ca_key, 500, &mut crng)
                .unwrap();
        assert!(matches!(
            stream.peer_certificate().subject(),
            Identity::Server { .. }
        ));
        for size in [0usize, 1, 1000, 100_000] {
            let msg: Vec<u8> = (0..size).map(|i| (i % 256) as u8).collect();
            stream.send(&msg).unwrap();
            assert_eq!(stream.recv().unwrap(), msg);
        }
        drop(stream);
        server.join().unwrap();
    }
}
