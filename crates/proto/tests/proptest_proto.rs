//! Property-based tests for the borrowed Data codec: it writes exactly
//! what `Request::encode` / `Response::encode` write for a `Data`
//! message, and on hostile bytes it agrees with the full decoders and
//! never panics.

use proptest::prelude::*;
use seg_proto::{data_payload, put_data_header, Request, Response, DATA_HEADER_LEN};

/// The view's verdict is the decoders' verdict: a payload exactly when
/// both decode `Data`, and the same payload.
fn agrees_with_decoders(bytes: &[u8]) -> Result<(), TestCaseError> {
    let request = match Request::decode(bytes) {
        Ok(Request::Data { bytes }) => Some(bytes),
        _ => None,
    };
    let response = match Response::decode(bytes) {
        Ok(Response::Data { bytes }) => Some(bytes),
        _ => None,
    };
    prop_assert_eq!(data_payload(bytes).map(<[u8]>::to_vec), request.clone());
    prop_assert_eq!(request, response);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_header_and_payload_are_the_encoders_bytes(
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let mut buf = Vec::new();
        put_data_header(&mut buf, payload.len());
        prop_assert_eq!(buf.len(), DATA_HEADER_LEN);
        buf.extend_from_slice(&payload);
        prop_assert_eq!(&buf, &Request::Data { bytes: payload.clone() }.encode());
        prop_assert_eq!(&buf, &Response::Data { bytes: payload.clone() }.encode());
        prop_assert_eq!(data_payload(&buf), Some(&payload[..]));
    }

    #[test]
    fn arbitrary_bytes_get_the_decoders_verdict(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        agrees_with_decoders(&bytes)?;
    }

    /// Near misses: a Data header (or another kind byte) whose length
    /// field is off by a little, cut short or run on, and every prefix
    /// of it.
    #[test]
    fn near_misses_and_truncations_get_the_decoders_verdict(
        payload in proptest::collection::vec(any::<u8>(), 0..300),
        kind in prop_oneof![Just(2u8), any::<u8>()],
        delta in -3i64..4,
        extra in proptest::collection::vec(any::<u8>(), 0..3),
    ) {
        let len = (payload.len() as i64 + delta).clamp(0, u32::MAX as i64) as u32;
        let mut bytes = vec![kind];
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&extra);
        for cut in 0..=bytes.len() {
            agrees_with_decoders(&bytes[..cut])?;
        }
    }

    /// Every other request and response is `None` to the view.
    #[test]
    fn other_messages_are_not_data(path in "[a-z/]{0,40}", size in any::<u64>()) {
        for bytes in [
            Request::PutFile { path: path.clone(), size }.encode(),
            Request::Get { path: path.clone() }.encode(),
            Response::FileStart { size }.encode(),
            Response::Ok.encode(),
        ] {
            prop_assert_eq!(data_payload(&bytes), None);
            agrees_with_decoders(&bytes)?;
        }
    }
}
