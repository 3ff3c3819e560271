//! Property battery for the wire codec (ISSUE satellite: proptest
//! round-trip + fuzz).
//!
//! Two families:
//!
//! 1. **Round-trip**: arbitrary frames of every kind encode → decode →
//!    re-encode **bit-identically** (byte-level comparison, so NaN/inf
//!    value payloads are covered without touching float equality).
//! 2. **Totality**: the decoder never panics — not on arbitrary garbage,
//!    not on single-byte mutations of valid frames, not on truncations.
//!    Every outcome is `Ok` or a typed [`WireError`].
//!
//! Explicit edges ride along: the empty sparse vector and a max-k response
//! that nearly fills the payload cap.

use proptest::prelude::*;
use slide_net::wire::{
    decode_frame, frame_bytes, ErrorCode, Frame, PongInfo, PredictRequest, WireError,
    DEFAULT_MAX_PAYLOAD, HEADER_LEN,
};

/// Exercise a frame: encode, decode, re-encode, demand identical bytes.
fn assert_roundtrip_bits(frame: &Frame) {
    let bytes = frame_bytes(frame);
    let (decoded, consumed) =
        decode_frame(&bytes, DEFAULT_MAX_PAYLOAD).expect("valid frame must decode");
    assert_eq!(consumed, bytes.len(), "decode must consume the whole frame");
    assert_eq!(
        frame_bytes(&decoded),
        bytes,
        "re-encode must be bit-identical"
    );
}

/// Printable-ASCII strings (the codec requires UTF-8; content is free).
fn ascii_string(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(32u8..127, 0..max)
        .prop_map(|b| String::from_utf8(b).expect("ascii is utf8"))
}

fn error_code() -> impl Strategy<Value = ErrorCode> {
    (1u8..5).prop_map(|b| ErrorCode::from_u8(b).expect("1..5 are valid codes"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn predict_roundtrips_bit_identically(
        req_id in any::<u64>(),
        k in any::<u32>(),
        deadline_us in any::<u64>(),
        trace_id in any::<u64>(),
        pairs in prop::collection::vec((any::<u32>(), any::<u32>()), 0..64),
    ) {
        // Values straight from arbitrary bit patterns: NaN, inf, subnormals
        // all must survive the wire bit-for-bit, as must every deadline_us
        // and trace_id in u64 (0 = none is a value, not a layout).
        let (indices, values): (Vec<u32>, Vec<u32>) = pairs.into_iter().unzip();
        let values: Vec<f32> = values.into_iter().map(f32::from_bits).collect();
        assert_roundtrip_bits(&Frame::Predict(PredictRequest {
            req_id, k, deadline_us, trace_id, indices, values,
        }));
        assert_roundtrip_bits(&Frame::DeadlineExceeded { req_id });
    }

    #[test]
    fn responses_roundtrip_bit_identically(
        req_id in any::<u64>(),
        ids in prop::collection::vec(any::<u32>(), 0..64),
        depth in any::<u32>(),
        code in error_code(),
        message in ascii_string(48),
    ) {
        assert_roundtrip_bits(&Frame::TopK { req_id, ids });
        assert_roundtrip_bits(&Frame::RetryLater { req_id, queue_depth: depth });
        assert_roundtrip_bits(&Frame::Error { req_id, code, message });
    }

    #[test]
    fn control_frames_roundtrip_bit_identically(
        nonce in any::<u64>(),
        inflight in any::<u32>(),
        draining in any::<bool>(),
        precision in ascii_string(16),
        text in ascii_string(128),
    ) {
        assert_roundtrip_bits(&Frame::Ping { nonce });
        assert_roundtrip_bits(&Frame::Pong(PongInfo { nonce, inflight, draining, precision }));
        assert_roundtrip_bits(&Frame::Drain);
        assert_roundtrip_bits(&Frame::GetMetrics);
        assert_roundtrip_bits(&Frame::MetricsText(text));
    }

    #[test]
    fn decode_is_total_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Any byte soup: decode must return, never panic. (A tiny max
        // payload keeps `TruncatedStream` from dominating when random
        // length fields are huge.)
        let _ = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD);
        let _ = decode_frame(&bytes, 64);
    }

    #[test]
    fn decode_is_total_under_single_byte_mutation(
        req_id in any::<u64>(),
        ids in prop::collection::vec(any::<u32>(), 0..16),
        pos in any::<prop::sample::Index>(),
        xor in (0u8..255).prop_map(|b| b + 1),
    ) {
        let mut bytes = frame_bytes(&Frame::TopK { req_id, ids });
        let pos = pos.index(bytes.len());
        bytes[pos] ^= xor;
        if let Ok((_, consumed)) = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD) {
            // A flip the codec cannot detect must at least not lie about
            // the byte count.
            prop_assert!(consumed <= bytes.len());
        }
        // Payload flips specifically must be caught by the CRC (or, for
        // flips in the length field, surface as framing errors).
        if pos >= HEADER_LEN {
            prop_assert!(matches!(
                decode_frame(&bytes, DEFAULT_MAX_PAYLOAD),
                Err(WireError::ChecksumMismatch { .. })
            ));
        }
    }

    #[test]
    fn decode_is_total_under_truncation(
        req_id in any::<u64>(),
        ids in prop::collection::vec(any::<u32>(), 0..16),
        cut in any::<prop::sample::Index>(),
    ) {
        let bytes = frame_bytes(&Frame::TopK { req_id, ids });
        let cut = cut.index(bytes.len());
        prop_assert!(matches!(
            decode_frame(&bytes[..cut], DEFAULT_MAX_PAYLOAD),
            Err(WireError::TruncatedStream)
        ));
    }
}

#[test]
fn empty_sparse_vector_is_a_legal_frame() {
    assert_roundtrip_bits(&Frame::Predict(PredictRequest {
        req_id: 7,
        k: 5,
        deadline_us: 0,
        trace_id: 0,
        indices: Vec::new(),
        values: Vec::new(),
    }));
}

#[test]
fn max_k_response_fills_the_payload_cap() {
    // 200_000 ids * 4 B + 12 B of fixed fields sits just under the 1 MiB
    // default cap — the largest response the protocol promises to carry.
    let ids: Vec<u32> = (0..200_000u32).collect();
    let frame = Frame::TopK { req_id: 1, ids };
    let bytes = frame_bytes(&frame);
    assert!(bytes.len() < DEFAULT_MAX_PAYLOAD as usize);
    assert_roundtrip_bits(&frame);
    // The same frame against a smaller cap is a typed Oversized error.
    assert!(matches!(
        decode_frame(&bytes, 1024),
        Err(WireError::Oversized { .. })
    ));
}
