//! Wire-protocol coverage: every frame type round-trips bit-exactly, and
//! every class of malformed input is rejected with a typed `WireError`
//! (never a panic) with the right recoverability.

use acoustic_serve::protocol::{
    encode_frame, read_frame, ErrorCode, ErrorFrame, Frame, InferRequest, InferResponse,
    StatsSnapshot, WireError, DEFAULT_MAX_PAYLOAD, HEADER_LEN,
};

fn roundtrip(frame: &Frame) -> Frame {
    let bytes = encode_frame(frame);
    read_frame(&mut &bytes[..], DEFAULT_MAX_PAYLOAD).expect("frame round-trips")
}

fn sample_request() -> InferRequest {
    InferRequest {
        request_id: 0xDEAD_BEEF_0042,
        model_id: 7,
        deadline_micros: 125_000,
        stream_len: None,
        margin: None,
        shape: vec![1, 4, 4],
        values: (0..16).map(|i| i as f32 * 0.0625 - 0.5).collect(),
    }
}

#[test]
fn infer_request_roundtrips() {
    let plain = Frame::InferRequest(sample_request());
    assert_eq!(roundtrip(&plain), plain);

    let with_len = Frame::InferRequest(InferRequest {
        stream_len: Some(256),
        ..sample_request()
    });
    assert_eq!(roundtrip(&with_len), with_len);

    let with_margin = Frame::InferRequest(InferRequest {
        margin: Some(1.25),
        ..sample_request()
    });
    assert_eq!(roundtrip(&with_margin), with_margin);
}

#[test]
fn infer_response_roundtrips() {
    let f = Frame::InferResponse(InferResponse {
        request_id: 3,
        effective_len: 128,
        logits: vec![-0.5, 0.0, 1.5, f32::MIN_POSITIVE],
    });
    assert_eq!(roundtrip(&f), f);
}

#[test]
fn error_frame_roundtrips_every_code() {
    for code in [
        ErrorCode::Malformed,
        ErrorCode::Overloaded,
        ErrorCode::DeadlineExceeded,
        ErrorCode::UnknownModel,
        ErrorCode::BadInput,
        ErrorCode::ShuttingDown,
        ErrorCode::Internal,
        ErrorCode::Warming,
    ] {
        let f = Frame::Error(ErrorFrame {
            request_id: 9,
            code,
            message: format!("{code} happened"),
        });
        assert_eq!(roundtrip(&f), f);
    }
}

#[test]
fn stats_frames_roundtrip() {
    let req = Frame::StatsRequest(55);
    assert_eq!(roundtrip(&req), req);

    let snap = StatsSnapshot {
        received: 1,
        accepted: 2,
        completed: 3,
        rejected_overload: 4,
        rejected_malformed: 5,
        rejected_unknown_model: 6,
        expired: 7,
        failed: 8,
        queue_depth_hwm: 9,
        queue_wait_ns: 10,
        service_ns: 11,
        batches: 12,
        batch_requests: 13,
        mac_lanes: 14,
        sat_group_exits: 15,
        sat_lanes_skipped: 16,
        zero_seg_skips: 17,
        tiles: 18,
        tiled_requests: 19,
        rejected_model_budget: 20,
        distinct_streams: 21,
        pool_bytes: 22,
        index_bytes: 23,
        materialized_bytes: 24,
        resident_bytes: 25,
        rejected_shutdown: 33,
        shards: 34,
        shard_depth_hwm: 35,
        queue_steals: 36,
        active_connections: 37,
        active_connections_hwm: 40,
        conns_opened: 38,
        idle_reaped: 39,
        rejected_warming: 41,
        prepares_completed: 42,
        prepare_ms_total: 43,
        prepares_in_flight: 44,
    };
    let resp = Frame::StatsResponse(55, snap);
    assert_eq!(roundtrip(&resp), resp);
}

#[test]
fn logit_bits_survive_the_wire() {
    // Golden-response validation compares f32 bit patterns, so encoding
    // must not normalize anything (signed zero, subnormals, infinities).
    let tricky = vec![-0.0_f32, f32::INFINITY, f32::NEG_INFINITY, 1e-40];
    let f = Frame::InferResponse(InferResponse {
        request_id: 1,
        effective_len: 64,
        logits: tricky.clone(),
    });
    match roundtrip(&f) {
        Frame::InferResponse(r) => {
            for (a, b) in tricky.iter().zip(&r.logits) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        other => panic!("unexpected {other:?}"),
    }
}

// --- malformed input -------------------------------------------------------

fn expect_malformed(bytes: &[u8]) -> (u64, bool, String) {
    match read_frame(&mut &bytes[..], DEFAULT_MAX_PAYLOAD) {
        Err(WireError::Malformed {
            request_id,
            recoverable,
            reason,
        }) => (request_id, recoverable, reason),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn bad_magic_is_non_recoverable() {
    let mut bytes = encode_frame(&Frame::StatsRequest(1));
    bytes[0] ^= 0xFF;
    let (_, recoverable, reason) = expect_malformed(&bytes);
    assert!(!recoverable);
    assert!(reason.contains("magic"), "{reason}");
}

#[test]
fn bad_version_is_non_recoverable() {
    let mut bytes = encode_frame(&Frame::StatsRequest(1));
    bytes[4] = 99;
    let (_, recoverable, reason) = expect_malformed(&bytes);
    assert!(!recoverable);
    assert!(reason.contains("version"), "{reason}");
}

#[test]
fn reserved_bytes_must_be_zero() {
    let mut bytes = encode_frame(&Frame::StatsRequest(42));
    bytes[6] = 1;
    let (id, recoverable, _) = expect_malformed(&bytes);
    assert!(!recoverable);
    // The id was parsed before the reserved check, so it can be echoed.
    assert_eq!(id, 42);
}

#[test]
fn oversized_payload_is_rejected_before_allocation() {
    let mut bytes = encode_frame(&Frame::StatsRequest(7));
    bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
    let (id, recoverable, reason) = expect_malformed(&bytes);
    assert_eq!(id, 7);
    assert!(!recoverable);
    assert!(reason.contains("cap"), "{reason}");
}

#[test]
fn unknown_frame_type_is_recoverable() {
    let mut bytes = encode_frame(&Frame::StatsRequest(5));
    bytes[5] = 200;
    let (id, recoverable, reason) = expect_malformed(&bytes);
    assert_eq!(id, 5);
    assert!(recoverable);
    assert!(reason.contains("unknown frame type"), "{reason}");
}

#[test]
fn truncated_stream_is_an_io_error() {
    let bytes = encode_frame(&Frame::InferRequest(sample_request()));
    // Cut mid-header and mid-payload: both are transport-level EOF.
    for cut in [HEADER_LEN / 2, HEADER_LEN + 3] {
        match read_frame(&mut &bytes[..cut], DEFAULT_MAX_PAYLOAD) {
            Err(WireError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
            }
            other => panic!("expected Io, got {other:?}"),
        }
    }
}

#[test]
fn truncated_payload_with_consistent_header_is_recoverable() {
    // Header says 4 bytes, payload delivers 4 bytes of garbage for an
    // infer request — well-delimited, so the stream stays aligned.
    let mut bytes = encode_frame(&Frame::StatsRequest(8));
    bytes[5] = 1; // retype as InferRequest
    bytes[16..20].copy_from_slice(&4u32.to_le_bytes());
    bytes.extend_from_slice(&[1, 2, 3, 4]);
    let (id, recoverable, reason) = expect_malformed(&bytes);
    assert_eq!(id, 8);
    assert!(recoverable);
    assert!(reason.contains("truncated"), "{reason}");
}

#[test]
fn garbage_bytes_never_panic() {
    // Deterministic pseudo-garbage: decode must return, never panic.
    let mut state = 0x1234_5678_9ABC_DEF0_u64;
    for len in [0usize, 1, 7, HEADER_LEN, HEADER_LEN + 1, 64, 333] {
        let mut bytes = Vec::with_capacity(len);
        for _ in 0..len {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            bytes.push((state >> 56) as u8);
        }
        let _ = read_frame(&mut &bytes[..], DEFAULT_MAX_PAYLOAD);
    }
}

#[test]
fn mutually_exclusive_overrides_rejected() {
    let mut req = sample_request();
    req.stream_len = Some(128);
    let mut bytes = encode_frame(&Frame::InferRequest(req));
    // Patch the margin word (payload offset 12) to a non-negative float.
    let off = HEADER_LEN + 12;
    bytes[off..off + 4].copy_from_slice(&1.0_f32.to_le_bytes());
    let (_, recoverable, reason) = expect_malformed(&bytes);
    assert!(recoverable);
    assert!(reason.contains("at most one"), "{reason}");
}

#[test]
fn nan_margin_rejected() {
    let mut bytes = encode_frame(&Frame::InferRequest(sample_request()));
    let off = HEADER_LEN + 12;
    bytes[off..off + 4].copy_from_slice(&f32::NAN.to_le_bytes());
    let (_, recoverable, reason) = expect_malformed(&bytes);
    assert!(recoverable);
    assert!(reason.contains("NaN"), "{reason}");
}

#[test]
fn shape_violations_rejected() {
    // Rank 0.
    let mut req = sample_request();
    req.shape.clear();
    req.values.clear();
    let bytes = encode_frame(&Frame::InferRequest(req));
    let (_, _, reason) = expect_malformed(&bytes);
    assert!(reason.contains("rank"), "{reason}");

    // Value count != shape product.
    let mut req = sample_request();
    req.values.pop();
    let bytes = encode_frame(&Frame::InferRequest(req));
    let (_, recoverable, reason) = expect_malformed(&bytes);
    assert!(recoverable);
    assert!(reason.contains("does not match"), "{reason}");
}

#[test]
fn stats_request_with_payload_rejected() {
    let mut bytes = encode_frame(&Frame::StatsRequest(3));
    bytes[16..20].copy_from_slice(&2u32.to_le_bytes());
    bytes.extend_from_slice(&[0, 0]);
    let (id, recoverable, _) = expect_malformed(&bytes);
    assert_eq!(id, 3);
    assert!(recoverable);
}

#[test]
fn unknown_error_code_rejected() {
    let mut bytes = encode_frame(&Frame::Error(ErrorFrame {
        request_id: 2,
        code: ErrorCode::Internal,
        message: "m".into(),
    }));
    bytes[HEADER_LEN] = 250;
    let (_, recoverable, reason) = expect_malformed(&bytes);
    assert!(recoverable);
    assert!(reason.contains("error code"), "{reason}");
}

#[test]
fn trailing_payload_bytes_rejected() {
    let mut bytes = encode_frame(&Frame::InferRequest(sample_request()));
    let new_len = (bytes.len() - HEADER_LEN + 2) as u32;
    bytes[16..20].copy_from_slice(&new_len.to_le_bytes());
    bytes.extend_from_slice(&[0, 0]);
    let (_, recoverable, reason) = expect_malformed(&bytes);
    assert!(recoverable);
    assert!(reason.contains("trailing"), "{reason}");
}
