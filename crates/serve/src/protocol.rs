//! The ACOUSTIC serving wire protocol.
//!
//! Length-prefixed binary frames over TCP, little-endian throughout, no
//! external dependencies. Every frame starts with a fixed 20-byte header:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  "ACSV" (0x56534341 LE)
//!      4     1  protocol version (1)
//!      5     1  frame type
//!      6     2  reserved (must be 0)
//!      8     8  request id (echoed verbatim in the reply)
//!     16     4  payload length in bytes
//! ```
//!
//! followed by `payload length` bytes whose layout depends on the frame
//! type (see the per-frame structs). Malformed input is answered with a
//! typed [`ErrorFrame`] — decoding never panics, and a reader can always
//! tell a protocol error (answerable) from a dead transport (close).

use std::io::{self, Read, Write};

/// Frame magic: `b"ACSV"` read as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"ACSV");

/// Protocol version emitted and accepted by this build.
pub const VERSION: u8 = 1;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 20;

/// Default cap on a single frame's payload. A 28×28 float image is ~3 KiB;
/// 16 MiB leaves room for large inputs while bounding what one client can
/// make the server buffer.
pub const DEFAULT_MAX_PAYLOAD: usize = 16 << 20;

/// Maximum tensor rank accepted on the wire.
pub const MAX_DIMS: usize = 8;

/// Frame type tags.
const T_INFER_REQUEST: u8 = 1;
const T_INFER_RESPONSE: u8 = 2;
const T_ERROR: u8 = 3;
const T_STATS_REQUEST: u8 = 4;
const T_STATS_RESPONSE: u8 = 5;

/// Typed error codes carried by [`ErrorFrame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame could not be decoded (bad magic/version/layout).
    Malformed = 1,
    /// The request queue was full — admission control rejected the request.
    Overloaded = 2,
    /// The request's deadline expired before a worker picked it up.
    DeadlineExceeded = 3,
    /// The requested model id is not registered.
    UnknownModel = 4,
    /// The input tensor was rejected by the model (shape, non-finite
    /// values, unsupported stream length, …).
    BadInput = 5,
    /// The server is shutting down and no longer admits requests.
    ShuttingDown = 6,
    /// An internal server failure (worker panic, response write error).
    Internal = 7,
    /// The requested model is registered but cold: its prepare is running
    /// on the background compile thread, and the request was not queued.
    /// Retry shortly; warm-model traffic is unaffected.
    Warming = 8,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::Overloaded,
            3 => ErrorCode::DeadlineExceeded,
            4 => ErrorCode::UnknownModel,
            5 => ErrorCode::BadInput,
            6 => ErrorCode::ShuttingDown,
            7 => ErrorCode::Internal,
            8 => ErrorCode::Warming,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::Malformed => "Malformed",
            ErrorCode::Overloaded => "Overloaded",
            ErrorCode::DeadlineExceeded => "DeadlineExceeded",
            ErrorCode::UnknownModel => "UnknownModel",
            ErrorCode::BadInput => "BadInput",
            ErrorCode::ShuttingDown => "ShuttingDown",
            ErrorCode::Internal => "Internal",
            ErrorCode::Warming => "Warming",
        };
        f.write_str(s)
    }
}

/// An inference request.
///
/// Payload layout: `u32 model_id`, `u32 deadline_micros` (0 = server
/// default), `u32 stream_len` (0 = none), `u32 margin_bits` (f32 bits;
/// negative = none, NaN = malformed), `u8 ndim`, `ndim × u32` dims,
/// `u32 n` values (must equal the dim product), `n × f32` image data.
#[derive(Debug, Clone, PartialEq)]
pub struct InferRequest {
    /// Client-chosen request id; doubles as the deterministic seed index
    /// (the server derives the image's activation streams from it).
    pub request_id: u64,
    /// Which registered model to run.
    pub model_id: u32,
    /// Per-request deadline in microseconds; 0 selects the server default.
    pub deadline_micros: u32,
    /// Fixed stream-length prefix override (`None` = engine default).
    pub stream_len: Option<u32>,
    /// Early-exit margin: a retired wire field kept so the layout does not
    /// change. The server answers any request that sets it `BadInput`. At
    /// most one of `stream_len`/`margin` may be set.
    pub margin: Option<f32>,
    /// Input tensor shape.
    pub shape: Vec<u32>,
    /// Input tensor values, row-major.
    pub values: Vec<f32>,
}

/// A successful inference reply. Payload: `u32 effective_len`, `u32 n`,
/// `n × f32` logits.
#[derive(Debug, Clone, PartialEq)]
pub struct InferResponse {
    /// Echoed request id.
    pub request_id: u64,
    /// Stream length the logits were produced at.
    pub effective_len: u32,
    /// The logits.
    pub logits: Vec<f32>,
}

/// A typed error reply. Payload: `u8 code`, `u16 len`, `len` UTF-8 bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorFrame {
    /// Echoed request id (0 when the id could not be parsed).
    pub request_id: u64,
    /// What went wrong.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

/// Number of `u64` words in a [`StatsSnapshot`] wire payload.
const STATS_WORDS: usize = 37;

/// A point-in-time server statistics snapshot, servable over the wire.
/// Payload: `STATS_WORDS` × `u64` in field order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Frames received that parsed as inference requests.
    pub received: u64,
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// Requests answered with logits.
    pub completed: u64,
    /// Requests rejected with `Overloaded` (queue full).
    pub rejected_overload: u64,
    /// Frames answered with `Malformed`.
    pub rejected_malformed: u64,
    /// Requests answered with `UnknownModel`.
    pub rejected_unknown_model: u64,
    /// Requests rejected because their model's admission sub-budget was
    /// exhausted (counted inside `rejected_overload` on the wire errors,
    /// broken out here).
    pub rejected_model_budget: u64,
    /// Requests whose deadline expired before execution.
    pub expired: u64,
    /// Requests answered with `BadInput` (per-request simulation failure).
    pub failed: u64,
    /// Highest queue depth observed since startup.
    pub queue_depth_hwm: u64,
    /// Total nanoseconds completed requests spent queued (admission →
    /// dequeue).
    pub queue_wait_ns: u64,
    /// Total nanoseconds completed requests spent executing.
    pub service_ns: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Requests executed across all micro-batches.
    pub batch_requests: u64,
    /// MAC lanes whose AND/OR word work actually ran.
    pub mac_lanes: u64,
    /// OR groups that saturated before their last lane.
    pub sat_group_exits: u64,
    /// MAC lanes skipped because their OR group was already saturated.
    pub sat_lanes_skipped: u64,
    /// MAC lanes skipped because the activation segment was all zero.
    pub zero_seg_skips: u64,
    /// Tiles of two or more requests (one weight walk shared).
    pub tiles: u64,
    /// Requests executed inside those tiles (the rest ran as tiles of one).
    pub tiled_requests: u64,
    /// Weight bit cycles (one per distinct weight threshold of a model)
    /// across resident cached models (gauge sampled at snapshot time, not
    /// a counter).
    pub distinct_streams: u64,
    /// Bytes of weight-cycle words across resident models.
    pub pool_bytes: u64,
    /// Bytes of per-lane weight codes across resident models.
    pub index_bytes: u64,
    /// Bytes the materialized per-lane layout would need for the same
    /// resident models.
    pub materialized_bytes: u64,
    /// Weight bytes actually resident across cached models (cycles plus
    /// codes).
    pub resident_bytes: u64,
    /// Requests answered with `ShuttingDown` (arrived after the admission
    /// queue closed for shutdown).
    pub rejected_shutdown: u64,
    /// Admission-queue shard count (gauge; 1 = unsharded).
    pub shards: u64,
    /// Highest single-shard queue depth observed (`queue_depth_hwm` stays
    /// the global high-water mark across all shards).
    pub shard_depth_hwm: u64,
    /// Requests a worker took from a shard other than its own.
    pub queue_steals: u64,
    /// Currently open client connections (gauge sampled at snapshot time).
    pub active_connections: u64,
    /// Highest concurrent open-connection count observed since startup.
    pub active_connections_hwm: u64,
    /// Client connections accepted since startup.
    pub conns_opened: u64,
    /// Idle connections closed by the reactor's idle timeout.
    pub idle_reaped: u64,
    /// Requests answered with `Warming` (their model's prepare was still
    /// running on the background compile thread).
    pub rejected_warming: u64,
    /// Model prepares completed by the serving process (warm-up plus
    /// background recompiles after eviction).
    pub prepares_completed: u64,
    /// Summed wall-clock milliseconds of those prepares.
    pub prepare_ms_total: u64,
    /// Prepares currently executing on the background compile thread
    /// (gauge).
    pub prepares_in_flight: u64,
}

impl StatsSnapshot {
    /// Mean queue wait of completed requests, in milliseconds.
    pub fn mean_queue_wait_ms(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.queue_wait_ns as f64 / self.completed as f64 / 1e6
        }
    }

    /// Mean service time of completed requests, in milliseconds.
    pub fn mean_service_ms(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.service_ns as f64 / self.completed as f64 / 1e6
        }
    }

    /// Mean micro-batch size.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batch_requests as f64 / self.batches as f64
        }
    }

    /// Fraction of MAC lanes whose word work was skipped (saturation +
    /// zero segments) out of all lanes presented to the kernels.
    pub fn skip_fraction(&self) -> f64 {
        let skipped = self.sat_lanes_skipped + self.zero_seg_skips;
        let total = self.mac_lanes + skipped;
        if total == 0 {
            0.0
        } else {
            skipped as f64 / total as f64
        }
    }

    fn to_words(self) -> [u64; STATS_WORDS] {
        [
            self.received,
            self.accepted,
            self.completed,
            self.rejected_overload,
            self.rejected_malformed,
            self.rejected_unknown_model,
            self.expired,
            self.failed,
            self.queue_depth_hwm,
            self.queue_wait_ns,
            self.service_ns,
            self.batches,
            self.batch_requests,
            self.mac_lanes,
            self.sat_group_exits,
            self.sat_lanes_skipped,
            self.zero_seg_skips,
            self.tiles,
            self.tiled_requests,
            self.rejected_model_budget,
            self.distinct_streams,
            self.pool_bytes,
            self.index_bytes,
            self.materialized_bytes,
            self.resident_bytes,
            self.rejected_shutdown,
            self.shards,
            self.shard_depth_hwm,
            self.queue_steals,
            self.active_connections,
            self.conns_opened,
            self.idle_reaped,
            self.active_connections_hwm,
            self.rejected_warming,
            self.prepares_completed,
            self.prepare_ms_total,
            self.prepares_in_flight,
        ]
    }

    fn from_words(w: [u64; STATS_WORDS]) -> StatsSnapshot {
        StatsSnapshot {
            received: w[0],
            accepted: w[1],
            completed: w[2],
            rejected_overload: w[3],
            rejected_malformed: w[4],
            rejected_unknown_model: w[5],
            expired: w[6],
            failed: w[7],
            queue_depth_hwm: w[8],
            queue_wait_ns: w[9],
            service_ns: w[10],
            batches: w[11],
            batch_requests: w[12],
            mac_lanes: w[13],
            sat_group_exits: w[14],
            sat_lanes_skipped: w[15],
            zero_seg_skips: w[16],
            tiles: w[17],
            tiled_requests: w[18],
            rejected_model_budget: w[19],
            distinct_streams: w[20],
            pool_bytes: w[21],
            index_bytes: w[22],
            materialized_bytes: w[23],
            resident_bytes: w[24],
            rejected_shutdown: w[25],
            shards: w[26],
            shard_depth_hwm: w[27],
            queue_steals: w[28],
            active_connections: w[29],
            conns_opened: w[30],
            idle_reaped: w[31],
            active_connections_hwm: w[32],
            rejected_warming: w[33],
            prepares_completed: w[34],
            prepare_ms_total: w[35],
            prepares_in_flight: w[36],
        }
    }
}

/// A decoded protocol frame.
// The stats variant dominates the enum size (37 gauge words), but stats
// frames are rare one-off exchanges — boxing would cost every match site
// for a path that is never hot.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: classify one image.
    InferRequest(InferRequest),
    /// Server → client: the logits.
    InferResponse(InferResponse),
    /// Server → client: a typed failure.
    Error(ErrorFrame),
    /// Client → server: request a statistics snapshot (header-only; the
    /// `u64` is the echoed request id).
    StatsRequest(u64),
    /// Server → client: the statistics snapshot (`u64` = echoed id).
    StatsResponse(u64, StatsSnapshot),
}

impl Frame {
    /// The request id carried in the frame header.
    pub fn request_id(&self) -> u64 {
        match self {
            Frame::InferRequest(r) => r.request_id,
            Frame::InferResponse(r) => r.request_id,
            Frame::Error(e) => e.request_id,
            Frame::StatsRequest(id) => *id,
            Frame::StatsResponse(id, _) => *id,
        }
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum WireError {
    /// The transport failed (closed connection, timeout, reset). Not
    /// answerable — the connection is gone or unusable.
    Io(io::Error),
    /// The bytes violate the protocol. `request_id` is the best-effort id
    /// to echo in an [`ErrorFrame`] (0 when the header itself was bad);
    /// `recoverable` says whether the stream is still frame-aligned (the
    /// payload was fully consumed) so the connection can continue.
    Malformed {
        /// Best-effort id to echo.
        request_id: u64,
        /// Whether the reader may keep using the connection.
        recoverable: bool,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Malformed { reason, .. } => write!(f, "malformed frame: {reason}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            WireError::Malformed { .. } => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

fn malformed(request_id: u64, recoverable: bool, reason: impl Into<String>) -> WireError {
    WireError::Malformed {
        request_id,
        recoverable,
        reason: reason.into(),
    }
}

// --- encoding -------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serializes `frame` to wire bytes (header + payload).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let (ty, payload) = match frame {
        Frame::InferRequest(r) => (T_INFER_REQUEST, encode_infer_request(r)),
        Frame::InferResponse(r) => (T_INFER_RESPONSE, encode_infer_response(r)),
        Frame::Error(e) => (T_ERROR, encode_error(e)),
        Frame::StatsRequest(_) => (T_STATS_REQUEST, Vec::new()),
        Frame::StatsResponse(_, s) => (T_STATS_RESPONSE, encode_stats(s)),
    };
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    put_u32(&mut out, MAGIC);
    out.push(VERSION);
    out.push(ty);
    put_u16(&mut out, 0);
    put_u64(&mut out, frame.request_id());
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(&payload);
    out
}

fn encode_infer_request(r: &InferRequest) -> Vec<u8> {
    let mut p = Vec::with_capacity(24 + 4 * r.shape.len() + 4 * r.values.len());
    put_u32(&mut p, r.model_id);
    put_u32(&mut p, r.deadline_micros);
    put_u32(&mut p, r.stream_len.unwrap_or(0));
    put_f32(&mut p, r.margin.unwrap_or(-1.0));
    p.push(r.shape.len() as u8);
    for &d in &r.shape {
        put_u32(&mut p, d);
    }
    put_u32(&mut p, r.values.len() as u32);
    for &v in &r.values {
        put_f32(&mut p, v);
    }
    p
}

fn encode_infer_response(r: &InferResponse) -> Vec<u8> {
    let mut p = Vec::with_capacity(8 + 4 * r.logits.len());
    put_u32(&mut p, r.effective_len);
    put_u32(&mut p, r.logits.len() as u32);
    for &v in &r.logits {
        put_f32(&mut p, v);
    }
    p
}

fn encode_error(e: &ErrorFrame) -> Vec<u8> {
    let msg = e.message.as_bytes();
    let take = msg.len().min(u16::MAX as usize);
    let mut p = Vec::with_capacity(3 + take);
    p.push(e.code as u8);
    put_u16(&mut p, take as u16);
    p.extend_from_slice(&msg[..take]);
    p
}

fn encode_stats(s: &StatsSnapshot) -> Vec<u8> {
    let mut p = Vec::with_capacity(STATS_WORDS * 8);
    for w in s.to_words() {
        put_u64(&mut p, w);
    }
    p
}

// --- decoding -------------------------------------------------------------

/// A bounds-checked little-endian reader over a payload slice.
struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Rd { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.buf.len() {
            return Err(format!(
                "payload truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32, String> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn done(&self) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{} trailing payload bytes",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

/// Decodes one frame from `header ++ payload` bytes already in memory.
///
/// # Errors
///
/// [`WireError::Malformed`] with `recoverable = true` (the caller consumed
/// a well-delimited frame, the stream is still aligned).
pub fn decode_frame(ty: u8, request_id: u64, payload: &[u8]) -> Result<Frame, WireError> {
    let mk = |reason: String| malformed(request_id, true, reason);
    match ty {
        T_INFER_REQUEST => decode_infer_request(request_id, payload).map_err(mk),
        T_INFER_RESPONSE => decode_infer_response(request_id, payload).map_err(mk),
        T_ERROR => decode_error(request_id, payload).map_err(mk),
        T_STATS_REQUEST => {
            if payload.is_empty() {
                Ok(Frame::StatsRequest(request_id))
            } else {
                Err(mk("stats request carries no payload".into()))
            }
        }
        T_STATS_RESPONSE => decode_stats(request_id, payload).map_err(mk),
        other => Err(mk(format!("unknown frame type {other}"))),
    }
}

fn decode_infer_request(request_id: u64, payload: &[u8]) -> Result<Frame, String> {
    let mut rd = Rd::new(payload);
    let model_id = rd.u32()?;
    let deadline_micros = rd.u32()?;
    let stream_raw = rd.u32()?;
    let margin_raw = rd.f32()?;
    let stream_len = (stream_raw != 0).then_some(stream_raw);
    let margin = if margin_raw.is_nan() {
        return Err("margin override is NaN".into());
    } else if margin_raw < 0.0 {
        None
    } else {
        Some(margin_raw)
    };
    if stream_len.is_some() && margin.is_some() {
        return Err("at most one of stream_len/margin may be overridden".into());
    }
    let ndim = rd.u8()? as usize;
    if ndim == 0 || ndim > MAX_DIMS {
        return Err(format!("tensor rank {ndim} outside 1..={MAX_DIMS}"));
    }
    let mut shape = Vec::with_capacity(ndim);
    let mut product = 1usize;
    for _ in 0..ndim {
        let d = rd.u32()?;
        product = product
            .checked_mul(d as usize)
            .ok_or_else(|| "tensor shape overflows".to_string())?;
        shape.push(d);
    }
    let n = rd.u32()? as usize;
    if n != product {
        return Err(format!(
            "value count {n} does not match shape product {product}"
        ));
    }
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(rd.f32()?);
    }
    rd.done()?;
    Ok(Frame::InferRequest(InferRequest {
        request_id,
        model_id,
        deadline_micros,
        stream_len,
        margin,
        shape,
        values,
    }))
}

fn decode_infer_response(request_id: u64, payload: &[u8]) -> Result<Frame, String> {
    let mut rd = Rd::new(payload);
    let effective_len = rd.u32()?;
    let n = rd.u32()? as usize;
    let mut logits = Vec::with_capacity(n);
    for _ in 0..n {
        logits.push(rd.f32()?);
    }
    rd.done()?;
    Ok(Frame::InferResponse(InferResponse {
        request_id,
        effective_len,
        logits,
    }))
}

fn decode_error(request_id: u64, payload: &[u8]) -> Result<Frame, String> {
    let mut rd = Rd::new(payload);
    let code_raw = rd.u8()?;
    let code =
        ErrorCode::from_u8(code_raw).ok_or_else(|| format!("unknown error code {code_raw}"))?;
    let len = rd.u16()? as usize;
    let message = String::from_utf8(rd.take(len)?.to_vec())
        .map_err(|_| "error message is not UTF-8".to_string())?;
    rd.done()?;
    Ok(Frame::Error(ErrorFrame {
        request_id,
        code,
        message,
    }))
}

fn decode_stats(request_id: u64, payload: &[u8]) -> Result<Frame, String> {
    let mut rd = Rd::new(payload);
    let mut w = [0u64; STATS_WORDS];
    for slot in &mut w {
        *slot = rd.u64()?;
    }
    rd.done()?;
    Ok(Frame::StatsResponse(
        request_id,
        StatsSnapshot::from_words(w),
    ))
}

/// A validated frame header.
#[derive(Debug, Clone, Copy)]
pub struct FrameHeader {
    /// Frame type tag (validated later by [`decode_frame`]).
    pub ty: u8,
    /// Request id to echo.
    pub request_id: u64,
    /// Declared payload size in bytes (already checked against the cap).
    pub payload_len: usize,
}

/// Validates the fixed 20-byte header.
///
/// # Errors
///
/// [`WireError::Malformed`] with `recoverable = false` for bad
/// magic/version/reserved bytes or an oversized payload — after any of
/// those the stream can no longer be trusted to be frame-aligned.
pub fn parse_header(
    header: &[u8; HEADER_LEN],
    max_payload: usize,
) -> Result<FrameHeader, WireError> {
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(malformed(0, false, format!("bad magic {magic:#010x}")));
    }
    let version = header[4];
    if version != VERSION {
        return Err(malformed(
            0,
            false,
            format!("unsupported version {version}"),
        ));
    }
    let ty = header[5];
    let reserved = u16::from_le_bytes(header[6..8].try_into().unwrap());
    let request_id = u64::from_le_bytes(header[8..16].try_into().unwrap());
    if reserved != 0 {
        return Err(malformed(request_id, false, "reserved header bytes set"));
    }
    let payload_len = u32::from_le_bytes(header[16..20].try_into().unwrap()) as usize;
    if payload_len > max_payload {
        return Err(malformed(
            request_id,
            false,
            format!("payload of {payload_len} bytes exceeds the {max_payload}-byte cap"),
        ));
    }
    Ok(FrameHeader {
        ty,
        request_id,
        payload_len,
    })
}

/// Reads one frame from `r`, enforcing `max_payload`.
///
/// # Errors
///
/// * [`WireError::Io`] when the transport fails (including clean EOF,
///   surfaced as `UnexpectedEof` before any header byte).
/// * [`WireError::Malformed`] for protocol violations. `recoverable` is
///   `false` for bad magic/version/oversize (the stream can no longer be
///   trusted to be frame-aligned) and `true` for a well-delimited frame
///   with bad contents.
pub fn read_frame(r: &mut impl Read, max_payload: usize) -> Result<Frame, WireError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let h = parse_header(&header, max_payload)?;
    let mut payload = vec![0u8; h.payload_len];
    r.read_exact(&mut payload)?;
    decode_frame(h.ty, h.request_id, &payload)
}

/// Writes one frame to `w` and flushes it.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode_frame(frame))?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_message_truncates_at_u16() {
        let e = ErrorFrame {
            request_id: 1,
            code: ErrorCode::Internal,
            message: "x".repeat(70_000),
        };
        let bytes = encode_frame(&Frame::Error(e));
        let got = read_frame(&mut &bytes[..], DEFAULT_MAX_PAYLOAD).unwrap();
        match got {
            Frame::Error(e) => assert_eq!(e.message.len(), u16::MAX as usize),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn snapshot_means_handle_zero_counts() {
        let s = StatsSnapshot::default();
        assert_eq!(s.mean_queue_wait_ms(), 0.0);
        assert_eq!(s.mean_service_ms(), 0.0);
        assert_eq!(s.mean_batch_size(), 0.0);
    }
}
