//! The serve wire protocol: length-framed [`Wire`]-encoded requests and
//! responses, plus a **total** (never-panicking) decoder for untrusted
//! bytes.
//!
//! Framing: every message is a 4-byte little-endian length prefix followed
//! by that many payload bytes ([`write_frame`] / [`read_frame`]), capped at
//! [`MAX_FRAME`].  Payloads reuse the workspace's [`Wire`] codec (LEB128
//! varints, length-prefixed strings) so the server speaks the same byte
//! language as every plane backing.
//!
//! One encoder and one decoder per frame: [`Request::to_bytes`] /
//! [`Response::to_bytes`] write the fields in declaration order through
//! the [`Wire`] primitives, and [`Request::decode_checked`] /
//! [`Response::decode_checked`] (via [`CheckedReader`]) read them back
//! **totally**: every malformed, truncated or oversized input returns a
//! typed [`FrameError`], never a panic.  The server, the `replay` client
//! and every other reader decode through them.  Claimed lengths are capped
//! against the bytes actually present before any allocation, so a hostile
//! 4 GiB length prefix cannot balloon memory.

use lma_sim::wire::Wire;
use std::io::{Read, Write};

/// Hard cap on a frame payload (1 MiB) — far above any legitimate request
/// or response, far below anything that could hurt the process.
pub const MAX_FRAME: usize = 1 << 20;

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one length-prefixed frame.
///
/// # Errors
/// `InvalidInput` when `payload` exceeds [`MAX_FRAME`]; otherwise the
/// underlying writer's errors.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "frame length overflows the u32 prefix",
        )
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame.  Returns `Ok(None)` on a clean EOF at a
/// frame boundary (the peer closed the connection).
///
/// # Errors
/// `InvalidData` when the length prefix exceeds [`MAX_FRAME`];
/// `UnexpectedEof` when the stream ends mid-frame; otherwise the underlying
/// reader's errors.
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut read = 0;
    while read < 4 {
        // lint: allow(codec-panic) — `read < 4` is the loop condition; the slice is always in range
        match r.read(&mut len_bytes[read..])? {
            0 if read == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame length prefix",
                ))
            }
            n => read += n,
        }
    }
    let len = usize::try_from(u32::from_le_bytes(len_bytes)).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame length exceeds addressable memory",
        )
    })?;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// One client → server message: a correlation id plus the request body.
/// Responses echo the id, so a client may pipeline requests freely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// The request body.
    pub body: RequestBody,
}

/// The request bodies the server understands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestBody {
    /// Liveness probe; answered immediately with [`ResponseBody::Pong`].
    Ping,
    /// Run a workload (admitted to the queue; see [`RunSpec`]).
    Run(RunSpec),
    /// Snapshot the server's metrics ([`ResponseBody::Stats`]).
    Stats,
    /// Graceful drain: admit no further runs, finish the queue, then answer
    /// [`ResponseBody::Bye`] with the number of requests drained.
    Shutdown,
}

/// A workload run request: the scenario identity (workload/family/n/seed —
/// exactly the pinned digest header of `SCENARIOS.lock`) plus per-request
/// run knobs and budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// Stable workload name (`flood`, `scheme-constant`, …).
    pub workload: String,
    /// Stable graph-family name (`ring`, `small-world`, …).
    pub family: String,
    /// Approximate node count.
    pub n: usize,
    /// Generator/weight seed.
    pub seed: u64,
    /// Plane backing label (`inline`, `arena`).
    pub backing: String,
    /// Worker threads for the run: `0`/`1` on one thread, `t ≥ 2`
    /// shard-parallel.
    pub threads: usize,
    /// Optional hard round limit for the run.
    pub round_limit: Option<u64>,
    /// Optional queue-wait budget in milliseconds: a request still queued
    /// when it expires fails with [`code::DEADLINE`] instead of running.
    pub deadline_ms: Option<u64>,
}

/// One server → client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The correlation id of the request this answers (`0` when the request
    /// was too malformed to carry one).
    pub id: u64,
    /// The response body.
    pub body: ResponseBody,
}

/// The response bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseBody {
    /// Answer to [`RequestBody::Ping`].
    Pong,
    /// The run completed; digest and latencies inside.
    Done(RunReport),
    /// The request failed (admission or execution); typed code inside.
    Failed(ErrorReport),
    /// Answer to [`RequestBody::Stats`].
    Stats(StatsReport),
    /// Answer to [`RequestBody::Shutdown`]: the queue is drained; the
    /// payload is the number of run requests completed during the drain.
    Bye(u64),
}

/// The outcome of a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// The 128-hex-char scenario digest — byte-identical to the
    /// `SCENARIOS.lock` golden for the same identity.
    pub digest: String,
    /// Rounds of the run (0 for pinned error-path outcomes).
    pub rounds: u64,
    /// Total messages of the run.
    pub messages: u64,
    /// Total message bits of the run.
    pub bits: u64,
    /// Nanoseconds from admission to the start of the group's run: the
    /// wait (the coalescing door, earlier groups on the same executor, and
    /// the window before, when the request arrived during it) plus
    /// [`prepare_ns`](Self::prepare_ns).  `queue_ns − prepare_ns` is the
    /// wait alone.
    pub queue_ns: u64,
    /// Nanoseconds the run itself took (shared by every member of a
    /// coalesced group).
    pub run_ns: u64,
    /// Width of the coalesced group this request was answered in (1 =
    /// solo).  A group runs once, whatever its width.
    pub lanes: u32,
    /// Nanoseconds from the group's start to its run start: the graph,
    /// partition and oracle lookups, or builds on a miss (shared by every
    /// member of a coalesced group).  It is the tail of
    /// [`queue_ns`](Self::queue_ns), so `queue_ns − prepare_ns` is the
    /// wait.
    pub prepare_ns: u64,
}

/// A typed failure; `code` is one of the [`code`] constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorReport {
    /// Machine-readable failure class (see [`code`]).
    pub code: u8,
    /// Human-readable detail.
    pub message: String,
}

/// Machine-readable failure codes carried by [`ErrorReport`].
pub mod code {
    /// The request frame decoded but the spec was structurally invalid.
    pub const BAD_REQUEST: u8 = 1;
    /// Unknown workload name.
    pub const UNKNOWN_WORKLOAD: u8 = 2;
    /// Unknown graph-family name.
    pub const UNKNOWN_FAMILY: u8 = 3;
    /// Unknown plane-backing label.
    pub const UNKNOWN_BACKING: u8 = 4;
    /// The queue-wait deadline expired before the run was dispatched.
    pub const DEADLINE: u8 = 5;
    /// The admission queue is full.
    pub const OVERLOADED: u8 = 6;
    /// The server is draining; no new runs are admitted.
    pub const DRAINING: u8 = 7;
    /// The workload's centralized prepare phase failed.
    pub const PREPARE: u8 = 8;
    /// The outcome failed independent verification.
    pub const INVALID: u8 = 9;
    /// The run panicked; the request was isolated and the server survived.
    pub const PANIC: u8 = 10;
}

/// The server's metrics snapshot (see [`RequestBody::Stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsReport {
    /// Run requests answered [`ResponseBody::Done`].
    pub served: u64,
    /// Run requests answered [`ResponseBody::Failed`].
    pub failed: u64,
    /// Requests served in a coalesced group of width ≥ 2.
    pub coalesced: u64,
    /// Graph-cache hits / misses.
    pub graph_hits: u64,
    /// Graph-cache misses.
    pub graph_misses: u64,
    /// Partition-cache hits.
    pub partition_hits: u64,
    /// Partition-cache misses.
    pub partition_misses: u64,
    /// Oracle-cache hits.
    pub oracle_hits: u64,
    /// Oracle-cache misses.
    pub oracle_misses: u64,
    /// Group-width histogram: `(width, groups executed at that width)`.
    /// Each group is one run, so the counts sum to the runs executed.
    pub batch_widths: Vec<(u32, u64)>,
    /// p50 of [`RunReport::queue_ns`] (wait plus prepare) over the retained
    /// sample window.
    pub queue_p50_ns: u64,
    /// p99 of [`RunReport::queue_ns`].
    pub queue_p99_ns: u64,
    /// p50 of per-request total (queue + run) nanoseconds.
    pub total_p50_ns: u64,
    /// p99 of per-request total nanoseconds.
    pub total_p99_ns: u64,
    /// Topologies the hot cache retains.
    pub cache_entries: u64,
    /// Bytes the hot cache charges for them (bounded by its budget).
    pub cache_bytes: u64,
    /// Topologies the hot cache has evicted over the server's lifetime.
    pub cache_evictions: u64,
    /// Threads that execute a dispatch window's groups, the dispatcher
    /// included (the configured pool size).
    pub executors: u64,
    /// Jobs waiting in the admission queue at snapshot time.
    pub queue_depth: u64,
    /// Groups executing at snapshot time.
    pub in_flight_groups: u64,
    /// Coalescing windows whose door closed because the queue reached
    /// `max_batch`.
    pub door_full: u64,
    /// Coalescing windows whose door closed because the queue reached the
    /// previous window's width, below `max_batch`.
    pub door_expected: u64,
    /// Coalescing windows whose door closed because `coalesce_window`
    /// elapsed.
    pub door_window: u64,
    /// Coalescing windows whose door closed because draining began.
    pub door_drain: u64,
}

// ---------------------------------------------------------------------------
// The encoder
// ---------------------------------------------------------------------------

const TAG_PING: u8 = 0;
const TAG_RUN: u8 = 1;
const TAG_STATS: u8 = 2;
const TAG_SHUTDOWN: u8 = 3;

const TAG_PONG: u8 = 0;
const TAG_DONE: u8 = 1;
const TAG_FAILED: u8 = 2;
const TAG_STATS_REPLY: u8 = 3;
const TAG_BYE: u8 = 4;

fn encode_run_spec(spec: &RunSpec, out: &mut Vec<u8>) {
    spec.workload.encode(out);
    spec.family.encode(out);
    spec.n.encode(out);
    spec.seed.encode(out);
    spec.backing.encode(out);
    spec.threads.encode(out);
    spec.round_limit.encode(out);
    spec.deadline_ms.encode(out);
}

fn encode_run_report(report: &RunReport, out: &mut Vec<u8>) {
    report.digest.encode(out);
    report.rounds.encode(out);
    report.messages.encode(out);
    report.bits.encode(out);
    report.queue_ns.encode(out);
    report.run_ns.encode(out);
    report.lanes.encode(out);
    report.prepare_ns.encode(out);
}

fn encode_stats_report(stats: &StatsReport, out: &mut Vec<u8>) {
    stats.served.encode(out);
    stats.failed.encode(out);
    stats.coalesced.encode(out);
    stats.graph_hits.encode(out);
    stats.graph_misses.encode(out);
    stats.partition_hits.encode(out);
    stats.partition_misses.encode(out);
    stats.oracle_hits.encode(out);
    stats.oracle_misses.encode(out);
    stats.batch_widths.encode(out);
    stats.queue_p50_ns.encode(out);
    stats.queue_p99_ns.encode(out);
    stats.total_p50_ns.encode(out);
    stats.total_p99_ns.encode(out);
    stats.cache_entries.encode(out);
    stats.cache_bytes.encode(out);
    stats.cache_evictions.encode(out);
    stats.executors.encode(out);
    stats.queue_depth.encode(out);
    stats.in_flight_groups.encode(out);
    stats.door_full.encode(out);
    stats.door_expected.encode(out);
    stats.door_window.encode(out);
    stats.door_drain.encode(out);
}

impl Request {
    /// Encodes the request as one frame payload.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.id.encode(&mut out);
        match &self.body {
            RequestBody::Ping => out.push(TAG_PING),
            RequestBody::Run(spec) => {
                out.push(TAG_RUN);
                encode_run_spec(spec, &mut out);
            }
            RequestBody::Stats => out.push(TAG_STATS),
            RequestBody::Shutdown => out.push(TAG_SHUTDOWN),
        }
        out
    }

    /// Totally decodes an untrusted frame payload.
    ///
    /// # Errors
    /// The typed [`FrameError`] describing the first malformation; never
    /// panics, never allocates more than the payload's own length.
    pub fn decode_checked(payload: &[u8]) -> Result<Self, FrameError> {
        let mut r = CheckedReader::new(payload);
        let request = r.request()?;
        r.expect_exhausted()?;
        Ok(request)
    }
}

impl Response {
    /// Encodes the response as one frame payload.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.id.encode(&mut out);
        match &self.body {
            ResponseBody::Pong => out.push(TAG_PONG),
            ResponseBody::Done(report) => {
                out.push(TAG_DONE);
                encode_run_report(report, &mut out);
            }
            ResponseBody::Failed(report) => {
                out.push(TAG_FAILED);
                report.code.encode(&mut out);
                report.message.encode(&mut out);
            }
            ResponseBody::Stats(stats) => {
                out.push(TAG_STATS_REPLY);
                encode_stats_report(stats, &mut out);
            }
            ResponseBody::Bye(drained) => {
                out.push(TAG_BYE);
                drained.encode(&mut out);
            }
        }
        out
    }

    /// Totally decodes an untrusted frame payload (the client-side mirror
    /// of [`Request::decode_checked`]; exercised by the protocol proptests).
    ///
    /// # Errors
    /// The typed [`FrameError`] describing the first malformation.
    pub fn decode_checked(payload: &[u8]) -> Result<Self, FrameError> {
        let mut r = CheckedReader::new(payload);
        let response = r.response()?;
        r.expect_exhausted()?;
        Ok(response)
    }
}

// ---------------------------------------------------------------------------
// The total decoder
// ---------------------------------------------------------------------------

/// Why an untrusted frame payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The payload ended before the value did.
    Truncated,
    /// A varint ran past 10 bytes / 64 bits.
    VarintOverflow,
    /// An enum tag byte matched no variant.
    BadTag {
        /// Which enum was being decoded (`"request"`, `"response"`, …).
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A claimed length exceeds the bytes remaining in the payload.
    LengthOverrun {
        /// The claimed length.
        claimed: u64,
        /// The bytes actually remaining.
        remaining: usize,
    },
    /// String bytes were not valid UTF-8.
    BadUtf8,
    /// The value decoded but bytes were left over.
    TrailingBytes {
        /// How many bytes were left.
        count: usize,
    },
    /// A decoded integer does not fit the target type (e.g. a `usize`
    /// field on a 32-bit host).
    IntOutOfRange,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "payload truncated mid-value"),
            FrameError::VarintOverflow => write!(f, "varint overflows 64 bits"),
            FrameError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            FrameError::LengthOverrun { claimed, remaining } => {
                write!(
                    f,
                    "claimed length {claimed} exceeds {remaining} remaining bytes"
                )
            }
            FrameError::BadUtf8 => write!(f, "string bytes are not UTF-8"),
            FrameError::TrailingBytes { count } => {
                write!(f, "{count} trailing byte(s) after the value")
            }
            FrameError::IntOutOfRange => write!(f, "integer out of range for target type"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A fallible cursor over an untrusted frame payload: every read is bounds-
/// checked and every claimed length is capped against the bytes actually
/// remaining **before** any allocation.
pub struct CheckedReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> CheckedReader<'a> {
    /// A reader over the whole payload.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn byte(&mut self) -> Result<u8, FrameError> {
        let b = *self.buf.get(self.pos).ok_or(FrameError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, FrameError> {
        let mut x = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(FrameError::VarintOverflow);
            }
            x |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(x);
            }
            shift += 7;
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn usize_field(&mut self) -> Result<usize, FrameError> {
        usize::try_from(self.varint()?).map_err(|_| FrameError::IntOutOfRange)
    }

    fn length(&mut self) -> Result<usize, FrameError> {
        let claimed = self.varint()?;
        let remaining = self.remaining();
        match usize::try_from(claimed) {
            Ok(len) if len <= remaining => Ok(len),
            _ => Err(FrameError::LengthOverrun { claimed, remaining }),
        }
    }

    fn string(&mut self) -> Result<String, FrameError> {
        let len = self.length()?;
        let span = self
            .buf
            .get(self.pos..self.pos + len)
            .ok_or(FrameError::Truncated)?;
        self.pos += len;
        String::from_utf8(span.to_vec()).map_err(|_| FrameError::BadUtf8)
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, FrameError> {
        match self.byte()? {
            0 => Ok(None),
            _ => Ok(Some(self.varint()?)),
        }
    }

    fn run_spec(&mut self) -> Result<RunSpec, FrameError> {
        Ok(RunSpec {
            workload: self.string()?,
            family: self.string()?,
            n: self.usize_field()?,
            seed: self.varint()?,
            backing: self.string()?,
            threads: self.usize_field()?,
            round_limit: self.opt_u64()?,
            deadline_ms: self.opt_u64()?,
        })
    }

    fn run_report(&mut self) -> Result<RunReport, FrameError> {
        Ok(RunReport {
            digest: self.string()?,
            rounds: self.varint()?,
            messages: self.varint()?,
            bits: self.varint()?,
            queue_ns: self.varint()?,
            run_ns: self.varint()?,
            lanes: u32::try_from(self.varint()?).map_err(|_| FrameError::IntOutOfRange)?,
            prepare_ns: self.varint()?,
        })
    }

    fn error_report(&mut self) -> Result<ErrorReport, FrameError> {
        Ok(ErrorReport {
            code: self.byte()?,
            message: self.string()?,
        })
    }

    fn stats_report(&mut self) -> Result<StatsReport, FrameError> {
        Ok(StatsReport {
            served: self.varint()?,
            failed: self.varint()?,
            coalesced: self.varint()?,
            graph_hits: self.varint()?,
            graph_misses: self.varint()?,
            partition_hits: self.varint()?,
            partition_misses: self.varint()?,
            oracle_hits: self.varint()?,
            oracle_misses: self.varint()?,
            batch_widths: {
                let len = self.length()?;
                let mut v = Vec::with_capacity(len.min(self.remaining()));
                for _ in 0..len {
                    let width =
                        u32::try_from(self.varint()?).map_err(|_| FrameError::IntOutOfRange)?;
                    let count = self.varint()?;
                    v.push((width, count));
                }
                v
            },
            queue_p50_ns: self.varint()?,
            queue_p99_ns: self.varint()?,
            total_p50_ns: self.varint()?,
            total_p99_ns: self.varint()?,
            cache_entries: self.varint()?,
            cache_bytes: self.varint()?,
            cache_evictions: self.varint()?,
            executors: self.varint()?,
            queue_depth: self.varint()?,
            in_flight_groups: self.varint()?,
            door_full: self.varint()?,
            door_expected: self.varint()?,
            door_window: self.varint()?,
            door_drain: self.varint()?,
        })
    }

    fn request(&mut self) -> Result<Request, FrameError> {
        let id = self.varint()?;
        let body = match self.byte()? {
            TAG_PING => RequestBody::Ping,
            TAG_RUN => RequestBody::Run(self.run_spec()?),
            TAG_STATS => RequestBody::Stats,
            TAG_SHUTDOWN => RequestBody::Shutdown,
            tag => {
                return Err(FrameError::BadTag {
                    what: "request",
                    tag,
                })
            }
        };
        Ok(Request { id, body })
    }

    fn response(&mut self) -> Result<Response, FrameError> {
        let id = self.varint()?;
        let body = match self.byte()? {
            TAG_PONG => ResponseBody::Pong,
            TAG_DONE => ResponseBody::Done(self.run_report()?),
            TAG_FAILED => ResponseBody::Failed(self.error_report()?),
            TAG_STATS_REPLY => ResponseBody::Stats(self.stats_report()?),
            TAG_BYE => ResponseBody::Bye(self.varint()?),
            tag => {
                return Err(FrameError::BadTag {
                    what: "response",
                    tag,
                })
            }
        };
        Ok(Response { id, body })
    }

    fn expect_exhausted(&self) -> Result<(), FrameError> {
        match self.remaining() {
            0 => Ok(()),
            count => Err(FrameError::TrailingBytes { count }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lma_sim::wire::write_varint;

    fn spec() -> RunSpec {
        RunSpec {
            workload: "flood".to_string(),
            family: "ring".to_string(),
            n: 48,
            seed: 11,
            backing: "inline".to_string(),
            threads: 0,
            round_limit: None,
            deadline_ms: Some(250),
        }
    }

    #[test]
    fn request_round_trips_through_the_checked_decoder() {
        for body in [
            RequestBody::Ping,
            RequestBody::Run(spec()),
            RequestBody::Stats,
            RequestBody::Shutdown,
        ] {
            let request = Request { id: 7, body };
            assert_eq!(Request::decode_checked(&request.to_bytes()), Ok(request));
        }
    }

    #[test]
    fn response_round_trips_through_the_checked_decoder() {
        for body in [
            ResponseBody::Pong,
            ResponseBody::Done(RunReport {
                digest: "ab".repeat(64),
                rounds: 24,
                messages: 96,
                bits: 6144,
                queue_ns: 1200,
                run_ns: 88_000,
                lanes: 8,
                prepare_ns: 700,
            }),
            ResponseBody::Failed(ErrorReport {
                code: code::DEADLINE,
                message: "deadline of 250ms expired in queue".to_string(),
            }),
            ResponseBody::Stats(StatsReport {
                served: 3,
                batch_widths: vec![(1, 2), (8, 1)],
                cache_entries: 2,
                cache_bytes: 64 << 20,
                cache_evictions: 5,
                door_expected: 2,
                door_drain: 1,
                ..StatsReport::default()
            }),
            ResponseBody::Bye(41),
        ] {
            let response = Response { id: 9, body };
            assert_eq!(Response::decode_checked(&response.to_bytes()), Ok(response));
        }
    }

    #[test]
    fn every_truncation_of_a_valid_request_is_a_typed_error() {
        let bytes = Request {
            id: 3,
            body: RequestBody::Run(spec()),
        }
        .to_bytes();
        for cut in 0..bytes.len() {
            let err =
                Request::decode_checked(&bytes[..cut]).expect_err("every strict prefix must fail");
            // Any typed error is fine; the point is: no panic, no success.
            let _ = err.to_string();
        }
    }

    #[test]
    fn hostile_lengths_are_capped_before_allocation() {
        // id=1, tag=Run, then a workload-string length claiming 4 GiB.
        let mut bytes = vec![1, TAG_RUN];
        write_varint(&mut bytes, u64::from(u32::MAX));
        match Request::decode_checked(&bytes) {
            Err(FrameError::LengthOverrun { claimed, remaining }) => {
                assert_eq!(claimed, u64::from(u32::MAX));
                assert_eq!(remaining, 0);
            }
            other => panic!("expected LengthOverrun, got {other:?}"),
        }
    }

    #[test]
    fn bad_tags_trailing_bytes_and_bad_utf8_are_typed() {
        assert_eq!(
            Request::decode_checked(&[0, 200]),
            Err(FrameError::BadTag {
                what: "request",
                tag: 200
            })
        );
        let mut ok = Request {
            id: 0,
            body: RequestBody::Ping,
        }
        .to_bytes();
        ok.push(0);
        assert_eq!(
            Request::decode_checked(&ok),
            Err(FrameError::TrailingBytes { count: 1 })
        );
        // id=0, Run tag, workload length 1 with an invalid UTF-8 byte.
        let bad_utf8 = vec![0, TAG_RUN, 1, 0xff];
        assert!(matches!(
            Request::decode_checked(&bad_utf8),
            Err(FrameError::BadUtf8) | Err(FrameError::Truncated)
        ));
        // An 11-byte varint overflows.
        let overflow = vec![0x80u8; 11];
        assert_eq!(
            Request::decode_checked(&overflow),
            Err(FrameError::VarintOverflow)
        );
    }

    #[test]
    fn frames_round_trip_and_enforce_the_cap() {
        let payload = Request {
            id: 1,
            body: RequestBody::Ping,
        }
        .to_bytes();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(payload));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);

        let mut oversized = Vec::new();
        oversized.extend_from_slice(&u32::try_from(MAX_FRAME + 1).unwrap().to_le_bytes());
        let mut cursor = std::io::Cursor::new(oversized);
        assert!(read_frame(&mut cursor).is_err());
        let big = vec![0u8; MAX_FRAME + 1];
        assert!(write_frame(&mut Vec::new(), &big).is_err());
    }
}
