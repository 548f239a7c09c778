//! Columnar binary trace format.
//!
//! The text format (`dumpi`) is greppable and diffable; this codec is the
//! storage-efficient sibling for large trace collections. It stores each
//! event field as its own column block with varint/delta encoding, framed
//! into independently-decodable chunks:
//!
//! ```text
//! magic "NLCOLTR\x01"
//! header  app (len-prefixed), ranks, exec_time (f64 LE), comms, nchunks
//! chunk*  [nevents varint][payload_len varint][payload]
//! ```
//!
//! Each chunk payload holds, in order: timestamp deltas (zigzag varints of
//! the delta between consecutive `f64` bit patterns), a kind byte per
//! event, then the send columns (src/dst/count deltas, datatype, tag,
//! repeat) followed by the collective columns (op, comm, root, payload
//! kind, uniform sizes, per-rank vectors, repeat). Delta state resets at
//! every chunk boundary, so chunks decode independently — the parallel
//! reader splits on the frame table without scanning payloads, and the
//! incremental [`ColStreamParser`] retains at most one frame of input.
//!
//! Malformed input is rejected with absolute byte offsets, and
//! count-driven preallocations are clamped to the remaining input
//! (`bounded_capacity`).

use crate::collective::{CollectiveOp, Payload};
use crate::comm::CommId;
use crate::datatype::Datatype;
use crate::error::{MpiError, Result};
use crate::event::{Event, TimedEvent};
use crate::rank::Rank;
use crate::trace::{Trace, TraceBuilder};
use rayon::prelude::*;

/// Magic/version prefix of the columnar format.
pub const MAGIC: &[u8; 8] = b"NLCOLTR\x01";

/// Default number of events per chunk frame. Large enough that the frame
/// table is negligible, small enough that every worker gets work on the
/// 1M-event bench traces and the streaming parser's resident window stays
/// in the low megabytes.
pub const COL_CHUNK_EVENTS: usize = 64 * 1024;

// ---- wire primitives -------------------------------------------------

/// Append `v` as a LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append `v` as 8 little-endian bytes.
fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Zigzag-map a signed delta onto an unsigned varint-friendly value
/// (small magnitudes of either sign encode in few bytes).
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A safe preallocation size for counts decoded from untrusted input:
/// every element still to be parsed takes at least one byte, so a
/// legitimate count never exceeds the remaining input length. Clamping
/// the *preallocation* (not the parsed count — oversized counts still
/// fail later with a byte offset) keeps a corrupted varint from
/// requesting gigabytes before the first element is even read.
fn bounded_capacity(count: usize, remaining: usize) -> usize {
    count.min(remaining)
}

/// Wire code for a datatype.
fn datatype_code(dt: Datatype) -> u8 {
    match dt {
        Datatype::Byte => 0,
        Datatype::Short => 1,
        Datatype::Int => 2,
        Datatype::Float => 3,
        Datatype::Long => 4,
        Datatype::Double => 5,
        Datatype::Derived => 6,
    }
}

/// Decode a datatype wire code; `None` for unknown codes.
fn datatype_from(code: u8) -> Option<Datatype> {
    Some(match code {
        0 => Datatype::Byte,
        1 => Datatype::Short,
        2 => Datatype::Int,
        3 => Datatype::Float,
        4 => Datatype::Long,
        5 => Datatype::Double,
        6 => Datatype::Derived,
        _ => return None,
    })
}

/// Wire code for a collective op: its position in [`CollectiveOp::ALL`].
fn op_code(op: CollectiveOp) -> u8 {
    CollectiveOp::ALL
        .iter()
        .position(|&o| o == op)
        .expect("op in ALL") as u8
}

// ---- writer ----------------------------------------------------------

/// Serialize a trace to the canonical columnar encoding (default chunk
/// size). Re-encoding a parsed trace with this function reproduces the
/// canonical bytes, which is what the service digests.
pub fn write_trace_columnar(trace: &Trace) -> Vec<u8> {
    write_trace_columnar_chunked(trace, COL_CHUNK_EVENTS)
}

/// Serialize with an explicit chunk size (`0` means the default). Every
/// chunk size yields a decodable file; only [`COL_CHUNK_EVENTS`] is the
/// canonical framing.
pub fn write_trace_columnar_chunked(trace: &Trace, chunk_events: usize) -> Vec<u8> {
    let chunk_events = if chunk_events == 0 {
        COL_CHUNK_EVENTS
    } else {
        chunk_events
    };
    let mut out = Vec::with_capacity(64 + trace.events.len() * 8);
    out.extend_from_slice(MAGIC);
    put_str(&mut out, &trace.app);
    put_varint(&mut out, trace.num_ranks as u64);
    put_f64(&mut out, trace.exec_time_s);

    // Sub-communicators (world is implicit).
    put_varint(&mut out, trace.comms.len() as u64 - 1);
    for comm in trace.comms.iter().skip(1) {
        put_varint(&mut out, comm.members.len() as u64);
        for m in &comm.members {
            put_varint(&mut out, m.0 as u64);
        }
    }

    put_varint(&mut out, trace.events.len().div_ceil(chunk_events) as u64);
    let mut payload = Vec::new();
    for chunk in trace.events.chunks(chunk_events) {
        payload.clear();
        encode_chunk(&mut payload, chunk);
        put_varint(&mut out, chunk.len() as u64);
        put_varint(&mut out, payload.len() as u64);
        out.extend_from_slice(&payload);
    }
    out
}

/// Per-column delta coder; state resets at every chunk boundary.
struct DeltaCol {
    prev: u64,
}

impl DeltaCol {
    fn new() -> Self {
        DeltaCol { prev: 0 }
    }

    fn put(&mut self, out: &mut Vec<u8>, v: u64) {
        put_varint(out, zigzag(v.wrapping_sub(self.prev) as i64));
        self.prev = v;
    }

    fn get(&mut self, r: &mut ColReader) -> ColResult<u64> {
        let d = r.varint()?;
        self.prev = self.prev.wrapping_add(unzigzag(d) as u64);
        Ok(self.prev)
    }
}

fn encode_chunk(out: &mut Vec<u8>, events: &[TimedEvent]) {
    // Timestamps: zigzag deltas of the f64 bit patterns. Monotone times
    // have slowly-varying bits, so deltas stay short; the mapping is
    // total and lossless for every bit pattern including NaN.
    let mut col = DeltaCol::new();
    for te in events {
        col.put(out, te.time.to_bits());
    }
    for te in events {
        out.push(matches!(te.event, Event::Collective { .. }) as u8);
    }

    // Send columns.
    let mut col = DeltaCol::new();
    for te in events {
        if let Event::Send { src, .. } = &te.event {
            col.put(out, src.0 as u64);
        }
    }
    let mut col = DeltaCol::new();
    for te in events {
        if let Event::Send { dst, .. } = &te.event {
            col.put(out, dst.0 as u64);
        }
    }
    let mut col = DeltaCol::new();
    for te in events {
        if let Event::Send { count, .. } = &te.event {
            col.put(out, *count);
        }
    }
    for te in events {
        if let Event::Send { datatype, .. } = &te.event {
            out.push(datatype_code(*datatype));
        }
    }
    for te in events {
        if let Event::Send { tag, .. } = &te.event {
            put_varint(out, *tag as u64);
        }
    }
    for te in events {
        if let Event::Send { repeat, .. } = &te.event {
            put_varint(out, *repeat);
        }
    }

    // Collective columns.
    for te in events {
        if let Event::Collective { op, .. } = &te.event {
            out.push(op_code(*op));
        }
    }
    for te in events {
        if let Event::Collective { comm, .. } = &te.event {
            put_varint(out, comm.0 as u64);
        }
    }
    for te in events {
        if let Event::Collective { root, .. } = &te.event {
            put_varint(out, root.map_or(0, |r| r as u64 + 1));
        }
    }
    for te in events {
        if let Event::Collective { payload, .. } = &te.event {
            out.push(matches!(payload, Payload::PerRank(_)) as u8);
        }
    }
    for te in events {
        if let Event::Collective {
            payload: Payload::Uniform(b),
            ..
        } = &te.event
        {
            put_varint(out, *b);
        }
    }
    for te in events {
        if let Event::Collective {
            payload: Payload::PerRank(v),
            ..
        } = &te.event
        {
            put_varint(out, v.len() as u64);
            for b in v {
                put_varint(out, *b);
            }
        }
    }
    for te in events {
        if let Event::Collective { repeat, .. } = &te.event {
            put_varint(out, *repeat);
        }
    }
}

// ---- reader ----------------------------------------------------------

/// Internal reader error: `Eof` means "more bytes could fix this" (the
/// streaming parser waits); `Bad` carries an absolute byte offset and is
/// terminal either way.
enum ColErr {
    Eof,
    Bad { pos: usize, msg: String },
}

impl ColErr {
    fn into_mpi(self, eof_pos: usize) -> MpiError {
        match self {
            ColErr::Eof => MpiError::Invalid(format!(
                "columnar trace, offset {eof_pos}: unexpected end of input"
            )),
            ColErr::Bad { pos, msg } => {
                MpiError::Invalid(format!("columnar trace, offset {pos}: {msg}"))
            }
        }
    }
}

type ColResult<T> = std::result::Result<T, ColErr>;

fn bad_at(pos: usize, msg: &str) -> MpiError {
    MpiError::Invalid(format!("columnar trace, offset {pos}: {msg}"))
}

/// Byte reader over a window of the file; `base` is the absolute offset of
/// `buf[0]` so errors report file positions even when decoding a chunk
/// payload or a streaming tail.
struct ColReader<'a> {
    buf: &'a [u8],
    pos: usize,
    base: usize,
}

impl<'a> ColReader<'a> {
    fn bad(&self, msg: &str) -> ColErr {
        ColErr::Bad {
            pos: self.base + self.pos,
            msg: msg.to_string(),
        }
    }

    fn byte(&mut self) -> ColResult<u8> {
        let b = *self.buf.get(self.pos).ok_or(ColErr::Eof)?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> ColResult<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.bad("varint too long"))
    }

    fn f64(&mut self) -> ColResult<f64> {
        if self.pos + 8 > self.buf.len() {
            return Err(ColErr::Eof);
        }
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_le_bytes(bytes))
    }

    fn string(&mut self) -> ColResult<String> {
        let len = self.varint()? as usize;
        if len > 1 << 20 {
            return Err(self.bad("string too long"));
        }
        if self.pos + len > self.buf.len() {
            return Err(ColErr::Eof);
        }
        let s = std::str::from_utf8(&self.buf[self.pos..self.pos + len])
            .map_err(|_| self.bad("invalid utf-8"))?
            .to_string();
        self.pos += len;
        Ok(s)
    }

    /// Clamped preallocation (see [`bounded_capacity`]).
    fn bounded_vec<T>(&self, count: usize) -> Vec<T> {
        Vec::with_capacity(bounded_capacity(
            count,
            self.buf.len().saturating_sub(self.pos),
        ))
    }
}

struct ColHeader {
    app: String,
    ranks: u32,
    exec: f64,
    comms: Vec<Vec<Rank>>,
    nchunks: u64,
}

/// Read the header; the caller has already verified the magic and
/// positioned the reader after it.
fn read_header(r: &mut ColReader) -> ColResult<ColHeader> {
    let app = r.string()?;
    let ranks = r.varint()? as u32;
    let exec = r.f64()?;
    let num_comms = r.varint()?;
    if num_comms > 1 << 20 {
        return Err(r.bad("unreasonable communicator count"));
    }
    let mut comms = r.bounded_vec(num_comms as usize);
    for _ in 0..num_comms {
        let size = r.varint()? as usize;
        if size > (ranks as usize).max(1) {
            return Err(r.bad("communicator larger than the world"));
        }
        let mut members = r.bounded_vec(size);
        for _ in 0..size {
            members.push(Rank(r.varint()? as u32));
        }
        comms.push(members);
    }
    let nchunks = r.varint()?;
    Ok(ColHeader {
        app,
        ranks,
        exec,
        comms,
        nchunks,
    })
}

/// Read one chunk's frame preamble: event count and payload length, with
/// sanity bounds so a corrupted varint cannot demand absurd allocations.
fn read_frame_meta(r: &mut ColReader) -> ColResult<(usize, usize)> {
    let nevents = r.varint()?;
    if nevents > 1 << 32 {
        return Err(r.bad("unreasonable chunk event count"));
    }
    let payload_len = r.varint()?;
    if payload_len > 1 << 40 {
        return Err(r.bad("unreasonable chunk payload size"));
    }
    // Every event costs at least one timestamp byte and one kind byte.
    if payload_len < 2 * nevents {
        return Err(r.bad("chunk payload shorter than its event count implies"));
    }
    Ok((nevents as usize, payload_len as usize))
}

/// Decode one complete chunk payload. `base` is the payload's absolute
/// file offset; delta state starts fresh (chunks are independent).
fn decode_chunk(
    payload: &[u8],
    base: usize,
    nevents: usize,
    ranks: u32,
) -> Result<Vec<TimedEvent>> {
    let mut r = ColReader {
        buf: payload,
        pos: 0,
        base,
    };
    let events =
        decode_chunk_inner(&mut r, nevents, ranks).map_err(|e| e.into_mpi(base + payload.len()))?;
    if r.pos != payload.len() {
        return Err(bad_at(base + r.pos, "trailing bytes in chunk payload"));
    }
    Ok(events)
}

fn decode_chunk_inner(r: &mut ColReader, nevents: usize, ranks: u32) -> ColResult<Vec<TimedEvent>> {
    let mut times = r.bounded_vec(nevents);
    let mut col = DeltaCol::new();
    for _ in 0..nevents {
        times.push(f64::from_bits(col.get(r)?));
    }
    let mut kinds: Vec<u8> = r.bounded_vec(nevents);
    for _ in 0..nevents {
        let k = r.byte()?;
        if k > 1 {
            return Err(r.bad("bad record kind"));
        }
        kinds.push(k);
    }
    let nsend = kinds.iter().filter(|&&k| k == 0).count();
    let ncoll = nevents - nsend;

    // Send columns.
    let mut srcs = r.bounded_vec(nsend);
    let mut col = DeltaCol::new();
    for _ in 0..nsend {
        srcs.push(col.get(r)? as u32);
    }
    let mut dsts = r.bounded_vec(nsend);
    let mut col = DeltaCol::new();
    for _ in 0..nsend {
        dsts.push(col.get(r)? as u32);
    }
    let mut counts = r.bounded_vec(nsend);
    let mut col = DeltaCol::new();
    for _ in 0..nsend {
        counts.push(col.get(r)?);
    }
    let mut datatypes = r.bounded_vec(nsend);
    for _ in 0..nsend {
        let code = r.byte()?;
        datatypes.push(datatype_from(code).ok_or_else(|| r.bad("bad datatype code"))?);
    }
    let mut tags = r.bounded_vec(nsend);
    for _ in 0..nsend {
        tags.push(r.varint()? as u32);
    }
    let mut send_repeats = r.bounded_vec(nsend);
    for _ in 0..nsend {
        send_repeats.push(r.varint()?);
    }

    // Collective columns.
    let mut ops = r.bounded_vec(ncoll);
    for _ in 0..ncoll {
        let code = r.byte()? as usize;
        ops.push(
            *CollectiveOp::ALL
                .get(code)
                .ok_or_else(|| r.bad("bad collective code"))?,
        );
    }
    let mut comms = r.bounded_vec(ncoll);
    for _ in 0..ncoll {
        comms.push(r.varint()? as u32);
    }
    let mut roots: Vec<Option<usize>> = r.bounded_vec(ncoll);
    for _ in 0..ncoll {
        let v = r.varint()?;
        roots.push(if v == 0 { None } else { Some((v - 1) as usize) });
    }
    let mut pkinds: Vec<u8> = r.bounded_vec(ncoll);
    for _ in 0..ncoll {
        let k = r.byte()?;
        if k > 1 {
            return Err(r.bad("bad payload marker"));
        }
        pkinds.push(k);
    }
    let nuniform = pkinds.iter().filter(|&&k| k == 0).count();
    let mut uniforms = r.bounded_vec(nuniform);
    for _ in 0..nuniform {
        uniforms.push(r.varint()?);
    }
    let mut perranks = r.bounded_vec(ncoll - nuniform);
    for _ in 0..ncoll - nuniform {
        let len = r.varint()? as usize;
        if len > (ranks as usize).max(1) {
            return Err(r.bad("payload vector larger than the world"));
        }
        let mut v = r.bounded_vec(len);
        for _ in 0..len {
            v.push(r.varint()?);
        }
        perranks.push(v);
    }
    let mut coll_repeats = r.bounded_vec(ncoll);
    for _ in 0..ncoll {
        coll_repeats.push(r.varint()?);
    }

    // Reassemble rows from the columns; the cursors walk each column once.
    let mut events = Vec::with_capacity(nevents);
    let (mut si, mut ci, mut ui, mut pi) = (0, 0, 0, 0);
    for (i, &k) in kinds.iter().enumerate() {
        let event = if k == 0 {
            let e = Event::Send {
                src: Rank(srcs[si]),
                dst: Rank(dsts[si]),
                count: counts[si],
                datatype: datatypes[si],
                tag: tags[si],
                repeat: send_repeats[si],
            };
            si += 1;
            e
        } else {
            let payload = if pkinds[ci] == 0 {
                let p = Payload::Uniform(uniforms[ui]);
                ui += 1;
                p
            } else {
                let p = Payload::PerRank(std::mem::take(&mut perranks[pi]));
                pi += 1;
                p
            };
            let e = Event::Collective {
                op: ops[ci],
                comm: CommId(comms[ci]),
                root: roots[ci],
                payload,
                repeat: coll_repeats[ci],
            };
            ci += 1;
            e
        };
        events.push(TimedEvent {
            time: times[i],
            event,
        });
    }
    Ok(events)
}

fn build_trace(header: ColHeader, events: Vec<TimedEvent>) -> Result<Trace> {
    let mut builder = TraceBuilder::new(header.app, header.ranks);
    for members in header.comms {
        builder.register_comm(members);
    }
    let mut trace = builder.exec_time_s(header.exec).build();
    trace.events = events;
    trace.validate()?;
    Ok(trace)
}

/// Parse a columnar trace from a complete in-memory buffer. The frame
/// table is scanned sequentially in O(chunks), then chunk payloads decode
/// in parallel.
pub fn parse_trace_columnar(buf: &[u8]) -> Result<Trace> {
    if buf.len() < MAGIC.len() || &buf[..MAGIC.len()] != MAGIC {
        return Err(MpiError::Invalid("missing columnar magic header".into()));
    }
    let mut r = ColReader {
        buf,
        pos: MAGIC.len(),
        base: 0,
    };
    let header = read_header(&mut r).map_err(|e| e.into_mpi(buf.len()))?;
    if header.nchunks as usize > buf.len() {
        // every chunk takes at least two frame bytes: cheap sanity bound
        return Err(bad_at(r.pos, "chunk count exceeds input size"));
    }

    struct Frame {
        start: usize,
        len: usize,
        nevents: usize,
    }
    let mut frames = Vec::with_capacity(header.nchunks as usize);
    let mut total_events = 0usize;
    for _ in 0..header.nchunks {
        let (nevents, payload_len) = read_frame_meta(&mut r).map_err(|e| e.into_mpi(buf.len()))?;
        if payload_len > buf.len() - r.pos {
            return Err(bad_at(r.pos, "chunk payload exceeds input size"));
        }
        total_events += nevents;
        frames.push(Frame {
            start: r.pos,
            len: payload_len,
            nevents,
        });
        r.pos += payload_len;
    }
    if r.pos != buf.len() {
        return Err(bad_at(r.pos, "trailing bytes after the last chunk"));
    }

    let ranks = header.ranks;
    let decoded = frames
        .par_chunks(1)
        .map(|fs| {
            let f = &fs[0];
            vec![decode_chunk(
                &buf[f.start..f.start + f.len],
                f.start,
                f.nevents,
                ranks,
            )]
        })
        .reduce(Vec::new, |mut a, mut b| {
            a.append(&mut b);
            a
        });
    let mut events = Vec::with_capacity(total_events);
    for chunk in decoded {
        events.extend(chunk?);
    }
    build_trace(header, events)
}

// ---- streaming parser ------------------------------------------------

/// Incremental columnar parser: feed arbitrary byte slices with
/// [`push`](ColStreamParser::push) and close with
/// [`finish`](ColStreamParser::finish). Decoded frames are dropped from
/// the internal buffer immediately, so resident input never exceeds the
/// header plus one frame regardless of trace size —
/// [`max_buffered`](ColStreamParser::max_buffered) reports the observed
/// peak for callers that assert the bound.
pub struct ColStreamParser {
    buf: Vec<u8>,
    consumed: usize,
    header: Option<ColHeader>,
    chunks_done: u64,
    events: Vec<TimedEvent>,
    max_buffered: usize,
}

impl Default for ColStreamParser {
    fn default() -> Self {
        Self::new()
    }
}

impl ColStreamParser {
    /// An empty parser expecting the magic header.
    pub fn new() -> Self {
        ColStreamParser {
            buf: Vec::new(),
            consumed: 0,
            header: None,
            chunks_done: 0,
            events: Vec::new(),
            max_buffered: 0,
        }
    }

    /// Feed the next bytes of the file. Malformed input fails immediately
    /// with the same byte-offset errors as [`parse_trace_columnar`];
    /// incomplete input is retained until more bytes arrive.
    pub fn push(&mut self, bytes: &[u8]) -> Result<()> {
        self.buf.extend_from_slice(bytes);
        self.max_buffered = self.max_buffered.max(self.buf.len());
        self.advance()
    }

    fn advance(&mut self) -> Result<()> {
        if self.header.is_none() {
            if self.buf.len() < MAGIC.len() {
                if !MAGIC.starts_with(&self.buf) {
                    return Err(MpiError::Invalid("missing columnar magic header".into()));
                }
                return Ok(());
            }
            if &self.buf[..MAGIC.len()] != MAGIC {
                return Err(MpiError::Invalid("missing columnar magic header".into()));
            }
            let mut r = ColReader {
                buf: &self.buf,
                pos: MAGIC.len(),
                base: self.consumed,
            };
            match read_header(&mut r) {
                Ok(h) => {
                    let end = r.pos;
                    self.header = Some(h);
                    self.discard(end);
                }
                Err(ColErr::Eof) => return Ok(()),
                Err(e) => return Err(e.into_mpi(self.consumed + self.buf.len())),
            }
        }
        let (ranks, nchunks) = {
            let h = self.header.as_ref().expect("header parsed above");
            (h.ranks, h.nchunks)
        };
        while self.chunks_done < nchunks {
            let mut r = ColReader {
                buf: &self.buf,
                pos: 0,
                base: self.consumed,
            };
            let (nevents, payload_len) = match read_frame_meta(&mut r) {
                Ok(m) => m,
                Err(ColErr::Eof) => return Ok(()),
                Err(e) => return Err(e.into_mpi(self.consumed + self.buf.len())),
            };
            let start = r.pos;
            if self.buf.len() - start < payload_len {
                return Ok(()); // wait for the rest of this frame
            }
            let decoded = decode_chunk(
                &self.buf[start..start + payload_len],
                self.consumed + start,
                nevents,
                ranks,
            )?;
            self.events.extend(decoded);
            self.chunks_done += 1;
            self.discard(start + payload_len);
        }
        Ok(())
    }

    fn discard(&mut self, n: usize) {
        self.buf.drain(..n);
        self.consumed += n;
    }

    /// Peak bytes ever retained across all pushes — the parser's memory
    /// bound (decoded events excluded; those are the output).
    pub fn max_buffered(&self) -> usize {
        self.max_buffered
    }

    /// Close the stream: every chunk must have arrived and no bytes may
    /// trail the last one. Returns the validated trace.
    pub fn finish(mut self) -> Result<Trace> {
        self.advance()?;
        let end = self.consumed + self.buf.len();
        let Some(header) = self.header.take() else {
            return Err(bad_at(end, "unexpected end of input"));
        };
        if self.chunks_done < header.nchunks {
            return Err(bad_at(end, "unexpected end of input"));
        }
        if !self.buf.is_empty() {
            return Err(bad_at(self.consumed, "trailing bytes after the last chunk"));
        }
        build_trace(header, self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dumpi::write_trace;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new("LULESH", 8).exec_time_s(54.14);
        let sub = b.register_comm(vec![Rank(0), Rank(2), Rank(4)]);
        b.send(Rank(0), Rank(1), 4096, 100);
        b.send_typed(Rank(3), Rank(7), 64, Datatype::Double, 9, 2);
        b.collective(CollectiveOp::Allreduce, None, Payload::Uniform(512), 10);
        b.collective_on(
            CollectiveOp::Gatherv,
            sub,
            Some(1),
            Payload::PerRank(vec![10, 20, 30]),
            3,
        );
        b.build()
    }

    fn bigger() -> Trace {
        let mut b = TraceBuilder::new("stencil", 16).exec_time_s(12.5);
        for i in 0..500u32 {
            let s = i % 16;
            b.send(Rank(s), Rank((s + 1) % 16), 1024 + (i as u64 % 7) * 64, 3);
            if i % 50 == 0 {
                b.collective(CollectiveOp::Allreduce, None, Payload::Uniform(64), 1);
            }
        }
        b.build()
    }

    #[test]
    fn roundtrip_is_lossless() {
        for chunk in [0usize, 1, 3, 7, 1 << 20] {
            for t in [sample(), bigger(), TraceBuilder::new("empty", 4).build()] {
                let bytes = write_trace_columnar_chunked(&t, chunk);
                let parsed = parse_trace_columnar(&bytes).unwrap();
                assert_eq!(parsed, t, "chunk size {chunk}");
            }
        }
    }

    #[test]
    fn roundtrips_through_text() {
        let t = sample();
        let text = write_trace(&t);
        let via_text = crate::dumpi::parse_trace(&text).unwrap();
        let col = write_trace_columnar(&via_text);
        let back = parse_trace_columnar(&col).unwrap();
        assert_eq!(back, t);
        assert_eq!(write_trace(&back), text);
        assert_eq!(write_trace_columnar(&back), col);
    }

    #[test]
    fn canonical_encoding_is_stable_across_reencode() {
        let t = bigger();
        let bytes = write_trace_columnar(&t);
        let reparsed = parse_trace_columnar(&bytes).unwrap();
        assert_eq!(write_trace_columnar(&reparsed), bytes);
    }

    #[test]
    fn columnar_is_smaller_than_text() {
        let t = bigger();
        let col = write_trace_columnar(&t);
        assert!(col.len() < write_trace(&t).len());
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(parse_trace_columnar(b"NOTMAGIC....").is_err());
        assert!(parse_trace_columnar(b"").is_err());
        assert!(parse_trace_columnar(b"NLDUMPI\x01").is_err());
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = write_trace_columnar_chunked(&sample(), 2);
        for cut in 0..bytes.len() {
            assert!(
                parse_trace_columnar(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = write_trace_columnar(&sample());
        bytes.push(0xff);
        assert!(parse_trace_columnar(&bytes).is_err());
    }

    #[test]
    fn corrupted_bytes_never_panic() {
        let bytes = write_trace_columnar_chunked(&sample(), 2);
        for i in 0..bytes.len() {
            let mut m = bytes.clone();
            m[i] ^= 0x55;
            if let Ok(parsed) = parse_trace_columnar(&m) {
                assert!(parsed.validate().is_ok());
            }
        }
    }

    #[test]
    fn errors_carry_byte_offsets() {
        let bytes = write_trace_columnar(&sample());
        let err = parse_trace_columnar(&bytes[..bytes.len() - 1])
            .unwrap_err()
            .to_string();
        assert!(err.contains("columnar trace, offset"), "{err}");
    }

    #[test]
    fn streaming_matches_one_shot_at_any_granularity() {
        let t = bigger();
        for chunk_events in [1usize, 37, 100] {
            let bytes = write_trace_columnar_chunked(&t, chunk_events);
            let whole = parse_trace_columnar(&bytes).unwrap();
            for push in [1usize, 13, 4096] {
                let mut p = ColStreamParser::new();
                for part in bytes.chunks(push) {
                    p.push(part).unwrap();
                }
                assert_eq!(
                    p.finish().unwrap(),
                    whole,
                    "push {push}, chunk {chunk_events}"
                );
            }
        }
    }

    #[test]
    fn streaming_buffer_stays_bounded() {
        let t = bigger();
        let bytes = write_trace_columnar_chunked(&t, 50);
        let mut p = ColStreamParser::new();
        for part in bytes.chunks(64) {
            p.push(part).unwrap();
        }
        // Header + one 50-event frame is far below the full file.
        assert!(
            p.max_buffered() < bytes.len() / 2,
            "buffered {} of {}",
            p.max_buffered(),
            bytes.len()
        );
        assert!(p.finish().is_ok());
    }

    #[test]
    fn streaming_rejects_incomplete_and_trailing() {
        let bytes = write_trace_columnar(&sample());
        let mut p = ColStreamParser::new();
        p.push(&bytes[..bytes.len() - 1]).unwrap();
        assert!(p.finish().is_err());

        let mut p = ColStreamParser::new();
        p.push(&bytes).unwrap();
        assert!(
            p.push(&[0xff]).is_err() || {
                let r = p.finish();
                r.is_err()
            }
        );
    }

    #[test]
    fn streaming_rejects_wrong_magic_early() {
        let mut p = ColStreamParser::new();
        assert!(p.push(b"NO").is_err());
        let mut p = ColStreamParser::new();
        assert!(p.push(b"NLDUMPI\x01rest").is_err());
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 1 << 40, -(1 << 40)] {
            assert_eq!(unzigzag(zigzag(v)), v, "value {v}");
        }
    }

    #[test]
    fn datatype_codes_roundtrip() {
        for dt in [
            Datatype::Byte,
            Datatype::Short,
            Datatype::Int,
            Datatype::Float,
            Datatype::Long,
            Datatype::Double,
            Datatype::Derived,
        ] {
            assert_eq!(datatype_from(datatype_code(dt)), Some(dt));
        }
        assert_eq!(datatype_from(7), None);
    }

    #[test]
    fn bounded_capacity_clamps() {
        assert_eq!(bounded_capacity(10, 4), 4);
        assert_eq!(bounded_capacity(3, 100), 3);
        assert_eq!(bounded_capacity(0, 0), 0);
    }
}
