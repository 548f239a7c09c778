//! Zero-copy, chunk-parallel fast path for the dumpi-like text format.
//!
//! [`parse_trace_bytes`] returns exactly what the reference
//! [`parse_trace`](crate::dumpi::parse_trace) returns: the same [`Trace`]
//! for every valid input and the same error for every malformed one. It
//! decodes only input it accepts without doubt and hands everything else,
//! whole, to the reference:
//!
//! * The *header* (every line before the first `send `/`coll ` record) is
//!   parsed by the reference itself, the one header parser.
//! * The *body* is split at newline boundaries into chunks that rayon
//!   workers decode in one forward scan over `&[u8]`: no per-line
//!   `String`, no per-record `Vec<&str>`, integer fields decoded in place.
//!   Body records are stateless, so the chunks compose in order.
//! * The scan accepts blank lines, comments and well-formed `send`/`coll`
//!   records, nothing else. It gives up at the first line it does not
//!   accept: a malformed field, a header record after the first event, or
//!   a valid but unusual token such as `+0` or a 21-digit root. A give-up,
//!   a header the reference rejects, or any byte ≥ 0x80 (Unicode trimming
//!   rules) re-parses the whole input with the reference and returns its
//!   result, so every error is the reference's own.
//!
//! A clean parse is validated like the reference's: the reference would
//! have built the same [`Trace`], so its validation error is the one the
//! reference raises. A malformed input costs a second, sequential parse.
//! The differential oracle in `netloc-testkit` and the corruption property
//! tests compare both parsers over the whole corpus.

use crate::collective::{CollectiveOp, Payload};
use crate::comm::CommId;
use crate::datatype::Datatype;
use crate::dumpi::parse_trace;
use crate::error::{MpiError, Result};
use crate::event::{Event, TimedEvent};
use crate::rank::Rank;
use crate::trace::Trace;
use rayon::prelude::*;

/// Floor for the auto-selected parallel chunk size, in bytes. Chunks much
/// smaller than this spend more time on per-chunk bookkeeping than parsing.
const MIN_CHUNK_BYTES: usize = 64 * 1024;
/// Ceiling for the auto-selected chunk size (keeps per-chunk event vectors
/// and peak memory bounded on huge traces).
const MAX_CHUNK_BYTES: usize = 8 << 20;

/// Parse a trace from the dumpi-like text format, scanning raw bytes with
/// chunk-parallel body parsing.
///
/// Produces exactly the same result as
/// [`parse_trace`](crate::dumpi::parse_trace) — identical [`Trace`] on
/// success and an identical first error (same line number, same message)
/// on malformed input.
pub fn parse_trace_bytes(bytes: &[u8]) -> Result<Trace> {
    parse_trace_bytes_chunked(bytes, 0)
}

/// [`parse_trace_bytes`] with an explicit body chunk size in bytes
/// (`0` = pick automatically from the rayon worker count).
///
/// The result is invariant in `chunk_bytes`; the knob exists so the
/// property tests can force many chunk geometries.
pub fn parse_trace_bytes_chunked(bytes: &[u8], chunk_bytes: usize) -> Result<Trace> {
    match parse_clean(bytes, chunk_bytes) {
        Some(trace) => trace.validate().map(|()| trace),
        None => parse_trace(
            std::str::from_utf8(bytes)
                .map_err(|_| MpiError::Invalid("trace bytes are not valid UTF-8".into()))?,
        ),
    }
}

/// The fast path: the reference parses the header, the scan decodes the
/// body chunks. `None` when the input is not ASCII, the header is not
/// accepted, or any body line is not a blank line, a comment or a
/// well-formed `send`/`coll` record. The returned trace is not validated
/// yet.
///
/// Every partial event vector is dropped before this returns `None`, so
/// the caller's fallback never holds two event vectors at once.
fn parse_clean(bytes: &[u8], chunk_bytes: usize) -> Option<Trace> {
    if !bytes.is_ascii() {
        return None;
    }
    let start = body_start(bytes);
    let header = std::str::from_utf8(&bytes[..start]).expect("checked ASCII above");
    let mut trace = parse_trace(header).ok()?;
    let body = &bytes[start..];
    let chunks = split_at_newlines(body, chunk_target(chunk_bytes, body.len()));
    let parts = chunks
        .par_chunks(1)
        .map(|one| vec![parse_chunk(one[0])])
        .reduce(Vec::new, |mut a, mut b| {
            a.append(&mut b);
            a
        });
    let mut parts = parts.into_iter().collect::<Option<Vec<_>>>()?;
    trace.events = if parts.len() == 1 {
        // Move the one chunk's vector instead of copying it: the common
        // single-worker / small-input shape.
        parts.pop().expect("one chunk")
    } else {
        let mut events = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for part in parts {
            events.extend(part);
        }
        events
    };
    Some(trace)
}

/// Offset of the first line that begins `send ` or `coll ` after
/// intra-line separators, or the input's length if no line does.
fn body_start(bytes: &[u8]) -> usize {
    let mut start = 0;
    while start < bytes.len() {
        let line = &bytes[start..];
        let first = line.iter().position(|&b| !is_sep(b)).unwrap_or(line.len());
        if line[first..].starts_with(b"send ") || line[first..].starts_with(b"coll ") {
            return start;
        }
        start += line
            .iter()
            .position(|&b| b == b'\n')
            .map_or(line.len(), |i| i + 1);
    }
    start
}

/// Decode one body chunk, or `None` at its first line the scan does not
/// accept.
fn parse_chunk(chunk: &[u8]) -> Option<Vec<TimedEvent>> {
    let mut events = Vec::with_capacity(chunk.len() / 24 + 1);
    let mut pos = 0usize;
    while pos < chunk.len() {
        parse_record(chunk, &mut pos, &mut events)?;
    }
    Some(events)
}

/// Streaming scan of one line: a single forward pass that tokenizes and
/// decodes in place. Consumes through the line's `\n` on success.
fn parse_record(chunk: &[u8], pos: &mut usize, out: &mut Vec<TimedEvent>) -> Option<()> {
    let mut p = *pos;
    while p < chunk.len() && is_sep(chunk[p]) {
        p += 1;
    }
    let rest = &chunk[p..];
    if rest.starts_with(b"send ") {
        return fast_send(chunk, p + 5, pos, out);
    }
    if rest.starts_with(b"coll ") {
        return fast_coll(chunk, p + 5, pos, out);
    }
    if !matches!(rest.first(), None | Some(b'\n' | b'#')) {
        return None;
    }
    // A blank line or a comment: skip to the end of the line.
    *pos = rest
        .iter()
        .position(|&b| b == b'\n')
        .map_or(chunk.len(), |i| p + i + 1);
    Some(())
}

/// `send src dst count datatype tag repeat time`, decoded in one scan.
fn fast_send(chunk: &[u8], mut p: usize, pos: &mut usize, out: &mut Vec<TimedEvent>) -> Option<()> {
    let src = tok_u32(chunk, &mut p)?;
    let dst = tok_u32(chunk, &mut p)?;
    let count = tok_u64(chunk, &mut p)?;
    // `byte` dominates real traces; recognize it without the generic
    // token scan + name lookup. Anything else takes the general path.
    let datatype = {
        let mut q = p;
        while q < chunk.len() && is_sep(chunk[q]) {
            q += 1;
        }
        if chunk.len() > q + 4
            && &chunk[q..q + 4] == b"byte"
            && (is_sep(chunk[q + 4]) || chunk[q + 4] == b'\n')
        {
            p = q + 4;
            Datatype::Byte
        } else {
            Datatype::from_name(ascii_str(tok(chunk, &mut p)))?
        }
    };
    let tag = tok_u32(chunk, &mut p)?;
    let repeat = tok_u64(chunk, &mut p)?;
    let time = tok_f64(chunk, &mut p)?;
    *pos = line_end(chunk, p)?;
    out.push(TimedEvent {
        time,
        event: Event::Send {
            src: Rank(src),
            dst: Rank(dst),
            count,
            datatype,
            tag,
            repeat,
        },
    });
    Some(())
}

/// `coll op comm root payload repeat time`, decoded in one scan.
fn fast_coll(chunk: &[u8], mut p: usize, pos: &mut usize, out: &mut Vec<TimedEvent>) -> Option<()> {
    let op = CollectiveOp::from_name(ascii_str(tok(chunk, &mut p)))?;
    let comm = tok_u32(chunk, &mut p)?;
    let rt = tok(chunk, &mut p);
    let root = if rt == b"-" {
        None
    } else {
        Some(usize::try_from(atoi(rt)?).ok()?)
    };
    let pt = tok(chunk, &mut p);
    let payload = if let Some(b) = pt.strip_prefix(b"u:") {
        Payload::Uniform(atoi(b)?)
    } else {
        let list = pt.strip_prefix(b"v:")?.split(|&c| c == b',');
        Payload::PerRank(list.map(atoi).collect::<Option<_>>()?)
    };
    let repeat = tok_u64(chunk, &mut p)?;
    let time = tok_f64(chunk, &mut p)?;
    *pos = line_end(chunk, p)?;
    out.push(TimedEvent {
        time,
        event: Event::Collective {
            op,
            comm: CommId(comm),
            root,
            payload,
            repeat,
        },
    });
    Some(())
}

// ---------------------------------------------------------------------------
// Byte-level building blocks. Each accepts a subset of what the `str`
// operation the reference parser uses accepts, with the same result.
// ---------------------------------------------------------------------------

/// Intra-line separators: every ASCII byte `char::is_whitespace` accepts
/// except `\n`, which terminates the line (matching `str::lines` +
/// `trim`/`split_whitespace`). Note this includes vertical tab and form
/// feed, which `u8::is_ascii_whitespace` partly disagrees on.
#[inline]
const fn is_sep(b: u8) -> bool {
    matches!(b, b'\t' | 0x0b | 0x0c | b'\r' | b' ')
}

/// Next whitespace-delimited token on the current line (empty at line end).
#[inline]
fn tok<'a>(s: &'a [u8], pos: &mut usize) -> &'a [u8] {
    let mut p = *pos;
    while p < s.len() && is_sep(s[p]) {
        p += 1;
    }
    let start = p;
    while p < s.len() && !is_sep(s[p]) && s[p] != b'\n' {
        p += 1;
    }
    *pos = p;
    &s[start..p]
}

const ASCII_ZEROS: u64 = 0x3030_3030_3030_3030;

/// Per-byte `0x80` marker on every byte of `w` that is *not* an ASCII digit.
///
/// `x = b ^ b'0'` maps digits to 0..=9; a byte is a non-digit iff its low
/// seven bits exceed 9 (detected by the carry into bit 7 of `+ 0x76`) or its
/// high bit was already set.
#[inline]
const fn nondigit_bits(w: u64) -> u64 {
    let x = w ^ ASCII_ZEROS;
    let hi = x & 0x8080_8080_8080_8080;
    (((x & 0x7F7F_7F7F_7F7F_7F7F).wrapping_add(0x7676_7676_7676_7676)) | hi) & 0x8080_8080_8080_8080
}

/// Decode eight ASCII digits (first character in the lowest byte) to their
/// decimal value with three multiply-accumulate steps instead of a
/// byte-at-a-time loop whose exit branch mispredicts on every
/// variable-width field.
#[inline]
const fn parse8(w: u64) -> u64 {
    let v = (w & 0x0F0F_0F0F_0F0F_0F0F).wrapping_mul(2561) >> 8;
    let v = (v & 0x00FF_00FF_00FF_00FF).wrapping_mul(6_553_601) >> 16;
    (v & 0x0000_FFFF_0000_FFFF).wrapping_mul(42_949_672_960_001) >> 32
}

/// Scan and decode one decimal `u64` token in place. `None` (empty token,
/// non-digit byte, overflow) makes the scan give up on the line.
///
/// The hot shape reads the next eight bytes at once: the digit-run length
/// comes out of [`nondigit_bits`] branch-free, and [`parse8`] decodes the
/// (zero-padded) run without a loop. Runs of 8+ digits and tokens within
/// eight bytes of the buffer end take the scalar loop instead.
#[inline]
fn tok_u64(s: &[u8], pos: &mut usize) -> Option<u64> {
    let mut p = *pos;
    while p < s.len() && is_sep(s[p]) {
        p += 1;
    }
    if let Some(win) = s.get(p..p + 8) {
        let w = u64::from_le_bytes(win.try_into().expect("8-byte slice"));
        let k = (nondigit_bits(w).trailing_zeros() as usize) / 8;
        if k == 0 {
            return None;
        }
        if k < 8 {
            let next = win[k];
            if !is_sep(next) && next != b'\n' {
                return None;
            }
            *pos = p + k;
            // Shift the k digits up so the vacated low bytes read as
            // leading zeros (their low nibbles are 0).
            return Some(parse8(w << (8 * (8 - k))));
        }
    }
    scalar_u64(s, pos, p)
}

/// Byte-at-a-time `u64` decode from `start` (separators already skipped):
/// the fallback for 8+-digit runs and for tokens near the buffer end.
fn scalar_u64(s: &[u8], pos: &mut usize, start: usize) -> Option<u64> {
    let mut p = start;
    let mut v: u64 = 0;
    while p < s.len() {
        let d = s[p].wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        v = v.checked_mul(10)?.checked_add(d as u64)?;
        p += 1;
    }
    if p == start || (p < s.len() && !is_sep(s[p]) && s[p] != b'\n') {
        return None;
    }
    *pos = p;
    Some(v)
}

#[inline]
fn tok_u32(s: &[u8], pos: &mut usize) -> Option<u32> {
    tok_u64(s, pos).and_then(|v| u32::try_from(v).ok())
}

/// Decode one `f64` token: an exact fast path for plain short decimals,
/// falling back to `str::parse` (identical rounding either way — mantissa
/// and power of ten are both exactly representable on the fast path, so
/// the single division is correctly rounded just like the reference).
#[inline]
fn tok_f64(s: &[u8], pos: &mut usize) -> Option<f64> {
    let t = tok(s, pos);
    if t.is_empty() {
        return None;
    }
    fast_f64(t).or_else(|| ascii_str(t).parse().ok())
}

#[inline]
fn fast_f64(t: &[u8]) -> Option<f64> {
    const POW10: [f64; 18] = [
        1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
        1e17,
    ];
    // 17+ bytes means 16+ digits, whose mantissa cannot be exact in an
    // `f64`; skip the doomed scan (shortest-roundtrip `Display` output of
    // an arbitrary double is usually this long).
    if t.len() > 16 {
        return None;
    }
    let mut m: u64 = 0;
    let mut digits = 0usize;
    let mut frac_len = usize::MAX; // MAX = no '.' seen yet
    for (i, &b) in t.iter().enumerate() {
        let d = b.wrapping_sub(b'0');
        if d <= 9 {
            m = m * 10 + u64::from(d);
            digits += 1;
        } else if b == b'.' && frac_len == usize::MAX {
            frac_len = t.len() - i - 1;
        } else {
            return None;
        }
    }
    if digits == 0 || digits > 17 || m > (1u64 << 53) {
        return None;
    }
    Some(m as f64 / POW10[if frac_len == usize::MAX { 0 } else { frac_len }])
}

/// After the last field: only separators may remain before the newline.
/// Returns the position just past the line on success.
#[inline]
fn line_end(s: &[u8], mut p: usize) -> Option<usize> {
    while p < s.len() && is_sep(s[p]) {
        p += 1;
    }
    if p >= s.len() {
        Some(p)
    } else if s[p] == b'\n' {
        Some(p + 1)
    } else {
        None
    }
}

#[inline]
fn ascii_str(s: &[u8]) -> &str {
    // Callers only pass subslices of input already verified ASCII.
    std::str::from_utf8(s).unwrap_or("")
}

/// Fast in-place decimal decode. `Some(v)` guarantees `str::parse::<u64>`
/// would succeed with the same value; anything else (sign prefixes,
/// overflow, empty, stray bytes, more than 20 characters) makes the scan
/// give up on the line.
#[inline]
fn atoi(s: &[u8]) -> Option<u64> {
    if s.is_empty() || s.len() > 20 {
        return None;
    }
    let mut v: u64 = 0;
    for &b in s {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = v.checked_mul(10)?.checked_add(d as u64)?;
    }
    Some(v)
}

fn chunk_target(requested: usize, body_len: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    let workers = rayon::max_workers();
    if workers <= 1 {
        return body_len.max(1);
    }
    (body_len / (workers * 4)).clamp(MIN_CHUNK_BYTES, MAX_CHUNK_BYTES)
}

/// Split `body` into chunks of roughly `target` bytes, each ending on a
/// newline (except possibly the last), so every line lives in one chunk.
fn split_at_newlines(body: &[u8], target: usize) -> Vec<&[u8]> {
    let target = target.max(1);
    let mut chunks = Vec::with_capacity(body.len() / target + 1);
    let mut start = 0;
    while start < body.len() {
        let mut end = (start + target).min(body.len());
        if end < body.len() {
            match body[end..].iter().position(|&b| b == b'\n') {
                Some(i) => end += i + 1,
                None => end = body.len(),
            }
        }
        chunks.push(&body[start..end]);
        start = end;
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dumpi::{write_trace, MAGIC};
    use crate::trace::TraceBuilder;

    /// Both parsers on the same input must agree on everything observable.
    fn assert_agrees(text: &str) {
        for chunk in [0usize, 1, 7, 24, 1 << 20] {
            let seq = parse_trace(text);
            let par = parse_trace_bytes_chunked(text.as_bytes(), chunk);
            match (seq, par) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "trace mismatch (chunk={chunk})\n{text}"),
                (Err(a), Err(b)) => assert_eq!(
                    a.to_string(),
                    b.to_string(),
                    "error mismatch (chunk={chunk})\n{text}"
                ),
                (a, b) => panic!("outcome mismatch (chunk={chunk}): {a:?} vs {b:?}\n{text}"),
            }
        }
    }

    fn sample_text() -> String {
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
        write_trace(&b.build())
    }

    #[test]
    fn parses_roundtripped_trace_identically() {
        assert_agrees(&sample_text());
    }

    #[test]
    fn agrees_on_edge_case_inputs() {
        let m = MAGIC;
        for text in [
            "".to_string(),
            "\n".to_string(),
            " \n\n".to_string(),
            "not magic\n".to_string(),
            m.to_string(),
            format!("{m}\n"),
            format!("{m}\napp x\n"),
            format!("{m}\napp x\nranks 4\n"),
            format!("{m}\nranks 4\ntime 1\n"), // no app -> "unknown"
            format!("{m}\napp x\nranks 4\ntime 2.5\n\n# c\n"),
            format!("{m}\napp two words here\nranks 4\ntime 1\n"),
            format!("{m}\napp x\nranks 4\ntime 1\nsend 0 1 10 byte 0 1 0.5\n"),
            format!("{m}\napp x\nranks 4\ntime 1\nsend 0 1 10 byte 0 1 0.5"),
            format!("{m}\r\napp x\r\nranks 4\r\ntime 1\r\nsend 0 1 10 byte 0 1 0.5\r\n"),
            format!("{m}\napp x\nranks 4\ntime 1\n  send 0 1 10 byte 0 1 0.5  \n"),
            format!("{m}\napp x\nranks 4\ntime 1\ncoll barrier 0 - u:0 1 0.1\n"),
            format!("{m}\napp x\nranks 4\ntime 1\ncoll gatherv 0 1 v:1,2,3,4 2 0.1\n"),
            format!("{m}\napp x\nranks 4\ntime 1\ncomm 1 0,2\ncoll bcast 1 0 u:8 1 0.1\n"),
        ] {
            assert_agrees(&text);
        }
    }

    #[test]
    fn agrees_on_malformed_inputs_with_same_error_line() {
        let m = MAGIC;
        for text in [
            format!("{m}\nsend 0 1 10 byte 0 1 0.0\n"),
            format!("{m}\ncoll barrier 0 - u:0 1 0.0\n"),
            format!("{m}\ncomm 1 0,1\n"),
            format!("{m}\napp x\nranks 4\ntime 1\nfrobnicate 1 2\n"),
            format!("{m}\napp x\nranks 4\ntime 1\nsend 0 1 10 byte 0 1\n"),
            format!("{m}\napp x\nranks 4\ntime 1\nsend 0 1 10 byte 0 1 0.5 9\n"),
            format!("{m}\napp x\nranks 4\ntime 1\nsend 0 1 10 quux 0 1 0.5\n"),
            format!("{m}\napp x\nranks 4\ntime 1\nsend a 1 10 byte 0 1 0.5\n"),
            format!("{m}\napp x\nranks 4\ntime 1\nsend 0 1 10 byte 0 1 zzz\n"),
            format!("{m}\napp x\nranks 4\ntime 1\nsend 0 1 99999999999999999999999 byte 0 1 0\n"),
            format!("{m}\napp x\nranks 4\ntime 1\ncoll ibcast 0 - u:1 1 0.5\n"),
            format!("{m}\napp x\nranks 4\ntime 1\ncoll bcast 0 0 w:9 1 0.5\n"),
            format!("{m}\napp x\nranks 4\ntime 1\ncoll bcast 0 0 u:x 1 0.5\n"),
            format!("{m}\napp x\nranks 4\ntime 1\ncoll bcast 0 0 v:1,x 1 0.5\n"),
            format!("{m}\napp x\nranks 4\ntime 1\ncoll bcast 0 q u:1 1 0.5\n"),
            format!("{m}\napp x\nranks q\n"),
            format!("{m}\napp x\nranks 4\ntime q\n"),
            format!("{m}\napp x\nranks 4\ntime 1\ncomm 7 0,1\n"),
            format!("{m}\napp x\nranks 4\ntime 1\ncomm 1\n"),
            format!("{m}\napp x\nranks 4\ntime 1\ncomm 1 0,q\n"),
            format!("{m}\napp x\nranks 2\ntime 1\nsend 0 9 10 byte 0 1 0.0\n"),
            // error in a later line, exercising line accounting across chunks
            format!(
                "{m}\napp x\nranks 4\ntime 1\n{}send 0 x 1 byte 0 1 0.0\n",
                "send 0 1 10 byte 0 1 0.5\n".repeat(50)
            ),
        ] {
            assert_agrees(&text);
        }
    }

    #[test]
    fn header_after_body_falls_back_to_reference() {
        let m = MAGIC;
        // `time` after the first event is legal sequentially (last one
        // wins); the chunked path must detect it and agree.
        for text in [
            format!("{m}\napp x\nranks 4\ntime 1\nsend 0 1 10 byte 0 1 0.0\ntime 9\n"),
            format!("{m}\napp x\nranks 4\ntime 1\nsend 0 1 10 byte 0 1 0.0\ncomm 1 0,1\ncoll bcast 1 0 u:8 1 0.1\n"),
            format!("{m}\napp x\nranks 4\ntime 1\nsend 0 1 10 byte 0 1 0.0\nranks 2\n"),
        ] {
            assert_agrees(&text);
        }
    }

    #[test]
    fn non_ascii_input_matches_reference() {
        let m = MAGIC;
        // U+00A0 is Unicode whitespace the ASCII fast path cannot trim.
        assert_agrees(&format!("{m}\napp caf\u{e9}\nranks 4\ntime 1\n"));
        assert_agrees(&format!("{m}\u{a0}\napp x\nranks 4\ntime 1\n"));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let err = parse_trace_bytes(b"#NETLOC-DUMPI 1\n\xff\xfe\n").unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");
    }

    #[test]
    fn many_chunks_reassemble_in_order() {
        let mut b = TraceBuilder::new("big", 32).exec_time_s(2.0);
        for i in 0..500u32 {
            b.send(
                Rank(i % 32),
                Rank((i + 1) % 32),
                100 + u64::from(i),
                1 + u64::from(i % 3),
            );
        }
        let text = write_trace(&b.build());
        // Force tiny chunks so the body spans dozens of them.
        let seq = parse_trace(&text).unwrap();
        let par = parse_trace_bytes_chunked(text.as_bytes(), 64).unwrap();
        assert_eq!(seq, par);
    }

    /// The agreement tests above would still pass if the fast path handed
    /// every input to the reference; this pins which inputs it decodes.
    #[test]
    fn fast_path_decodes_clean_input_and_gives_up_on_the_rest() {
        let m = MAGIC;
        let head = format!("{m}\napp x\nranks 4\ntime 1\n");
        let mut b = TraceBuilder::new("big", 32).exec_time_s(2.0);
        for i in 0..500u32 {
            b.send(
                Rank(i % 32),
                Rank((i + 1) % 32),
                100 + u64::from(i),
                1 + u64::from(i % 3),
            );
        }
        for (text, chunk) in [
            (sample_text(), 0),
            (write_trace(&b.build()), 64),
            (
                format!("{m}\r\napp x\r\nranks 4\r\ntime 1\r\nsend 0 1 10 byte 0 1 0.5\r\n"),
                0,
            ),
            (
                format!("{head}  send 0 1 10 byte 0 1 0.5  \n\tcoll barrier 0 - u:0 1 0.1\t"),
                0,
            ),
            (
                format!(
                    "{m}\n\n# c\napp x\nranks 4\ntime 1\n\nsend 0 1 10 byte 0 1 0.5\n \n # c\n"
                ),
                0,
            ),
            (head.clone(), 0),
            // Parses cleanly; only validation rejects the rank.
            (
                format!("{m}\napp x\nranks 2\ntime 1\nsend 0 9 10 byte 0 1 0.0\n"),
                0,
            ),
        ] {
            assert!(parse_clean(text.as_bytes(), chunk).is_some(), "{text}");
        }

        let mut gives_up = vec![
            format!("{m}\nsend 0 1 10 byte 0 1 0.0\n"),
            format!("{m}\ncoll barrier 0 - u:0 1 0.0\n"),
            format!("{m}\ncomm 1 0,1\n"),
            format!("{m}\napp x\nranks q\n"),
            format!("{m}\napp x\nranks 4\ntime q\n"),
            format!("{m}\napp caf\u{e9}\nranks 4\ntime 1\n"),
            format!(
                "{head}{}send 0 x 1 byte 0 1 0.0\n",
                "send 0 1 10 byte 0 1 0.5\n".repeat(50)
            ),
        ];
        for line in [
            "frobnicate 1 2",
            "send 0 1 10 byte 0 1",
            "send 0 1 10 byte 0 1 0.5 9",
            "send 0 1 10 quux 0 1 0.5",
            "send a 1 10 byte 0 1 0.5",
            "send 0 1 10 byte 0 1 zzz",
            "send 0 1 99999999999999999999999 byte 0 1 0",
            "coll ibcast 0 - u:1 1 0.5",
            "coll bcast 0 0 w:9 1 0.5",
            "coll bcast 0 0 u:x 1 0.5",
            "coll bcast 0 0 v:1,x 1 0.5",
            "coll bcast 0 q u:1 1 0.5",
            "comm 7 0,1",
            "comm 1",
            "comm 1 0,q",
            "send 0 1 10 byte 0 1 0.0\ntime 9",
            "send 0 1 10 byte 0 1 0.0\ncomm 1 0,1",
            "send 0 1 10 byte 0 1 0.0\nranks 2",
            "send +0 1 10 byte 0 1 0.5",
        ] {
            gives_up.push(format!("{head}{line}\n"));
        }
        for text in &gives_up {
            for chunk in [0, 7] {
                assert!(parse_clean(text.as_bytes(), chunk).is_none(), "{text}");
            }
        }

        // A valid record the scan refuses still parses, through the reference.
        let plus = format!("{head}send +0 1 10 byte 0 1 0.5\n");
        let reference = parse_trace(&plus).unwrap();
        assert_eq!(parse_trace_bytes(plus.as_bytes()).unwrap(), reference);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let text = sample_text();
        let baseline = parse_trace_bytes(text.as_bytes()).unwrap();
        for workers in [1usize, 2, 4] {
            let prev = rayon::set_max_workers(workers);
            let got = parse_trace_bytes_chunked(text.as_bytes(), 32).unwrap();
            rayon::set_max_workers(prev);
            assert_eq!(baseline, got, "workers={workers}");
        }
    }
}
