//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in a pre-sized buffer during the run and are written out as
//! JSON lines afterwards; nothing is formatted or allocated while timing.

use serde_json::Value as Json;
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Span names, one per layer boundary the benchmark calls through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanName {
    /// Root span of one op: the facade call plus the benchmark's own
    /// bookkeeping (sampling, logging, lag check).
    Op = 0,
    /// A whole read transaction as the client sees it.
    CoreReadTxn = 1,
    /// `TCacheSystem::update`: commit plus publish.
    CoreUpdate = 2,
    /// One `EdgeCache::read` of an interactive transaction.
    CacheRead = 3,
}

pub const SPAN_NAMES: [&str; 4] = ["bench.op", "core.read_txn", "core.update", "cache.read"];

/// Index of a span in its buffer; also its id in the written file.
pub type SpanId = u32;
pub const NO_SPAN: SpanId = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: u8,
    pub parent: SpanId,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What the run loop records spans into. The untraced run uses [`NoTrace`],
/// whose calls compile to nothing.
pub trait Tracer {
    fn begin(&mut self, name: SpanName, op: u64, parent: SpanId) -> SpanId;
    fn end(&mut self, span: SpanId);
}

pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn begin(&mut self, _name: SpanName, _op: u64, _parent: SpanId) -> SpanId {
        NO_SPAN
    }
    #[inline(always)]
    fn end(&mut self, _span: SpanId) {}
}

pub struct SpanBuf {
    pub spans: Vec<Span>,
    capacity: usize,
    clock: Instant,
}

impl SpanBuf {
    pub fn new(capacity: usize) -> Self {
        SpanBuf {
            spans: Vec::with_capacity(capacity),
            capacity,
            clock: Instant::now(),
        }
    }
}

impl Tracer for SpanBuf {
    #[inline]
    fn begin(&mut self, name: SpanName, op: u64, parent: SpanId) -> SpanId {
        if self.spans.len() == self.capacity {
            return NO_SPAN;
        }
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name: name as u8,
            parent,
            op,
            start_ns: self.clock.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        id
    }

    #[inline]
    fn end(&mut self, span: SpanId) {
        if span != NO_SPAN {
            self.spans[span as usize].end_ns = self.clock.elapsed().as_nanos() as u64;
        }
    }
}

/// Per span name: how many, total duration, and total self time (duration
/// minus the part covered by child spans).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self-time arithmetic over a span list: a span's self time is its
/// duration minus its children's durations.
pub fn totals_by_name(spans: &[Span]) -> [NameTotals; SPAN_NAMES.len()] {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NO_SPAN {
            child_ns[span.parent as usize] += span.end_ns.saturating_sub(span.start_ns);
        }
    }
    let mut totals = [NameTotals::default(); SPAN_NAMES.len()];
    for (span, children) in spans.iter().zip(child_ns) {
        let duration = span.end_ns.saturating_sub(span.start_ns);
        let entry = &mut totals[span.name as usize];
        entry.count += 1;
        entry.total_ns += duration;
        entry.self_ns += duration.saturating_sub(children);
    }
    totals
}

pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for (id, span) in spans.iter().enumerate() {
        write!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":",
            SPAN_NAMES[span.name as usize], span.op
        )?;
        if span.parent == NO_SPAN {
            out.write_all(b"null")?;
        } else {
            write!(out, "{}", span.parent)?;
        }
        writeln!(
            out,
            ",\"start_ns\":{},\"end_ns\":{}}}",
            span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

pub fn read_jsonl(path: &Path) -> Result<Vec<Span>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut spans = Vec::new();
    for (number, line) in std::io::BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| format!("{}: {e}", path.display()))?;
        let bad = |what: &str| format!("{}:{}: {what}", path.display(), number + 1);
        let json = Json::parse(&line).map_err(|e| bad(&e.to_string()))?;
        let number_of = |key: &str| match json.get(key) {
            Some(Json::U64(n)) => Ok(*n),
            _ => Err(bad(&format!("missing number `{key}`"))),
        };
        let name = match json.get("name") {
            Some(Json::Str(name)) => SPAN_NAMES
                .iter()
                .position(|n| n == name)
                .ok_or_else(|| bad("unknown span name"))?
                as u8,
            _ => return Err(bad("missing `name`")),
        };
        let parent = match json.get("parent") {
            Some(Json::Null) => NO_SPAN,
            Some(Json::U64(p)) if (*p as usize) < spans.len() => *p as SpanId,
            _ => return Err(bad("`parent` must be null or an earlier span id")),
        };
        spans.push(Span {
            name,
            parent,
            op: number_of("op")?,
            start_ns: number_of("start_ns")?,
            end_ns: number_of("end_ns")?,
        });
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: SpanName, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name as u8,
            parent,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // op [0,100] -> read_txn [10,90] -> cache.read [20,40], [50,70]
        let spans = vec![
            span(SpanName::Op, NO_SPAN, 0, 100),
            span(SpanName::CoreReadTxn, 0, 10, 90),
            span(SpanName::CacheRead, 1, 20, 40),
            span(SpanName::CacheRead, 1, 50, 70),
            span(SpanName::Op, NO_SPAN, 100, 130),
            span(SpanName::CoreUpdate, 4, 105, 125),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals[SpanName::Op as usize],
            NameTotals {
                count: 2,
                total_ns: 130,
                self_ns: 30
            }
        );
        assert_eq!(
            totals[SpanName::CoreReadTxn as usize],
            NameTotals {
                count: 1,
                total_ns: 80,
                self_ns: 40
            }
        );
        assert_eq!(
            totals[SpanName::CacheRead as usize],
            NameTotals {
                count: 2,
                total_ns: 40,
                self_ns: 40
            }
        );
        assert_eq!(totals[SpanName::CoreUpdate as usize].self_ns, 20);
        // Self times add up to the root spans' total.
        let self_sum: u64 = totals.iter().map(|t| t.self_ns).sum();
        assert_eq!(self_sum, 130);
    }

    #[test]
    fn buffer_stops_recording_when_full_and_round_trips_through_jsonl() {
        let mut buf = SpanBuf::new(3);
        let root = buf.begin(SpanName::Op, 9, NO_SPAN);
        let child = buf.begin(SpanName::CoreUpdate, 9, root);
        buf.end(child);
        buf.end(root);
        let third = buf.begin(SpanName::Op, 10, NO_SPAN);
        buf.end(third);
        assert_eq!(buf.begin(SpanName::Op, 11, NO_SPAN), NO_SPAN);
        buf.end(NO_SPAN);
        assert_eq!(buf.spans.len(), 3);
        assert!(buf.spans[0].end_ns >= buf.spans[1].end_ns);

        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-test-{}", std::process::id()));
        let path = dir.join("spans.jsonl");
        write_jsonl(&path, &buf.spans).unwrap();
        let back = read_jsonl(&path).unwrap();
        assert_eq!(back, buf.spans);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
