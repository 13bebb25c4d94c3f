//! In-memory spans around the calls into each layer, written out as a
//! Chrome trace-event file when the traced pass ends.
//!
//! Spans are recorded from this package's own files only — the engine is
//! not instrumented. A span carries its name, start, end, the span that
//! caused it and the frame it belongs to; spans of one frame share the id.

use crate::json::Value;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub frame: u64,
    /// Display lane: 0 for the harness thread, `1 + stream` for spans
    /// reconstructed from a service's completions (they overlap in time).
    pub lane: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span that is a child of the innermost open span.
    /// Returns `f`'s result and the span's duration in milliseconds.
    pub fn span<T>(
        &mut self,
        name: &str,
        frame: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, f64) {
        let id = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name: name.to_owned(),
            start_us: self.us(start),
            end_us: 0.0,
            parent: self.open.last().copied(),
            frame,
            lane: 0,
        });
        self.open.push(id);
        let result = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[id].end_us = self.us(end);
        (result, self.spans[id].ms())
    }

    /// Adds a span whose ends were observed elsewhere (a served request:
    /// submitted on the harness thread, completed on a worker). Returns its
    /// id so children can name it as parent.
    pub fn add(
        &mut self,
        name: &str,
        frame: u64,
        lane: u32,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.spans.push(Span { name: name.to_owned(), start_us, end_us, parent, frame, lane });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The Chrome trace-event document (`chrome://tracing`, Perfetto).
    pub fn to_chrome(&self, header: &Value) -> Value {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = Value::obj().with("id", id).with("frame", s.frame);
                if let Some(p) = s.parent {
                    args.push("parent", p);
                }
                Value::obj()
                    .with("name", s.name.as_str())
                    .with("cat", s.name.split('.').next().unwrap_or("frame"))
                    .with("ph", "X")
                    .with("ts", s.start_us)
                    .with("dur", (s.end_us - s.start_us).max(0.0))
                    .with("pid", 1u64)
                    .with("tid", u64::from(s.lane))
                    .with("args", args)
            })
            .collect();
        Value::obj()
            .with("displayTimeUnit", "ms")
            .with("otherData", header.clone())
            .with("traceEvents", Value::Arr(events))
    }

    pub fn write_chrome(&self, path: &Path, header: &Value) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome(header).to_pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::time::Duration;

    #[test]
    fn spans_nest_under_the_open_span() {
        let mut rec = Recorder::new();
        let ((), outer_ms) = rec.span("frame", 7, |rec| {
            rec.span("session.execute", 7, |_| std::thread::sleep(Duration::from_millis(5)));
            std::thread::sleep(Duration::from_millis(2));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert_eq!((spans[0].frame, spans[1].frame), (7, 7));
        assert!(spans[1].start_us >= spans[0].start_us && spans[1].end_us <= spans[0].end_us);
        assert!(outer_ms >= 7.0);
        assert!(spans[1].ms() >= 5.0 && spans[1].ms() <= outer_ms - 2.0);
    }

    #[test]
    fn chrome_document_is_loadable_json() {
        let mut rec = Recorder::new();
        rec.span("frame", 0, |rec| rec.span("replay.coords.map_search", 0, |_| ()));
        let t = Instant::now();
        let parent = rec.add("frame", 1, 2, None, t, t + Duration::from_millis(3));
        rec.add("serve.submit_to_completion", 1, 2, Some(parent), t, t + Duration::from_millis(3));
        let doc =
            json::parse(&rec.to_chrome(&Value::obj().with("seed", 42u64)).to_pretty()).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert_eq!(events.len(), 4);
        for e in events {
            assert_eq!(e.get("ph").and_then(Value::as_str), Some("X"));
            assert!(e.get("ts").and_then(Value::as_f64).is_some());
            assert!(e.get("dur").and_then(Value::as_f64).unwrap() >= 0.0);
        }
        assert_eq!(events[1].get("cat").and_then(Value::as_str), Some("replay"));
        assert_eq!(
            events[3].get("args").and_then(|a| a.get("parent")).and_then(Value::as_f64),
            Some(2.0)
        );
        assert_eq!(events[3].get("tid").and_then(Value::as_f64), Some(2.0));
    }
}
