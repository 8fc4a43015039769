//! Streaming sink: one JSON object per event, newline-delimited, written
//! to stderr or a file for offline analysis. Lines are formatted in place
//! (the event grammar is tiny); names go through `ape_json`'s escaper.

use crate::{Sink, SpanEvent};
use ape_json::escape;
use std::fs::File;
use std::io::{BufWriter, Stderr, Write};
use std::path::Path;
use std::sync::Mutex;

enum Target {
    Stderr(Stderr),
    File(BufWriter<File>),
    Buffer(Vec<u8>),
}

impl Target {
    fn write_line(&mut self, line: &str) {
        let _ = match self {
            Target::Stderr(s) => writeln!(s, "{line}"),
            Target::File(f) => writeln!(f, "{line}"),
            Target::Buffer(b) => writeln!(b, "{line}"),
        };
    }

    fn flush(&mut self) {
        let _ = match self {
            Target::Stderr(s) => s.flush(),
            Target::File(f) => f.flush(),
            Target::Buffer(_) => Ok(()),
        };
    }
}

/// A [`Sink`] that emits each event as one JSON line:
///
/// ```text
/// {"type":"span","name":"ape.l3.opamp","id":7,"parent":3,"tid":0,"depth":1,"start_ns":12000,"ns":81234}
/// {"type":"counter","name":"ape.cache.hit","delta":4}
/// {"type":"value","name":"anneal.accept_ratio","value":0.44}
/// ```
///
/// Non-finite values serialise as `null`, as does an absent span parent.
///
/// Output is flushed by [`Sink::flush_events`] (which [`crate::finish`],
/// [`crate::uninstall`] and the panic hook all call) *and* on drop, so a
/// scope-local sink never loses buffered lines.
pub struct JsonLinesSink {
    target: Mutex<Target>,
}

impl std::fmt::Debug for JsonLinesSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonLinesSink").finish_non_exhaustive()
    }
}

impl JsonLinesSink {
    /// Streams events to stderr.
    pub fn to_stderr() -> Self {
        JsonLinesSink {
            target: Mutex::new(Target::Stderr(std::io::stderr())),
        }
    }

    /// Streams events to the file at `path` (created/truncated).
    ///
    /// # Errors
    ///
    /// Propagates the `File::create` error.
    pub fn to_file(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(JsonLinesSink {
            target: Mutex::new(Target::File(BufWriter::new(File::create(path)?))),
        })
    }

    /// Collects events into an in-memory buffer (for tests and embedding).
    pub fn to_buffer() -> Self {
        JsonLinesSink {
            target: Mutex::new(Target::Buffer(Vec::new())),
        }
    }

    /// The buffered output so far, for sinks built with
    /// [`JsonLinesSink::to_buffer`] (empty otherwise).
    pub fn buffer_contents(&self) -> String {
        let guard = self.target.lock().unwrap_or_else(|e| e.into_inner());
        match &*guard {
            Target::Buffer(b) => String::from_utf8_lossy(b).into_owned(),
            _ => String::new(),
        }
    }

    fn emit(&self, line: &str) {
        let mut guard = self.target.lock().unwrap_or_else(|e| e.into_inner());
        guard.write_line(line);
    }
}

impl Drop for JsonLinesSink {
    /// Flush-on-drop guard: a sink torn down without an explicit
    /// [`crate::finish`] still leaves complete JSONL lines behind.
    fn drop(&mut self) {
        self.flush_events();
    }
}

/// Serialises an `f64` as a JSON number (`null` when non-finite).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // `{}` on f64 may print `5` for 5.0, which is still a valid JSON
        // number.
        format!("{v}")
    } else {
        "null".into()
    }
}

impl Sink for JsonLinesSink {
    fn on_span(&self, ev: &SpanEvent) {
        let parent = match ev.parent {
            Some(p) => p.to_string(),
            None => "null".into(),
        };
        self.emit(&format!(
            "{{\"type\":\"span\",\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"tid\":{},\"depth\":{},\"start_ns\":{},\"ns\":{}}}",
            escape(ev.name),
            ev.id,
            ev.tid,
            ev.depth,
            ev.start_ns,
            ev.dur_ns,
        ));
    }

    fn on_counter(&self, name: &'static str, delta: u64) {
        self.emit(&format!(
            "{{\"type\":\"counter\",\"name\":\"{}\",\"delta\":{delta}}}",
            escape(name)
        ));
    }

    fn on_value(&self, name: &'static str, v: f64) {
        self.emit(&format!(
            "{{\"type\":\"value\",\"name\":\"{}\",\"value\":{}}}",
            escape(name),
            json_f64(v)
        ));
    }

    fn on_gauge(&self, name: &'static str, v: f64) {
        self.emit(&format!(
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
            escape(name),
            json_f64(v)
        ));
    }

    fn flush_events(&self) {
        let mut guard = self.target.lock().unwrap_or_else(|e| e.into_inner());
        guard.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_one_per_line() {
        let s = JsonLinesSink::to_buffer();
        s.on_span(&SpanEvent {
            name: "a.b",
            id: 9,
            parent: Some(4),
            tid: 1,
            depth: 2,
            start_ns: 777,
            dur_ns: 12345,
        });
        s.on_counter("c", 7);
        s.on_value("v", 0.25);
        s.on_value("nan", f64::NAN);
        s.on_gauge("g", 3.0);
        s.on_gauge("q\"inf", f64::NEG_INFINITY);
        let out = s.buffer_contents();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 6);
        assert_eq!(
            lines[0],
            "{\"type\":\"span\",\"name\":\"a.b\",\"id\":9,\"parent\":4,\"tid\":1,\"depth\":2,\"start_ns\":777,\"ns\":12345}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"counter\",\"name\":\"c\",\"delta\":7}"
        );
        assert_eq!(
            lines[2],
            "{\"type\":\"value\",\"name\":\"v\",\"value\":0.25}"
        );
        assert_eq!(
            lines[3],
            "{\"type\":\"value\",\"name\":\"nan\",\"value\":null}"
        );
        assert_eq!(lines[4], "{\"type\":\"gauge\",\"name\":\"g\",\"value\":3}");
        // A non-finite value is `null`, not the canonical `"-inf"` string.
        let last = ape_json::parse(lines[5]).expect("line parses");
        assert_eq!(
            last.get("name").and_then(ape_json::Value::as_str),
            Some("q\"inf")
        );
        assert_eq!(last.get("value"), Some(&ape_json::Value::Null));
    }

    #[test]
    fn root_span_parent_serializes_null() {
        let s = JsonLinesSink::to_buffer();
        s.on_span(&SpanEvent {
            name: "root",
            id: 1,
            parent: None,
            tid: 0,
            depth: 0,
            start_ns: 0,
            dur_ns: 10,
        });
        assert!(s.buffer_contents().contains("\"parent\":null"));
    }
}
