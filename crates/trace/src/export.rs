//! Trace exporters: newline-delimited JSON and the Chrome
//! `trace_event` format (load the latter in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev)).
//!
//! Both are hand-rolled — the build environment is offline, so no serde
//! (see DESIGN.md, "Dependency policy"). Event payloads are flat maps
//! of integers and short strings, which keeps the writers trivial.

use std::fmt::Write as _;

use crate::event::{Event, EventKind};
use crate::ring::Tracer;

/// On-disk trace formats understood by the `--trace-format` flags.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line (the default).
    #[default]
    Jsonl,
    /// Chrome `trace_event` JSON array (instant + complete events).
    Chrome,
}

impl std::str::FromStr for TraceFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "jsonl" | "json" => Ok(TraceFormat::Jsonl),
            "chrome" | "trace_event" => Ok(TraceFormat::Chrome),
            other => Err(format!("unknown trace format `{other}` (jsonl|chrome)")),
        }
    }
}

/// Minimal JSON string escaping (control characters, quote, backslash).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// The event payload as `(field, value)` pairs; strings are marked so
/// the writers can quote them.
enum Field<'a> {
    U64(&'a str, u64),
    Str(&'a str, &'a str),
}

fn fields(kind: &EventKind) -> Vec<Field<'_>> {
    use EventKind as E;
    match kind {
        E::BlockTranslated { pc, len } => {
            vec![Field::U64("pc", *pc), Field::U64("len", u64::from(*len))]
        }
        E::CounterBump { pc, use_count }
        | E::Registered { pc, use_count }
        | E::RegisteredTwice { pc, use_count } => {
            vec![Field::U64("pc", *pc), Field::U64("use", *use_count)]
        }
        E::CounterFrozen {
            pc,
            use_count,
            registered,
        } => vec![
            Field::U64("pc", *pc),
            Field::U64("use", *use_count),
            Field::U64("registered", u64::from(*registered)),
        ],
        E::RegionFormed {
            region,
            entry_pc,
            blocks,
            kind,
        } => vec![
            Field::U64("region", *region),
            Field::U64("entry_pc", *entry_pc),
            Field::U64("blocks", u64::from(*blocks)),
            Field::Str("region_kind", kind.name()),
        ],
        E::RegionReformed {
            region,
            entry_pc,
            use_count,
        } => vec![
            Field::U64("region", *region),
            Field::U64("entry_pc", *entry_pc),
            Field::U64("use", *use_count),
        ],
        E::RegionRetired {
            region,
            entry_pc,
            entries,
            side_exits,
        } => vec![
            Field::U64("region", *region),
            Field::U64("entry_pc", *entry_pc),
            Field::U64("entries", *entries),
            Field::U64("side_exits", *side_exits),
        ],
        E::StoreHit { file }
        | E::StoreMiss { file }
        | E::StoreEvicted { file }
        | E::StoreQuarantined { file }
        | E::StoreOrphanSwept { file } => {
            vec![Field::Str("file", file)]
        }
        E::FsckRun {
            valid,
            corrupt,
            orphans,
            micros,
        } => vec![
            Field::U64("valid", *valid),
            Field::U64("corrupt", *corrupt),
            Field::U64("orphans", *orphans),
            Field::U64("micros", *micros),
        ],
        E::StoreIoRetry { file, attempt } => vec![
            Field::Str("file", file),
            Field::U64("attempt", u64::from(*attempt)),
        ],
        E::GuestRun { name } => vec![Field::Str("name", name)],
        E::CellQueued { bench, label }
        | E::CellStarted { bench, label }
        | E::CellCacheHit { bench, label }
        | E::CellCacheMiss { bench, label } => {
            vec![Field::Str("bench", bench), Field::Str("label", label)]
        }
        E::CellCommitted {
            bench,
            label,
            micros,
        } => vec![
            Field::Str("bench", bench),
            Field::Str("label", label),
            Field::U64("micros", *micros),
        ],
        E::CellRetried {
            bench,
            label,
            attempt,
            cause,
        } => vec![
            Field::Str("bench", bench),
            Field::Str("label", label),
            Field::U64("attempt", u64::from(*attempt)),
            Field::Str("cause", cause),
        ],
        E::CellFailed {
            bench,
            label,
            cause,
        } => vec![
            Field::Str("bench", bench),
            Field::Str("label", label),
            Field::Str("cause", cause),
        ],
        E::ServeConnAccepted { conn } => vec![Field::U64("conn", *conn)],
        E::ServeRequest { conn, op } => {
            vec![Field::U64("conn", *conn), Field::Str("op", op)]
        }
        E::ServeDone {
            conn,
            op,
            source,
            micros,
        } => vec![
            Field::U64("conn", *conn),
            Field::Str("op", op),
            Field::Str("source", source),
            Field::U64("micros", *micros),
        ],
        E::ServeRejected { conn, code } => {
            vec![Field::U64("conn", *conn), Field::Str("code", code)]
        }
        E::FaultInjected { site, occurrence } => vec![
            Field::Str("site", site),
            Field::U64("occurrence", *occurrence),
        ],
    }
}

fn write_fields(out: &mut String, fs: &[Field<'_>]) {
    for f in fs {
        match f {
            Field::U64(k, v) => {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            Field::Str(k, v) => {
                let _ = write!(out, ",\"{k}\":\"");
                escape_into(out, v);
                out.push('"');
            }
        }
    }
}

/// Renders events as newline-delimited JSON, one object per event:
/// `{"t_us":…,"tid":…,"kind":"…",…payload…}`.
#[must_use]
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        let _ = write!(
            out,
            "{{\"t_us\":{},\"tid\":{},\"kind\":\"{}\"",
            e.t_us,
            e.tid,
            e.kind.name()
        );
        write_fields(&mut out, &fields(&e.kind));
        out.push_str("}\n");
    }
    out
}

/// Renders events in Chrome `trace_event` format. [`EventKind::CellCommitted`]
/// becomes a complete (`"X"`) event spanning the cell's measured
/// duration; everything else becomes an instant (`"i"`) event.
#[must_use]
pub fn to_chrome_trace(events: &[Event]) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for e in events {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let name = e.kind.name();
        match &e.kind {
            EventKind::CellCommitted {
                bench,
                label,
                micros,
            } => {
                let start = e.t_us.saturating_sub(*micros);
                let _ = write!(out, "{{\"name\":\"",);
                escape_into(&mut out, bench);
                out.push('/');
                escape_into(&mut out, label);
                let _ = write!(
                    out,
                    "\",\"cat\":\"cell\",\"ph\":\"X\",\"ts\":{start},\"dur\":{micros},\
                     \"pid\":1,\"tid\":{},\"args\":{{\"kind\":\"{name}\"",
                    e.tid
                );
                write_fields(&mut out, &fields(&e.kind));
                out.push_str("}}");
            }
            kind => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"cat\":\"tpdbt\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{},\"pid\":1,\"tid\":{},\"args\":{{\"kind\":\"{name}\"",
                    e.t_us, e.tid
                );
                write_fields(&mut out, &fields(kind));
                out.push_str("}}");
            }
        }
    }
    out.push_str("]\n");
    out
}

/// Renders the tracer's retained events in `format`.
#[must_use]
pub fn render(tracer: &Tracer, format: TraceFormat) -> String {
    let events = tracer.events();
    match format {
        TraceFormat::Jsonl => to_jsonl(&events),
        TraceFormat::Chrome => to_chrome_trace(&events),
    }
}

/// Writes the tracer's retained events to `path` in `format`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_file(
    tracer: &Tracer,
    format: TraceFormat,
    path: impl AsRef<std::path::Path>,
) -> std::io::Result<()> {
    std::fs::write(path, render(tracer, format))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceRegionKind;

    fn sample() -> Vec<Event> {
        vec![
            Event {
                t_us: 10,
                tid: 0,
                kind: EventKind::RegionFormed {
                    region: 0,
                    entry_pc: 42,
                    blocks: 3,
                    kind: TraceRegionKind::Loop,
                },
            },
            Event {
                t_us: 900,
                tid: 1,
                kind: EventKind::CellCommitted {
                    bench: "mcf".into(),
                    label: "2k".into(),
                    micros: 250,
                },
            },
        ]
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let s = to_jsonl(&sample());
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"t_us\":10,\"tid\":0,\"kind\":\"region_formed\",\"region\":0,\
             \"entry_pc\":42,\"blocks\":3,\"region_kind\":\"loop\"}"
        );
        assert!(lines[1].contains("\"kind\":\"cell_committed\""));
        assert!(lines[1].contains("\"bench\":\"mcf\""));
        assert!(lines[1].contains("\"micros\":250"));
    }

    #[test]
    fn chrome_trace_makes_cells_spans() {
        let s = to_chrome_trace(&sample());
        assert!(s.starts_with('[') && s.trim_end().ends_with(']'));
        assert!(s.contains("\"ph\":\"i\""), "instant event present");
        assert!(
            s.contains("\"name\":\"mcf/2k\",\"cat\":\"cell\",\"ph\":\"X\",\"ts\":650,\"dur\":250"),
            "cell span with back-dated start: {s}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let events = vec![Event {
            t_us: 0,
            tid: 0,
            kind: EventKind::GuestRun {
                name: "we\"ird\\name\n".into(),
            },
        }];
        let s = to_jsonl(&events);
        assert!(s.contains("we\\\"ird\\\\name\\n"), "{s}");
    }

    #[test]
    fn format_parses() {
        assert_eq!("jsonl".parse::<TraceFormat>().unwrap(), TraceFormat::Jsonl);
        assert_eq!(
            "chrome".parse::<TraceFormat>().unwrap(),
            TraceFormat::Chrome
        );
        assert!("xml".parse::<TraceFormat>().is_err());
    }

    #[test]
    fn render_via_tracer_round_trips() {
        let t = Tracer::new();
        t.emit(EventKind::StoreMiss {
            file: "a-0001.tpst".into(),
        });
        let s = render(&t, TraceFormat::Jsonl);
        assert!(s.contains("\"kind\":\"store_miss\""));
        assert!(s.contains("\"file\":\"a-0001.tpst\""));
    }
}
