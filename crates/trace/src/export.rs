//! Trace exporters: newline-delimited JSON and the Chrome
//! `trace_event` format (load the latter in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev)).
//!
//! Both build each event as a [`Json`] object and render it with
//! [`Json::render`], so keys come out sorted. Event payloads are flat
//! maps of integers and short strings.

use crate::event::{Event, EventKind};
use crate::json::Json;
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

/// The event payload as `(field, value)` pairs.
fn payload(kind: &EventKind) -> Vec<(&'static str, Json)> {
    use EventKind as E;
    let num = Json::num;
    match kind {
        E::BlockTranslated { pc, len } => vec![("pc", num(*pc)), ("len", num(u64::from(*len)))],
        E::Registered { pc, use_count } | E::RegisteredTwice { pc, use_count } => {
            vec![("pc", num(*pc)), ("use", num(*use_count))]
        }
        E::CounterFrozen {
            pc,
            use_count,
            registered,
        } => vec![
            ("pc", num(*pc)),
            ("use", num(*use_count)),
            ("registered", num(u64::from(*registered))),
        ],
        E::RegionFormed {
            region,
            entry_pc,
            blocks,
            kind,
        } => vec![
            ("region", num(*region)),
            ("entry_pc", num(*entry_pc)),
            ("blocks", num(u64::from(*blocks))),
            ("region_kind", Json::str(kind.name())),
        ],
        E::RegionReformed {
            region,
            entry_pc,
            use_count,
        } => vec![
            ("region", num(*region)),
            ("entry_pc", num(*entry_pc)),
            ("use", num(*use_count)),
        ],
        E::RegionRetired {
            region,
            entry_pc,
            entries,
            side_exits,
        } => vec![
            ("region", num(*region)),
            ("entry_pc", num(*entry_pc)),
            ("entries", num(*entries)),
            ("side_exits", num(*side_exits)),
        ],
        E::StoreHit { file }
        | E::StoreMiss { file }
        | E::StoreEvicted { file }
        | E::StoreQuarantined { file }
        | E::StoreOrphanSwept { file } => vec![("file", Json::str(file))],
        E::FsckRun {
            valid,
            corrupt,
            orphans,
            micros,
        } => vec![
            ("valid", num(*valid)),
            ("corrupt", num(*corrupt)),
            ("orphans", num(*orphans)),
            ("micros", num(*micros)),
        ],
        E::StoreIoRetry { file, attempt } => vec![
            ("file", Json::str(file)),
            ("attempt", num(u64::from(*attempt))),
        ],
        E::GuestRun { name } => vec![("name", Json::str(name))],
        E::CellQueued { bench, label }
        | E::CellStarted { bench, label }
        | E::CellCacheHit { bench, label }
        | E::CellCacheMiss { bench, label } => {
            vec![("bench", Json::str(bench)), ("label", Json::str(label))]
        }
        E::CellCommitted {
            bench,
            label,
            micros,
        } => vec![
            ("bench", Json::str(bench)),
            ("label", Json::str(label)),
            ("micros", num(*micros)),
        ],
        E::CellRetried {
            bench,
            label,
            attempt,
            cause,
        } => vec![
            ("bench", Json::str(bench)),
            ("label", Json::str(label)),
            ("attempt", num(u64::from(*attempt))),
            ("cause", Json::str(cause)),
        ],
        E::CellFailed {
            bench,
            label,
            cause,
        } => vec![
            ("bench", Json::str(bench)),
            ("label", Json::str(label)),
            ("cause", Json::str(cause)),
        ],
        E::ServeConnAccepted { conn } => vec![("conn", num(*conn))],
        E::ServeRequest { conn, op } => vec![("conn", num(*conn)), ("op", Json::str(*op))],
        E::ServeDone {
            conn,
            op,
            source,
            micros,
        } => vec![
            ("conn", num(*conn)),
            ("op", Json::str(*op)),
            ("source", Json::str(*source)),
            ("micros", num(*micros)),
        ],
        E::ServeRejected { conn, code } => {
            vec![("conn", num(*conn)), ("code", Json::str(*code))]
        }
        E::FaultInjected { site, occurrence } => {
            vec![("site", Json::str(*site)), ("occurrence", num(*occurrence))]
        }
    }
}

/// The event's `kind` name followed by its payload.
fn kind_and_payload(kind: &EventKind) -> impl Iterator<Item = (&'static str, Json)> {
    std::iter::once(("kind", Json::str(kind.name()))).chain(payload(kind))
}

/// Renders events as newline-delimited JSON, one object per event:
/// `t_us`, `tid`, `kind` and the payload fields, keys sorted.
#[must_use]
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        let stamp = [("t_us", Json::num(e.t_us)), ("tid", Json::num(e.tid))];
        out.push_str(&Json::obj(stamp.into_iter().chain(kind_and_payload(&e.kind))).render());
        out.push('\n');
    }
    out
}

/// One event in Chrome `trace_event` form.
fn chrome_event(e: &Event) -> Json {
    let common = [
        ("pid", Json::num(1)),
        ("tid", Json::num(e.tid)),
        ("args", Json::obj(kind_and_payload(&e.kind))),
    ];
    let timing = match &e.kind {
        EventKind::CellCommitted {
            bench,
            label,
            micros,
        } => vec![
            ("name", Json::str(format!("{bench}/{label}"))),
            ("cat", Json::str("cell")),
            ("ph", Json::str("X")),
            ("ts", Json::num(e.t_us.saturating_sub(*micros))),
            ("dur", Json::num(*micros)),
        ],
        kind => vec![
            ("name", Json::str(kind.name())),
            ("cat", Json::str("tpdbt")),
            ("ph", Json::str("i")),
            ("s", Json::str("t")),
            ("ts", Json::num(e.t_us)),
        ],
    };
    Json::obj(common.into_iter().chain(timing))
}

/// Renders events in Chrome `trace_event` format, one event per line.
/// [`EventKind::CellCommitted`] becomes a complete (`"X"`) event
/// spanning the cell's measured duration; everything else becomes an
/// instant (`"i"`) event.
#[must_use]
pub fn to_chrome_trace(events: &[Event]) -> String {
    let lines: Vec<String> = events.iter().map(|e| chrome_event(e).render()).collect();
    format!("[{}]\n", lines.join(",\n"))
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
    use crate::json::parse;

    /// A string that needs escaping: quote, backslash, newline, tab and
    /// a control character.
    const WEIRD: &str = "we\"ird\\name\n\t\u{1}";

    /// The number of [`EventKind`] variants; [`sample`] holds one of
    /// each.
    const KINDS: usize = 27;

    /// One event of every kind, each beside the payload fields it must
    /// export.
    fn sample() -> Vec<(Event, Vec<(&'static str, Json)>)> {
        use EventKind as E;
        let n = Json::num;
        let s = Json::str;
        let kinds = vec![
            (
                E::BlockTranslated { pc: 1, len: 2 },
                vec![("pc", n(1)), ("len", n(2))],
            ),
            (
                E::Registered {
                    pc: 3,
                    use_count: 100,
                },
                vec![("pc", n(3)), ("use", n(100))],
            ),
            (
                E::RegisteredTwice {
                    pc: 3,
                    use_count: 200,
                },
                vec![("pc", n(3)), ("use", n(200))],
            ),
            (
                E::CounterFrozen {
                    pc: 4,
                    use_count: 150,
                    registered: 1,
                },
                vec![("pc", n(4)), ("use", n(150)), ("registered", n(1))],
            ),
            (
                E::RegionFormed {
                    region: 0,
                    entry_pc: 42,
                    blocks: 3,
                    kind: TraceRegionKind::Loop,
                },
                vec![
                    ("region", n(0)),
                    ("entry_pc", n(42)),
                    ("blocks", n(3)),
                    ("region_kind", s("loop")),
                ],
            ),
            (
                E::RegionReformed {
                    region: 5,
                    entry_pc: 6,
                    use_count: 7,
                },
                vec![("region", n(5)), ("entry_pc", n(6)), ("use", n(7))],
            ),
            (
                E::RegionRetired {
                    region: 8,
                    entry_pc: 9,
                    entries: 10,
                    side_exits: 11,
                },
                vec![
                    ("region", n(8)),
                    ("entry_pc", n(9)),
                    ("entries", n(10)),
                    ("side_exits", n(11)),
                ],
            ),
            (
                E::StoreHit {
                    file: "h.tpst".into(),
                },
                vec![("file", s("h.tpst"))],
            ),
            (
                E::StoreMiss {
                    file: "a-0001.tpst".into(),
                },
                vec![("file", s("a-0001.tpst"))],
            ),
            (
                E::StoreEvicted { file: WEIRD.into() },
                vec![("file", s(WEIRD))],
            ),
            (
                E::StoreIoRetry {
                    file: "r.tpst".into(),
                    attempt: 2,
                },
                vec![("file", s("r.tpst")), ("attempt", n(2))],
            ),
            (
                E::StoreQuarantined {
                    file: "q.tpst".into(),
                },
                vec![("file", s("q.tpst"))],
            ),
            (
                E::StoreOrphanSwept {
                    file: ".tmp-1".into(),
                },
                vec![("file", s(".tmp-1"))],
            ),
            (
                E::FsckRun {
                    valid: 12,
                    corrupt: 13,
                    orphans: 14,
                    micros: 15,
                },
                vec![
                    ("valid", n(12)),
                    ("corrupt", n(13)),
                    ("orphans", n(14)),
                    ("micros", n(15)),
                ],
            ),
            (E::GuestRun { name: WEIRD.into() }, vec![("name", s(WEIRD))]),
            (
                E::CellQueued {
                    bench: "gzip".into(),
                    label: "avep".into(),
                },
                vec![("bench", s("gzip")), ("label", s("avep"))],
            ),
            (
                E::CellStarted {
                    bench: "gzip".into(),
                    label: "train".into(),
                },
                vec![("bench", s("gzip")), ("label", s("train"))],
            ),
            (
                E::CellCacheHit {
                    bench: "gzip".into(),
                    label: "base".into(),
                },
                vec![("bench", s("gzip")), ("label", s("base"))],
            ),
            (
                E::CellCacheMiss {
                    bench: "gzip".into(),
                    label: "1k".into(),
                },
                vec![("bench", s("gzip")), ("label", s("1k"))],
            ),
            (
                E::CellCommitted {
                    bench: "mcf".into(),
                    label: "2k".into(),
                    micros: 250,
                },
                vec![("bench", s("mcf")), ("label", s("2k")), ("micros", n(250))],
            ),
            (
                E::CellRetried {
                    bench: "mcf".into(),
                    label: "5k".into(),
                    attempt: 1,
                    cause: WEIRD.into(),
                },
                vec![
                    ("bench", s("mcf")),
                    ("label", s("5k")),
                    ("attempt", n(1)),
                    ("cause", s(WEIRD)),
                ],
            ),
            (
                E::CellFailed {
                    bench: "mcf".into(),
                    label: "10k".into(),
                    cause: "guest trap".into(),
                },
                vec![
                    ("bench", s("mcf")),
                    ("label", s("10k")),
                    ("cause", s("guest trap")),
                ],
            ),
            (E::ServeConnAccepted { conn: 16 }, vec![("conn", n(16))]),
            (
                E::ServeRequest {
                    conn: 16,
                    op: "cell",
                },
                vec![("conn", n(16)), ("op", s("cell"))],
            ),
            (
                E::ServeDone {
                    conn: 16,
                    op: "cell",
                    source: "memory",
                    micros: 17,
                },
                vec![
                    ("conn", n(16)),
                    ("op", s("cell")),
                    ("source", s("memory")),
                    ("micros", n(17)),
                ],
            ),
            (
                E::ServeRejected {
                    conn: 0,
                    code: "overloaded",
                },
                vec![("conn", n(0)), ("code", s("overloaded"))],
            ),
            (
                E::FaultInjected {
                    site: "worker_panic",
                    occurrence: 18,
                },
                vec![("site", s("worker_panic")), ("occurrence", n(18))],
            ),
        ];
        kinds
            .into_iter()
            .zip(0u64..)
            .map(|((kind, fields), i)| {
                let event = Event {
                    t_us: 1000 + 10 * i,
                    tid: i % 3,
                    kind,
                };
                (event, fields)
            })
            .collect()
    }

    /// The `kind` name and the payload `fields`, as one object.
    fn args(kind: &EventKind, fields: &[(&'static str, Json)]) -> Vec<(&'static str, Json)> {
        let mut out = vec![("kind", Json::str(kind.name()))];
        out.extend(fields.iter().cloned());
        out
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let sample = sample();
        let names: std::collections::BTreeSet<&str> =
            sample.iter().map(|(e, _)| e.kind.name()).collect();
        assert_eq!(names.len(), KINDS, "one event of every kind");
        let events: Vec<Event> = sample.iter().map(|(e, _)| e.clone()).collect();
        let s = to_jsonl(&events);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), events.len());
        for (line, (e, fields)) in lines.iter().zip(&sample) {
            let mut expected = vec![("t_us", Json::num(e.t_us)), ("tid", Json::num(e.tid))];
            expected.extend(args(&e.kind, fields));
            assert_eq!(parse(line).unwrap(), Json::obj(expected), "{line}");
        }
        assert_eq!(
            lines[4],
            "{\"blocks\":3,\"entry_pc\":42,\"kind\":\"region_formed\",\"region\":0,\
             \"region_kind\":\"loop\",\"t_us\":1040,\"tid\":1}",
            "keys sorted"
        );
    }

    #[test]
    fn chrome_trace_makes_cells_spans() {
        let sample = sample();
        let events: Vec<Event> = sample.iter().map(|(e, _)| e.clone()).collect();
        let s = to_chrome_trace(&events);
        assert_eq!(s.lines().count(), events.len(), "one event per line");
        let Json::Arr(items) = parse(&s).unwrap() else {
            panic!("not an array: {s}");
        };
        assert_eq!(items.len(), events.len());
        for (item, (e, fields)) in items.iter().zip(&sample) {
            let mut expected = vec![
                ("pid", Json::num(1)),
                ("tid", Json::num(e.tid)),
                ("args", Json::obj(args(&e.kind, fields))),
            ];
            match &e.kind {
                EventKind::CellCommitted {
                    bench,
                    label,
                    micros,
                } => expected.extend([
                    ("name", Json::str(format!("{bench}/{label}"))),
                    ("cat", Json::str("cell")),
                    ("ph", Json::str("X")),
                    ("ts", Json::num(e.t_us - micros)),
                    ("dur", Json::num(*micros)),
                ]),
                kind => expected.extend([
                    ("name", Json::str(kind.name())),
                    ("cat", Json::str("tpdbt")),
                    ("ph", Json::str("i")),
                    ("s", Json::str("t")),
                    ("ts", Json::num(e.t_us)),
                ]),
            }
            assert_eq!(*item, Json::obj(expected));
        }
        assert!(
            s.contains("\"cat\":\"cell\",\"dur\":250,\"name\":\"mcf/2k\""),
            "cell span: {s}"
        );
        assert_eq!(to_chrome_trace(&[]), "[]\n");
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
