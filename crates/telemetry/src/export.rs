//! Dependency-free JSONL and CSV exporters; each JSONL line is written
//! through [`fgdram_model::json`]'s one object writer.
//!
//! Output is fully deterministic: field order follows sample order, floats
//! print via Rust's shortest-roundtrip `Display`, and nothing depends on
//! hashing or wall-clock time.

use crate::record::{hist_summary, Value};
use crate::recorder::Telemetry;
use fgdram_model::json;
use std::io::{self, Write};

/// Renders the whole series as JSON Lines: one object per epoch, `\n`
/// terminated. `meta` key/value pairs (workload name, architecture
/// label, ...) lead each object so every line is self-describing.
pub fn to_jsonl_string(meta: &[(&str, &str)], t: &Telemetry) -> String {
    let mut out = String::with_capacity(256 * t.records.len());
    for r in &t.records {
        json::object_into(&mut out, |o| {
            for (k, v) in meta {
                o.str(k, v);
            }
            o.u64("epoch", r.index).u64("start_ns", r.start_ns).u64("end_ns", r.end_ns);
            for c in &r.components {
                o.object(c.component, |o| {
                    for (name, v) in &c.fields {
                        match v {
                            Value::U64(u) => o.u64(name, *u),
                            Value::F64(f) => o.f64(name, *f),
                            Value::Array(a) => o.u64s(name, a),
                            Value::Hist(h) => o.object(name, |o| {
                                let [count, p50, p95] = hist_summary(h);
                                o.u64("count", count).u64("p50", p50).u64("p95", p95);
                            }),
                        };
                    }
                });
            }
        });
        out.push('\n');
    }
    out
}

/// Writes [`to_jsonl_string`]'s lines to `w`.
pub fn write_jsonl<W: Write>(w: &mut W, meta: &[(&str, &str)], t: &Telemetry) -> io::Result<()> {
    w.write_all(to_jsonl_string(meta, t).as_bytes())
}

/// Appends one CSV field, quoting when it contains a comma, quote, or
/// newline.
fn push_csv_field(out: &mut String, s: &str) {
    if s.contains([',', '"', '\n']) {
        out.push('"');
        out.push_str(&s.replace('"', "\"\""));
        out.push('"');
    } else {
        out.push_str(s);
    }
}

/// Writes the series as CSV, led by a header line when `header` is set;
/// clear it to append more same-schema series (e.g. one per
/// architecture) under one leading header. The header comes from the
/// first record: meta keys, then `epoch,start_ns,end_ns`, then one
/// `component.field` column per scalar; histogram fields flatten to
/// `.count`/`.p50`/`.p95` columns and counter arrays to a `.sum` column
/// (full arrays stay JSONL-only). An empty series writes nothing, not
/// even the header, so a caller appending series asks for the header
/// until it has written an epoch.
pub fn write_csv<W: Write>(
    w: &mut W,
    meta: &[(&str, &str)],
    t: &Telemetry,
    header: bool,
) -> io::Result<()> {
    let Some(first) = t.records.first() else { return Ok(()) };
    if header {
        let mut line = String::new();
        let mut cols: Vec<String> = Vec::new();
        for (k, _) in meta {
            cols.push((*k).to_string());
        }
        for c in ["epoch", "start_ns", "end_ns"] {
            cols.push(c.to_string());
        }
        for c in &first.components {
            for (name, v) in &c.fields {
                let base = format!("{}.{}", c.component, name);
                match v {
                    Value::Hist(_) => {
                        cols.push(format!("{base}.count"));
                        cols.push(format!("{base}.p50"));
                        cols.push(format!("{base}.p95"));
                    }
                    Value::Array(_) => cols.push(format!("{base}.sum")),
                    _ => cols.push(base),
                }
            }
        }
        for (i, c) in cols.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            push_csv_field(&mut line, c);
        }
        writeln!(w, "{line}")?;
    }

    for r in &t.records {
        let mut line = String::new();
        for (_, v) in meta {
            push_csv_field(&mut line, v);
            line.push(',');
        }
        line.push_str(&format!("{},{},{}", r.index, r.start_ns, r.end_ns));
        for c in &r.components {
            for (_, v) in &c.fields {
                match v {
                    Value::U64(u) => line.push_str(&format!(",{u}")),
                    Value::F64(f) => {
                        line.push(',');
                        if f.is_finite() {
                            line.push_str(&format!("{f}"));
                        }
                    }
                    Value::Array(a) => line.push_str(&format!(",{}", a.iter().sum::<u64>())),
                    Value::Hist(h) => {
                        let [count, p50, p95] = hist_summary(h);
                        line.push_str(&format!(",{count},{p50},{p95}"))
                    }
                }
            }
        }
        writeln!(w, "{line}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ComponentRecord, EpochRecord};
    use fgdram_model::stats::Log2Histogram;

    fn sample_series() -> Telemetry {
        let mut lat = Log2Histogram::new();
        for v in [40, 40, 40, 40, 40, 100, 100, 100, 100] {
            lat.record(v); // five in [32, 64), four in [64, 128)
        }
        let rec = EpochRecord {
            index: 0,
            start_ns: 0,
            end_ns: 1000,
            components: vec![ComponentRecord {
                component: "ctrl",
                fields: vec![
                    ("reads", Value::U64(42)),
                    ("hit_rate", Value::F64(0.5)),
                    ("heat", Value::Array(vec![1, 2, 3])),
                    ("lat", Value::Hist(Box::new(lat))),
                ],
            }],
        };
        Telemetry { epoch_ns: 1000, records: vec![rec] }
    }

    #[test]
    fn jsonl_shape() {
        let t = sample_series();
        let s = to_jsonl_string(&[("workload", "STREAM"), ("arch", "FGDRAM")], &t);
        assert_eq!(
            s,
            "{\"workload\":\"STREAM\",\"arch\":\"FGDRAM\",\"epoch\":0,\"start_ns\":0,\
             \"end_ns\":1000,\"ctrl\":{\"reads\":42,\"hit_rate\":0.5,\"heat\":[1,2,3],\
             \"lat\":{\"count\":9,\"p50\":64,\"p95\":128}}}\n"
        );
    }

    #[test]
    fn json_escapes_and_non_finite() {
        let mut t = sample_series();
        t.records[0].components[0].fields = vec![("nan", Value::F64(f64::NAN))];
        let s = to_jsonl_string(&[("workload", "a\"b\\c\nd\u{1}")], &t);
        assert_eq!(
            s,
            "{\"workload\":\"a\\\"b\\\\c\\nd\\u0001\",\"epoch\":0,\"start_ns\":0,\
             \"end_ns\":1000,\"ctrl\":{\"nan\":null}}\n"
        );
    }

    #[test]
    fn csv_flattens_hists_and_arrays() {
        let t = sample_series();
        let mut buf = Vec::new();
        write_csv(&mut buf, &[("arch", "QB")], &t, true).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let mut lines = s.lines();
        assert_eq!(
            lines.next().unwrap(),
            "arch,epoch,start_ns,end_ns,ctrl.reads,ctrl.hit_rate,ctrl.heat.sum,\
             ctrl.lat.count,ctrl.lat.p50,ctrl.lat.p95"
        );
        assert_eq!(lines.next().unwrap(), "QB,0,0,1000,42,0.5,6,9,64,128");
        assert!(lines.next().is_none());
    }

    #[test]
    fn empty_series_exports_empty() {
        let t = Telemetry { epoch_ns: 10, records: vec![] };
        assert_eq!(to_jsonl_string(&[], &t), "");
        let mut buf = Vec::new();
        write_csv(&mut buf, &[], &t, true).unwrap();
        assert!(buf.is_empty());
    }

    #[test]
    fn empty_leading_series_leaves_the_csv_header_due() {
        // Append series the way a multi-series file does: the header is
        // due until the first epoch has been written.
        let empty = Telemetry { epoch_ns: 1000, records: vec![] };
        let mut buf = Vec::new();
        let mut epochs = 0;
        for (arch, t) in [("QB", &empty), ("QB", &sample_series()), ("FG", &sample_series())] {
            write_csv(&mut buf, &[("arch", arch)], t, epochs == 0).unwrap();
            epochs += t.records.len();
        }
        let s = String::from_utf8(buf).unwrap();
        assert_eq!(s.lines().filter(|l| l.starts_with("arch,epoch")).count(), 1, "{s}");
        assert_eq!(s.lines().count(), 3);
        assert!(s.lines().nth(2).unwrap().starts_with("FG,0,"));
    }

    #[test]
    fn csv_quotes_special_chars() {
        let mut s = String::new();
        push_csv_field(&mut s, "a,b\"c");
        assert_eq!(s, "\"a,b\"\"c\"");
    }
}
