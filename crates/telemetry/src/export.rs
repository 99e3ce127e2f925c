//! Hand-rolled, dependency-free JSONL and CSV exporters.
//!
//! Output is fully deterministic: field order follows sample order, floats
//! print via Rust's shortest-roundtrip `Display`, and nothing depends on
//! hashing or wall-clock time.

use crate::record::{EpochRecord, FieldValue, HistSummary};
use crate::recorder::Telemetry;
use fgdram_model::json;
use std::io::{self, Write};

/// Appends `s` as a quoted JSON string.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    json::escape_into(out, s);
    out.push('"');
}

fn push_hist(out: &mut String, h: &HistSummary) {
    out.push_str(&format!("{{\"count\":{},\"p50\":{},\"p95\":{}}}", h.count, h.p50, h.p95));
}

fn push_field_value(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::U64(u) => out.push_str(&u.to_string()),
        FieldValue::F64(f) => json::push_f64(out, *f),
        FieldValue::Array(a) => {
            out.push('[');
            for (i, x) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&x.to_string());
            }
            out.push(']');
        }
        FieldValue::Hist(h) => push_hist(out, h),
    }
}

/// Renders one epoch as a single JSON object line (no trailing newline).
/// `meta` key/value pairs (workload name, architecture label, ...) lead
/// the object so every line is self-describing.
pub fn record_to_json(meta: &[(&str, &str)], r: &EpochRecord) -> String {
    let mut out = String::with_capacity(256);
    out.push('{');
    for (k, v) in meta {
        push_json_str(&mut out, k);
        out.push(':');
        push_json_str(&mut out, v);
        out.push(',');
    }
    out.push_str(&format!(
        "\"epoch\":{},\"start_ns\":{},\"end_ns\":{}",
        r.index, r.start_ns, r.end_ns
    ));
    for c in &r.components {
        out.push(',');
        push_json_str(&mut out, c.component);
        out.push_str(":{");
        for (i, (name, v)) in c.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            out.push(':');
            push_field_value(&mut out, v);
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// Writes the whole series as JSON Lines: one object per epoch, `\n`
/// terminated.
pub fn write_jsonl<W: Write>(w: &mut W, meta: &[(&str, &str)], t: &Telemetry) -> io::Result<()> {
    for r in &t.records {
        writeln!(w, "{}", record_to_json(meta, r))?;
    }
    Ok(())
}

/// Renders the whole series to one JSONL string (tests, small series).
pub fn to_jsonl_string(meta: &[(&str, &str)], t: &Telemetry) -> String {
    let mut s = String::new();
    for r in &t.records {
        s.push_str(&record_to_json(meta, r));
        s.push('\n');
    }
    s
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

/// Writes the series as CSV. The header comes from the first record:
/// meta keys, then `epoch,start_ns,end_ns`, then one
/// `component.field` column per scalar; histogram fields flatten to
/// `.count`/`.p50`/`.p95` columns and counter arrays to a `.sum` column
/// (full arrays stay JSONL-only).
pub fn write_csv<W: Write>(w: &mut W, meta: &[(&str, &str)], t: &Telemetry) -> io::Result<()> {
    write_csv_with_header(w, meta, t, true)
}

/// Like [`write_csv`], but lets the caller suppress the header line —
/// for appending several same-schema series (e.g. one per architecture)
/// to a single file with one leading header.
pub fn write_csv_with_header<W: Write>(
    w: &mut W,
    meta: &[(&str, &str)],
    t: &Telemetry,
    header_line: bool,
) -> io::Result<()> {
    let Some(first) = t.records.first() else { return Ok(()) };
    if header_line {
        let mut header = String::new();
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
                    FieldValue::Hist(_) => {
                        cols.push(format!("{base}.count"));
                        cols.push(format!("{base}.p50"));
                        cols.push(format!("{base}.p95"));
                    }
                    FieldValue::Array(_) => cols.push(format!("{base}.sum")),
                    _ => cols.push(base),
                }
            }
        }
        for (i, c) in cols.iter().enumerate() {
            if i > 0 {
                header.push(',');
            }
            push_csv_field(&mut header, c);
        }
        writeln!(w, "{header}")?;
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
                    FieldValue::U64(u) => line.push_str(&format!(",{u}")),
                    FieldValue::F64(f) => {
                        line.push(',');
                        if f.is_finite() {
                            line.push_str(&format!("{f}"));
                        }
                    }
                    FieldValue::Array(a) => line.push_str(&format!(",{}", a.iter().sum::<u64>())),
                    FieldValue::Hist(h) => {
                        line.push_str(&format!(",{},{},{}", h.count, h.p50, h.p95))
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
    use crate::record::ComponentRecord;

    fn sample_series() -> Telemetry {
        let rec = EpochRecord {
            index: 0,
            start_ns: 0,
            end_ns: 1000,
            components: vec![ComponentRecord {
                component: "ctrl",
                fields: vec![
                    ("reads", FieldValue::U64(42)),
                    ("hit_rate", FieldValue::F64(0.5)),
                    ("heat", FieldValue::Array(vec![1, 2, 3])),
                    ("lat", FieldValue::Hist(HistSummary { count: 9, p50: 64, p95: 128 })),
                ],
            }],
        };
        Telemetry { epoch_ns: 1000, records: vec![rec], dropped_epochs: 0 }
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
        t.records[0].components[0].fields = vec![("nan", FieldValue::F64(f64::NAN))];
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
        write_csv(&mut buf, &[("arch", "QB")], &t).unwrap();
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
        let t = Telemetry { epoch_ns: 10, records: vec![], dropped_epochs: 0 };
        assert_eq!(to_jsonl_string(&[], &t), "");
        let mut buf = Vec::new();
        write_csv(&mut buf, &[], &t).unwrap();
        assert!(buf.is_empty());
    }

    #[test]
    fn csv_quotes_special_chars() {
        let mut s = String::new();
        push_csv_field(&mut s, "a,b\"c");
        assert_eq!(s, "\"a,b\"\"c\"");
    }
}
