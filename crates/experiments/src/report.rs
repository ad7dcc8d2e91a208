//! The one result document every gated family writes.
//!
//! `scale`, `shard`, `multitree`, `bootstrap` and `loopback` each build
//! a [`Report`]. [`Report::render`] is the only `BENCH_<name>.json`
//! writer, and a non-empty [`Report::failures`] the only thing that
//! fails a run — the binary, the test-suite and CI all read that list.

use crate::table::Table;
use vdm_trace::json::ObjWriter;

/// One scalar of a report.
#[derive(Clone, Debug, PartialEq)]
pub enum Field {
    /// A count or id; printed as an integer.
    U64(u64),
    /// A measurement; non-finite values print as `null`.
    F64(f64),
    /// A tag.
    Str(String),
    /// A flag.
    Bool(bool),
}

/// `impl From<$t> for Field`, so call sites pass plain values.
macro_rules! field_from {
    ($($t:ty => $variant:ident,)*) => {$(
        impl From<$t> for Field {
            fn from(v: $t) -> Self {
                Field::$variant(v.into())
            }
        }
    )*};
}
field_from! { u64 => U64, f64 => F64, &str => Str, bool => Bool, }

impl From<usize> for Field {
    fn from(v: usize) -> Self {
        Field::U64(v as u64)
    }
}

/// A flat JSON object in the making: named scalars in insertion order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Fields(Vec<(&'static str, Field)>);

impl Fields {
    /// Append a field.
    pub fn with(mut self, key: &'static str, value: impl Into<Field>) -> Self {
        self.0.push((key, value.into()));
        self
    }

    /// The value stored under `key`.
    pub fn get(&self, key: &str) -> Option<&Field> {
        self.0.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    fn write(&self, w: &mut ObjWriter) {
        for (k, v) in &self.0 {
            match v {
                Field::U64(v) => w.u64(k, *v),
                Field::F64(v) => w.f64(k, *v),
                Field::Str(v) => w.str(k, v),
                Field::Bool(v) => w.bool(k, *v),
            };
        }
    }
}

/// A family's result: what `BENCH_<name>.json` holds, plus the tables
/// printed next to it.
#[derive(Clone, Debug)]
pub struct Report {
    /// The family; names the file and the document's `bench` field.
    pub name: &'static str,
    /// Rendered tables (terminal and CSV; not part of the document).
    pub tables: Vec<Table>,
    /// Run parameters and whole-run results.
    pub header: Fields,
    /// One flat object per measured point.
    pub points: Vec<Fields>,
    /// Every gate the run failed, as a message (empty = pass).
    pub failures: Vec<String>,
}

impl Report {
    /// The top-level scalars: `bench`, the header, then the failure
    /// count and messages.
    fn head(&self) -> ObjWriter {
        let mut w = ObjWriter::new();
        w.str("bench", self.name);
        self.header.write(&mut w);
        w.u64("failures", self.failures.len() as u64)
            .str("failure_detail", &self.failures.join("; "));
        w
    }

    /// The `BENCH_<name>.json` document: the top-level scalars, then
    /// `points`, one object per line.
    pub fn render(&self) -> String {
        let mut w = self.head();
        w.objects(
            "points",
            self.points.iter().map(|p| {
                let mut o = ObjWriter::new();
                p.write(&mut o);
                o.finish()
            }),
        );
        w.finish() + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdm_trace::json::{parse_flat_object, Value};

    /// Counts print as integers (`"failures":2`, never `2.0`), floats as
    /// floats, NaN as `null`, keys in insertion order, failure messages
    /// escaped onto the header's line — and the header and every point
    /// are flat objects `parse_flat_object` reads back.
    #[test]
    fn renders_one_flat_header_and_one_flat_object_per_point() {
        let point = |n: usize, protocol: &str, stretch: f64| {
            Fields::default()
                .with("n", n)
                .with("protocol", protocol)
                .with("stretch", stretch)
        };
        let r = Report {
            name: "demo",
            tables: Vec::new(),
            header: Fields::default()
                .with("k1_identical", true)
                .with("seed", 42u64)
                .with("median_s", f64::NAN),
            points: vec![point(64, "vdm", 1.25), point(128, "hmtp", 2.0)],
            failures: vec!["said \"no\"\nthen left".into(), "second".into()],
        };
        let doc = r.render();
        assert_eq!(
            doc,
            "{\"bench\":\"demo\",\"k1_identical\":true,\"seed\":42,\"median_s\":null,\"failures\":2,\
             \"failure_detail\":\"said \\\"no\\\"\\nthen left; second\",\"points\":[\n\
             {\"n\":64,\"protocol\":\"vdm\",\"stretch\":1.25},\n\
             {\"n\":128,\"protocol\":\"hmtp\",\"stretch\":2.0}\n]}\n"
        );
        let head = parse_flat_object(&r.head().finish()).expect("header parses");
        assert_eq!(head["k1_identical"], Value::Bool(true));
        assert!(head["median_s"].as_num().is_some_and(f64::is_nan));
        let detail = "said \"no\"\nthen left; second";
        assert_eq!(head["failure_detail"].as_str(), Some(detail));
        let last = parse_flat_object(doc.lines().nth(2).expect("two points")).expect("point");
        assert_eq!(last["n"].as_num(), Some(128.0));
        assert_eq!(last["protocol"].as_str(), Some("hmtp"));
    }
}
