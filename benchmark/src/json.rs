//! A JSON writer just large enough for the ledger's reports (the
//! workspace is offline, so there is no serde). Objects keep insertion
//! order, so two runs of the same code produce files that diff cleanly.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Whole numbers (counts, seeds) print without a decimal point.
    Int(u64),
    /// Measurements print with every digit `f64` holds; non-finite
    /// values print as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Multi-line rendering with two-space indentation, for files people
    /// read (`BENCHMARK.json`, `--out` reports).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, d: usize| out.push_str(&"  ".repeat(d));
        match self {
            // Leaf containers stay on one line so a metric entry reads as a row.
            Json::Arr(items) if items.iter().any(Json::is_container) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if fields.iter().any(|(_, v)| v.is_container()) => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, depth + 1);
                    out.push_str(&format!("{}: ", Json::str(k.as_str())));
                    v.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push('}');
            }
            other => out.push_str(&other.to_string()),
        }
    }

    fn is_container(&self) -> bool {
        matches!(self, Json::Arr(_) | Json::Obj(_))
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        '\t' => f.write_str("\\t")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                f.write_str("\"")
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {v}", Json::str(k.as_str()))?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_line_rendering() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            (
                "metrics",
                Json::obj([("a.b", Json::obj([("value", Json::Num(1.25))]))]),
            ),
            ("none", Json::Null),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"correct": true, "attempted": 1000, "metrics": {"a.b": {"value": 1.25}}, "none": null}"#
        );
    }

    #[test]
    fn numbers_keep_their_digits_and_non_finite_is_null() {
        assert_eq!(Json::Num(0.1 + 0.2).to_string(), "0.30000000000000004");
        assert_eq!(Json::Num(3.0).to_string(), "3.0");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        let escaped = Json::str("a\"b\\c\nd\u{1}").to_string();
        assert_eq!(escaped, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn pretty_keeps_leaf_objects_on_one_line() {
        let v = Json::obj([(
            "rows",
            Json::Arr(vec![Json::obj([
                ("name", Json::str("x")),
                ("n", Json::Int(1)),
            ])]),
        )]);
        assert_eq!(
            v.pretty(),
            "{\n  \"rows\": [\n    {\"name\": \"x\", \"n\": 1}\n  ]\n}\n"
        );
    }
}
