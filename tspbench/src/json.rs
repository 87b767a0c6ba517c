//! JSON emission (the workspace has no serde; the benchmark only writes).

use std::fmt::Write;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Whole numbers print without a fraction.
    Int(i64),
    /// Printed with every digit `f64` round-trips; non-finite values have
    /// no JSON form and print as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(key, out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_contract_line_shape() {
        let line = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            ("failed", Json::Int(0)),
            (
                "metrics",
                Json::obj([(
                    "op_p50_ms",
                    Json::obj([("value", Json::Num(1.2034)), ("unit", Json::str("ms"))]),
                )]),
            ),
        ]);
        assert_eq!(
            line.render(),
            r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"op_p50_ms": {"value": 1.2034, "unit": "ms"}}}"#
        );
    }

    #[test]
    fn escapes_strings_and_refuses_non_finite_numbers() {
        assert_eq!(
            Json::str("a\"b\\c\nd\u{1}").render(),
            r#""a\"b\\c\nd\u0001""#
        );
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(
            Json::Arr(vec![Json::Null, Json::Int(-3)]).render(),
            "[null, -3]"
        );
    }
}
