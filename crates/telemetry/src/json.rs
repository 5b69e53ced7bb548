//! Minimal JSON emitter for machine-readable summaries and trace exports.
//!
//! The container has no registry access, so rather than vendoring a serde
//! stack for the one direction we need (emit only, never parse), this is a
//! small value tree with a deterministic renderer: object keys keep
//! insertion order, so two identical runs produce byte-identical files —
//! which is what the bit-identical Chrome trace-event export
//! ([`crate::trace`]) needs.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite float; non-finite values render as `null` (JSON has no
    /// NaN/Infinity).
    Num(f64),
    /// An integer, rendered without a decimal point.
    Int(i64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys render in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts (or replaces) `key` in an object, builder-style.
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an object — a misuse of the builder, not a
    /// data condition.
    pub fn set(mut self, key: &str, value: Json) -> Json {
        match &mut self {
            Json::Obj(entries) => {
                if let Some(e) = entries.iter_mut().find(|(k, _)| k == key) {
                    e.1 = value;
                } else {
                    entries.push((key.to_string(), value));
                }
                self
            }
            _ => panic!("Json::set on a non-object"),
        }
    }

    /// Renders the value as compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Renders the value as pretty-printed JSON with two-space indents and
    /// a trailing newline — the stable on-disk format.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    write!(out, "{x}").expect("String writes are infallible");
                } else {
                    out.push_str("null");
                }
            }
            Json::Int(i) => {
                write!(out, "{i}").expect("String writes are infallible");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items.len(), |out, i, ind| {
                items[i].write(out, ind);
            }),
            Json::Obj(entries) => write_seq(out, indent, '{', '}', entries.len(), |out, i, ind| {
                write_escaped(out, &entries[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                entries[i].1.write(out, ind);
            }),
        }
    }
}

/// Writes a delimited sequence, pretty or compact.
fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|d| d + 1);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = inner {
            out.push('\n');
            for _ in 0..d * 2 {
                out.push(' ');
            }
        }
        item(out, i, inner);
    }
    if let Some(d) = indent {
        out.push('\n');
        for _ in 0..d * 2 {
            out.push(' ');
        }
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("String writes are infallible");
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
    fn renders_scalars_and_escapes() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-3).render(), "-3");
        assert_eq!(Json::Num(1.5).render(), "1.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Str("a\"b\\c\nd".into()).render(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::Str("\u{1}".into()).render(), "\"\\u0001\"");
    }

    #[test]
    fn objects_keep_insertion_order_and_replace_in_place() {
        let j = Json::obj()
            .set("b", Json::Int(1))
            .set("a", Json::Int(2))
            .set("b", Json::Int(3));
        assert_eq!(j.render(), r#"{"b":3,"a":2}"#);
    }

    #[test]
    fn pretty_rendering_is_stable() {
        let j = Json::obj()
            .set("xs", Json::Arr(vec![Json::Int(1), Json::Int(2)]))
            .set("empty", Json::Arr(vec![]));
        let a = j.render_pretty();
        let b = j.render_pretty();
        assert_eq!(a, b);
        assert!(a.starts_with("{\n"));
        assert!(a.ends_with("}\n"));
        assert!(a.contains("\"xs\": [\n"));
        assert!(a.contains("\"empty\": []"));
    }
}
