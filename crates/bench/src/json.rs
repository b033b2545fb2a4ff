//! A minimal JSON value with a recursive-descent parser and one writer:
//! every section builds its fragment of `BENCH_perf.json` as a [`Json`],
//! a `BENCH_history.jsonl` row is one, and the committed baseline
//! (`results/bench_baseline.json`) is read back through the same type —
//! keeping the harness zero-dependency like `seg-obs`'s encoders.
//!
//! The parser supports the full JSON value grammar except `\u` escapes;
//! the writer escapes what the parser unescapes, so `parse(write(v)) == v`
//! for every value without a non-finite number (those are refused).

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as f64; the baseline stores seconds).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order normalized).
    Obj(BTreeMap<String, Json>),
}

/// `impl From<$from> for Json`, through `$to`.
macro_rules! json_from {
    ($($from:ty => $to:expr),* $(,)?) => {$(
        impl From<$from> for Json {
            fn from(v: $from) -> Json {
                $to(v)
            }
        }
    )*};
}

json_from!(
    f64 => Json::Num,
    bool => Json::Bool,
    &str => |s: &str| Json::Str(s.to_string()),
    u64 => |n| Json::Num(n as f64),
    usize => |n| Json::Num(n as f64),
);

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of whatever converts into values.
    pub fn arr<V: Into<Json>>(items: impl IntoIterator<Item = V>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// `v` rounded to `digits` decimals: seconds keep nine, rates three,
    /// so a report reads like the hand-formatted one it replaces.
    #[must_use]
    pub fn num(v: f64, digits: i32) -> Json {
        let scale = 10f64.powi(digits);
        Json::Num((v * scale).round() / scale)
    }

    /// The value as one line of JSON.
    ///
    /// # Errors
    ///
    /// Refuses a non-finite number (JSON has no spelling for one).
    pub fn to_line(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write(&mut out, None)?;
        Ok(out)
    }

    /// The value indented two spaces per level, a container of scalars
    /// on one line, newline-terminated.
    ///
    /// # Errors
    ///
    /// Refuses a non-finite number.
    pub fn to_pretty(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write(&mut out, Some(0))?;
        out.push('\n');
        Ok(out)
    }

    fn is_container(&self) -> bool {
        matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    /// `depth` is the indentation of the enclosing line; `None` writes
    /// everything on one line.
    fn write(&self, out: &mut String, depth: Option<usize>) -> Result<(), JsonError> {
        let (open, close, members): (char, char, Vec<(Option<&String>, &Json)>) = match self {
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(map) => ('{', '}', map.iter().map(|(k, v)| (Some(k), v)).collect()),
            Json::Num(n) if !n.is_finite() => {
                return Err(JsonError {
                    at: out.len(),
                    msg: format!("{n} has no JSON spelling"),
                })
            }
            scalar => {
                match scalar {
                    Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                    Json::Num(n) => out.push_str(&n.to_string()),
                    Json::Str(s) => write_str(out, s),
                    _ => out.push_str("null"),
                }
                return Ok(());
            }
        };
        // One member per line only where a member is itself a container.
        let inner = depth.filter(|_| members.iter().any(|(_, v)| v.is_container()));
        out.push(open);
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push_str(if inner.is_some() { "," } else { ", " });
            }
            if let Some(depth) = inner {
                out.push('\n');
                out.push_str(&"  ".repeat(depth + 1));
            }
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, inner.map(|d| d + 1))?;
        }
        if let Some(depth) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push(close);
        Ok(())
    }

    /// Member lookup on objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as f64, if numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as &str, if a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The object's entries, if an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Writes `s` quoted, escaping exactly what [`parse`] unescapes.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out.push('"');
}

/// Parse or write failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input or trailing garbage.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let bytes = input.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// The comma-separated `item`s between the bracket at the cursor
    /// and `close`.
    fn members<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => return Err(self.err(&format!("expected ',' or {:?}", close as char))),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        let members = self.members(b'}', |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            Ok((key, p.value()?))
        })?;
        Ok(Json::Obj(members.into_iter().collect()))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        Ok(Json::Arr(self.members(b']', Self::value)?))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        _ => return Err(self.err("unsupported escape")),
                    });
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let ch = s.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_baseline_shaped_document() {
        let doc = r#"{
  "gcm_mbps": 123.4,
  "ops": {
    "upload_1m": {"mean_s": 0.0123, "ci95_s": 0.0004},
    "download_1m": {"mean_s": 0.01, "ci95_s": 0.0}
  }
}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("gcm_mbps").unwrap().as_f64(), Some(123.4));
        let up = v.get("ops").unwrap().get("upload_1m").unwrap();
        assert_eq!(up.get("mean_s").unwrap().as_f64(), Some(0.0123));
        assert_eq!(v.get("ops").unwrap().as_obj().unwrap().len(), 2);
    }

    #[test]
    fn parses_scalars_arrays_and_escapes() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(
            parse(r#""a\"b\n""#).unwrap(),
            Json::Str("a\"b\n".to_string())
        );
        assert_eq!(
            parse("[1, 2, [3]]").unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.0),
                Json::Arr(vec![Json::Num(3.0)])
            ])
        );
        assert_eq!(parse("{}").unwrap(), Json::Obj(BTreeMap::new()));
    }

    #[test]
    fn what_is_written_parses_back_equal() {
        let report = Json::obj([
            ("gcm_backend", Json::from("aesni-pclmul")),
            (
                "note",
                Json::from("a \"quoted\" path\\with\ttab,\nnewline, \r and µ"),
            ),
            ("unbalanced_phases", Json::from(0u64)),
            ("empty", Json::obj::<&str>([])),
            (
                "workloads",
                Json::obj([(
                    "upload_1m",
                    Json::obj([
                        ("mean_s", Json::num(0.001_969_997_4, 9)),
                        ("runs", 10usize.into()),
                    ]),
                )]),
            ),
            (
                "points",
                Json::arr([
                    Json::obj([("mix", "disjoint".into()), ("ok", true.into())]),
                    Json::arr([-1.5e-7, 3.0]),
                    Json::Null,
                ]),
            ),
        ]);
        for text in [report.to_line().unwrap(), report.to_pretty().unwrap()] {
            assert_eq!(parse(&text).unwrap(), report, "{text}");
        }
        // A leaf object stays on one line; an integer has no fraction.
        let pretty = report.to_pretty().unwrap();
        assert!(pretty.contains("    \"upload_1m\": {\"mean_s\": 0.001969997, \"runs\": 10}\n"));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(Json::arr([bad]).to_line().is_err(), "{bad}");
            assert!(Json::obj([("v", Json::Num(bad))]).to_pretty().is_err());
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\"}", "1 2", "tru", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn roundtrips_seg_obs_snapshot_json() {
        // The gate parses seg-obs's hand-rolled encoder output; make
        // sure the two stay compatible.
        let r = seg_obs::Registry::new();
        r.counter("seg_frames_total").add(3);
        r.histogram("seg_pfs_encrypt_ns").record(1000);
        let v = parse(&r.snapshot().to_json()).unwrap();
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("seg_frames_total")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
    }
}
