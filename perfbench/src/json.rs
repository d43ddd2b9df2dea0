//! A minimal JSON reader for the server's `STATS` document and the
//! writer for the benchmark's own result line. The tree builds without
//! crates.io, so there is no serde.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (read as `f64`; `STATS` counters stay far below 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete document.
    ///
    /// # Errors
    ///
    /// A message naming the byte offset of the first malformed token.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at {}", p.i));
        }
        Ok(v)
    }

    /// Object member `key`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number at `path` (object keys, outermost first).
    ///
    /// # Errors
    ///
    /// Names the path when a member is missing or not a number.
    pub fn num(&self, path: &[&str]) -> Result<f64, String> {
        let mut v = self;
        for k in path {
            v = v
                .get(k)
                .ok_or_else(|| format!("STATS lacks {}", path.join(".")))?;
        }
        match v {
            Json::Num(n) => Ok(*n),
            _ => Err(format!("STATS {} is not a number", path.join("."))),
        }
    }

    /// Elements of the array member `key`.
    ///
    /// # Errors
    ///
    /// When the member is missing or not an array.
    pub fn arr(&self, key: &str) -> Result<&[Json], String> {
        match self.get(key) {
            Some(Json::Arr(a)) => Ok(a),
            _ => Err(format!("STATS lacks array {key}")),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.i))
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            self.err(&format!("expected {lit}"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(_) => self.number(),
            None => self.err("unexpected end"),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.i += 1;
        let mut members = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.eat(":")?;
            members.push((k, self.value()?));
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return self.err("expected , or }"),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.i += 1;
        let mut items = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected , or ]"),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return self.err("expected string");
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|_| "non-UTF-8 string".into());
                }
                Some(b'\\') => {
                    let c = match self.s.get(self.i + 1) {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(&c @ (b'"' | b'\\' | b'/')) => c,
                        _ => return self.err("unsupported escape"),
                    };
                    out.push(c);
                    self.i += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self.i < self.s.len()
            && matches!(
                self.s[self.i],
                b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
            )
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

/// Writes `s` as a JSON string literal.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes a finite number with every digit Rust's shortest round-trip
/// formatting gives it (JSON has no NaN or infinity; those become 0).
pub fn write_num(out: &mut String, v: f64) {
    let v = if v.is_finite() { v } else { 0.0 };
    let _ = write!(out, "{v}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_stats_shaped_document() {
        let doc = r#"{"shards":2,"stalled":false,"per_shard":[{"reqs":10,"engine":
            {"completed":[1, 2, 3, 4],"abort_rate":0.250000}},{"reqs":5}], "s":"a\"b"}"#;
        let j = Json::parse(doc).unwrap();
        assert_eq!(j.num(&["shards"]).unwrap(), 2.0);
        let per = j.arr("per_shard").unwrap();
        assert_eq!(per[1].num(&["reqs"]).unwrap(), 5.0);
        assert_eq!(per[0].num(&["engine", "abort_rate"]).unwrap(), 0.25);
        assert_eq!(
            per[0].get("engine").unwrap().arr("completed").unwrap()[3],
            Json::Num(4.0)
        );
        assert_eq!(j.get("s"), Some(&Json::Str("a\"b".into())));
        assert!(per[1].num(&["engine", "x"]).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "tru", "{} x", "\"open"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn writer_round_trips_through_reader() {
        let mut s = String::new();
        write_str(&mut s, "q\"\\");
        assert_eq!(Json::parse(&s).unwrap(), Json::Str("q\"\\".into()));
        let mut n = String::new();
        write_num(&mut n, 0.1 + 0.2);
        assert_eq!(Json::parse(&n).unwrap(), Json::Num(0.1 + 0.2));
        let mut z = String::new();
        write_num(&mut z, f64::NAN);
        assert_eq!(z, "0");
    }
}
