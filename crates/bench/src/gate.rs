//! A dependency-free JSON reader: the value type and parser `benchmark/`
//! borrows for its result, baseline and trace files
//! (`benchmark/src/json.rs` re-exports [`Json`] and [`parse`]).
//!
//! Nothing here gates anything — measuring and comparing are `benchmark/`'s
//! job alone. The module keeps the name `gate` because that import path is
//! what `benchmark/` compiles against.

/// A parsed JSON value (all of JSON minus exotic escapes).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string (supports the standard short escapes and `\uXXXX`).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn fail(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes()
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(what))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.fail("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.fail("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.fail("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.fail("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self
                .peek()
                .ok_or_else(|| self.fail("unterminated string"))?
            {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.fail("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.fail("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.fail("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.fail("unknown escape")),
                    }
                }
                _ => {
                    // Copy the whole unescaped run at once. It ends at a
                    // quote or backslash (both ASCII, so never inside a
                    // multi-byte scalar) or at the end of the input, and
                    // `pos` only ever advances past whole scalars: both
                    // ends are char boundaries of the `&str`.
                    let rest = &self.text[self.pos..];
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .ok()
            .map(Json::Num)
            .ok_or_else(|| self.fail("invalid number"))
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.fail("trailing bytes after the JSON document"));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    #[test]
    fn malformed_json_is_a_clean_error() {
        for bad in ["", "{", "{\"a\": }", "[1,]", "{\"a\":1} x", "nul"] {
            assert!(parse(bad).is_err(), "{bad:?} must fail");
        }
        // An escape or literal cut off mid-scalar must not slice the input
        // off a char boundary.
        for bad in ["\"\\é\"", "\"\\u00é\"", "\"é", "tré", "[é]"] {
            assert!(parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn scientific_and_negative_numbers_parse() {
        let json = parse(r#"{"a": -1.5e3, "b": 2E-2}"#).unwrap();
        let want = obj(vec![("a", Json::Num(-1500.0)), ("b", Json::Num(0.02))]);
        assert_eq!(json, want);
    }

    #[test]
    fn every_value_kind_parses_in_source_order() {
        let json = parse(r#"{"c": [true, null, "x\n\"\u00e9", 57], "d": {"e": []}}"#).unwrap();
        let c = vec![
            Json::Bool(true),
            Json::Null,
            Json::Str("x\n\"\u{e9}".into()),
            Json::Num(57.0),
        ];
        let d = obj(vec![("e", Json::Arr(vec![]))]);
        assert_eq!(json, obj(vec![("c", Json::Arr(c)), ("d", d)]));
    }

    /// A trace-file-sized document (the parser used to re-validate the
    /// whole remaining input per character: minutes for this input).
    #[test]
    fn a_two_megabyte_document_of_short_strings_parses_in_linear_time() {
        // 1-, 2-, 3- and 4-byte scalars, an escape between two runs.
        let cycle = ["plain", "caf\u{e9}", "\u{20ac}5", "\u{1d11e}", "a\\nb"];
        let quoted: Vec<String> = (0..300_000)
            .map(|i| format!("\"{}\"", cycle[i % cycle.len()]))
            .collect();
        let text = format!("[{}]", quoted.join(","));
        assert!(text.len() >= 2 << 20);
        let Json::Arr(items) = parse(&text).unwrap() else {
            panic!("an array parses as an array");
        };
        assert_eq!(items.len(), quoted.len());
        for (i, item) in items.iter().enumerate() {
            let want = cycle[i % cycle.len()].replace("\\n", "\n");
            assert_eq!(item, &Json::Str(want), "string {i}");
        }
    }
}
