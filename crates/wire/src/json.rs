//! The JSON encoding: a streaming writer and reader, the [`Json`] trait
//! message types implement beside their [`Wire`](crate::Wire) impls, and
//! the [`JsonWire`] backend.
//!
//! JSON is the debug/compat path of the phone↔cloud protocol: bodies are
//! human-readable on the wire, and peers that predate the binary format
//! can still be served. It covers exactly the subset of JSON the wire
//! types need — objects, arrays, strings, numbers, booleans and `null`.
//!
//! # Encoding rules
//!
//! * floats are written with Rust's shortest-round-trip `Display`, so
//!   every finite `f64` reads back bit-exact (`-0.0` reads back as `0.0`);
//!   a NaN or ±∞ cannot be written and fails the encode;
//! * integers never pass through `f64`: record ids exceed 2^53;
//! * structs are objects keyed by field name;
//! * enums are externally tagged: a unit variant is its bare name, any
//!   other variant a one-key object `{"Variant": payload}`;
//! * `Option` is `null` or the value.
//!
//! # Decoding rules
//!
//! Fields may come in any order, unknown fields are skipped, and the last
//! of duplicate fields wins; a missing field is an error unless its type
//! documents a default. Numbers must match the RFC 8259 grammar exactly,
//! and nothing but whitespace may follow the root value. Decoding is
//! total: every malformed input returns [`WireError`], and no value may
//! nest deeper than [`MAX_JSON_DEPTH`] objects and arrays, so no input can
//! exhaust the decoding thread's stack.

use crate::codec::{WireCodec, WireError, WireFormat};
use std::fmt::Write as _;

/// How deeply objects and arrays may nest, counted from the root value
/// (serde_json's default). A deeper document is refused with a
/// [`WireError::Codec`] before the reader descends into it.
pub const MAX_JSON_DEPTH: usize = 128;

/// A type with a JSON encoding, the twin of [`Wire`](crate::Wire).
///
/// Implementations live next to the type's `Wire` impl, and a decoded
/// value passes the same validation in both formats, so the two
/// encodings accept exactly the same values.
pub trait Json: Sized {
    /// Appends this value's JSON text to `w`.
    fn json_encode(&self, w: &mut JsonWriter);
    /// Decodes one value, consuming exactly its text from `r`.
    fn json_decode(r: &mut JsonReader<'_>) -> Result<Self, WireError>;
}

/// A lexical or shape failure, in the one [`WireError`] variant JSON
/// reports them with.
fn codec_error(message: impl std::fmt::Display) -> WireError {
    WireError::Codec(format!("json: {message}"))
}

/// The value of a decoded field that has no default, or the error for
/// its absence.
pub fn required<T>(value: Option<T>, field: &str) -> Result<T, WireError> {
    value.ok_or_else(|| codec_error(format_args!("missing field `{field}`")))
}

/// The error for an enum tag that names no variant of `what`, or names a
/// unit variant with a payload (or the reverse).
pub fn unknown_variant(what: &str, name: &str) -> WireError {
    codec_error(format_args!("unknown {what} variant `{name}`"))
}

// ───────────────────────── writing ─────────────────────────

/// Append-only JSON text buffer.
///
/// Writes never fail one by one: the first value JSON cannot carry (a
/// non-finite float) is remembered, and [`JsonWriter::finish`] returns it.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next key or value needs a separating comma.
    comma: bool,
    error: Option<WireError>,
}

impl JsonWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// The finished text, or the first value that could not be written.
    pub fn finish(self) -> Result<Vec<u8>, WireError> {
        match self.error {
            None => Ok(self.out.into_bytes()),
            Some(e) => Err(e),
        }
    }

    /// Opens a value: a comma first if it follows a sibling.
    fn open_value(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    pub fn null(&mut self) {
        self.open_value();
        self.out.push_str("null");
    }

    pub fn bool(&mut self, v: bool) {
        self.open_value();
        self.out.push_str(if v { "true" } else { "false" });
    }

    pub fn u64(&mut self, v: u64) {
        self.open_value();
        let _ = write!(self.out, "{v}");
    }

    pub fn f64(&mut self, v: f64) {
        self.open_value();
        if let Err(e) = write_f64(&mut self.out, v) {
            self.error.get_or_insert(e);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.open_value();
        write_escaped(&mut self.out, s);
    }

    /// Writes an object whose members `fields` writes with
    /// [`JsonWriter::key`] or [`JsonWriter::field`].
    pub fn object(&mut self, fields: impl FnOnce(&mut Self)) {
        self.container('{', '}', fields);
    }

    /// Writes an array whose elements `elements` writes.
    pub fn array(&mut self, elements: impl FnOnce(&mut Self)) {
        self.container('[', ']', elements);
    }

    fn container(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) {
        self.open_value();
        self.out.push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
    }

    /// Writes an object member's key; the next value written is its value.
    pub fn key(&mut self, key: &str) {
        self.open_value();
        write_escaped(&mut self.out, key);
        self.out.push(':');
        self.comma = false;
    }

    /// Writes one object member.
    pub fn field<T: Json>(&mut self, key: &str, value: &T) {
        self.key(key);
        value.json_encode(self);
    }

    /// Writes a variant that carries data: `{"name": payload}`.
    pub fn variant(&mut self, name: &str, payload: impl FnOnce(&mut Self)) {
        self.object(|w| {
            w.key(name);
            payload(w);
        });
    }
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_f64(out: &mut String, v: f64) -> Result<(), WireError> {
    if !v.is_finite() {
        return Err(codec_error("non-finite float"));
    }
    // Rust's Display for f64 is shortest-round-trip.
    let _ = write!(out, "{v}");
    Ok(())
}

// ───────────────────────── reading ─────────────────────────

/// Decode cursor over one JSON document.
#[derive(Debug)]
pub struct JsonReader<'a> {
    input: &'a str,
    pos: usize,
    /// Objects and arrays open around the cursor.
    depth: usize,
}

impl<'a> JsonReader<'a> {
    pub fn new(input: &'a str) -> Self {
        Self {
            input,
            pos: 0,
            depth: 0,
        }
    }

    /// Errors unless only whitespace remains.
    pub fn finish(&mut self) -> Result<(), WireError> {
        self.skip_ws();
        if self.pos < self.input.len() {
            return Err(codec_error("trailing characters after value"));
        }
        Ok(())
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.rest().chars().next() {
            if c.is_ascii_whitespace() {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<char, WireError> {
        self.skip_ws();
        self.rest()
            .chars()
            .next()
            .ok_or_else(|| codec_error("unexpected end of input"))
    }

    fn bump(&mut self) -> Result<char, WireError> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Ok(c)
    }

    fn expect(&mut self, c: char) -> Result<(), WireError> {
        let got = self.bump()?;
        if got != c {
            return Err(codec_error(format_args!("expected `{c}`, found `{got}`")));
        }
        Ok(())
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), WireError> {
        self.skip_ws();
        if self.rest().starts_with(kw) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(codec_error(format_args!("expected `{kw}`")))
        }
    }

    pub fn string(&mut self) -> Result<String, WireError> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            let c = self
                .rest()
                .chars()
                .next()
                .ok_or_else(|| codec_error("unterminated string"))?;
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let esc = self
                        .rest()
                        .chars()
                        .next()
                        .ok_or_else(|| codec_error("unterminated escape"))?;
                    self.pos += esc.len_utf8();
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'u' => {
                            let hex = self
                                .rest()
                                .get(..4)
                                .ok_or_else(|| codec_error("short \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| codec_error("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| codec_error("invalid codepoint"))?,
                            );
                        }
                        other => return Err(codec_error(format_args!("bad escape `\\{other}`"))),
                    }
                }
                c => out.push(c),
            }
        }
    }

    /// Lexes one number token and returns its text. Integer/float
    /// interpretation is left to the caller: 64-bit record ids exceed
    /// `f64`'s 53-bit mantissa, so integers must never detour through a
    /// float.
    ///
    /// The token must match the RFC 8259 grammar exactly. An earlier
    /// version lexed greedily and let Rust's `f64` parser decide, which
    /// silently accepted non-JSON spellings like `+1` and `.5` — so a
    /// forged body could differ byte-wise from every canonical
    /// re-encoding while decoding to the same value.
    fn parse_number_text(&mut self) -> Result<&'a str, WireError> {
        self.skip_ws();
        let start = self.pos;
        let bytes = self.input.as_bytes();
        if self.pos < bytes.len() && (bytes[self.pos] == b'-' || bytes[self.pos] == b'+') {
            self.pos += 1;
        }
        while self.pos < bytes.len()
            && (bytes[self.pos].is_ascii_digit()
                || matches!(bytes[self.pos], b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            // Only allow +/- after an exponent marker.
            if matches!(bytes[self.pos], b'+' | b'-') && !matches!(bytes[self.pos - 1], b'e' | b'E')
            {
                break;
            }
            self.pos += 1;
        }
        let text = &self.input[start..self.pos];
        if !is_canonical_number(text) {
            return Err(codec_error(format_args!("non-canonical number `{text}`")));
        }
        Ok(text)
    }

    pub fn bool(&mut self) -> Result<bool, WireError> {
        if self.peek()? == 't' {
            self.expect_keyword("true").map(|()| true)
        } else {
            self.expect_keyword("false").map(|()| false)
        }
    }

    /// Reads an unsigned integer. The token must be integer-shaped: a
    /// fraction or exponent is refused even when its value is whole.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let text = self.parse_number_text()?;
        let value = if text.contains(['.', 'e', 'E']) {
            None
        } else if text.starts_with('-') {
            text.parse::<i64>().ok().and_then(|v| u64::try_from(v).ok())
        } else {
            text.parse::<u64>().ok()
        };
        value.ok_or_else(|| codec_error(format_args!("expected a u64, found `{text}`")))
    }

    /// Reads a float. Integer-shaped tokens parse as 64-bit integers
    /// first and convert, so `-0` reads as `0.0`; a literal beyond
    /// `f64`'s range reads as ±∞.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        let text = self.parse_number_text()?;
        if !text.contains(['.', 'e', 'E']) {
            if text.starts_with('-') {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(v as f64);
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(v as f64);
            }
        }
        text.parse()
            .map_err(|_| codec_error(format_args!("bad number `{text}`")))
    }

    /// Consumes a `null` if one comes next.
    pub fn null(&mut self) -> Result<bool, WireError> {
        if self.peek()? == 'n' {
            self.expect_keyword("null")?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Reads an object, handing each member's key and the reader,
    /// positioned at its value, to `field`, which must consume the value
    /// (with [`JsonReader::skip`] if the key is unknown).
    pub fn object(
        &mut self,
        mut field: impl FnMut(&str, &mut Self) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        self.container('{', '}', |r| {
            let key = r.string()?;
            r.expect(':')?;
            field(&key, r)
        })
    }

    /// Reads an object whose one known member is `name`, skipping any
    /// other; the last occurrence of `name` gives the value.
    pub fn one_field<T: Json>(&mut self, name: &str) -> Result<T, WireError> {
        let mut value = None;
        self.object(|key, r| {
            if key != name {
                return r.skip();
            }
            value = Some(T::json_decode(r)?);
            Ok(())
        })?;
        required(value, name)
    }

    /// Reads an array, calling `element` once per element.
    pub fn array(
        &mut self,
        element: impl FnMut(&mut Self) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        self.container('[', ']', element)
    }

    /// Reads an externally tagged enum. `decode` gets the variant name and
    /// `None` for a bare-string (unit) variant, or the reader positioned
    /// at the payload of a `{"name": payload}` variant, which it must
    /// consume.
    pub fn variant<T>(
        &mut self,
        decode: impl FnOnce(&str, Option<&mut Self>) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        if self.peek()? == '"' {
            let name = self.string()?;
            return decode(&name, None);
        }
        self.enter()?;
        self.expect('{')?;
        let name = self.string()?;
        self.expect(':')?;
        let value = decode(&name, Some(&mut *self))?;
        self.expect('}')?;
        self.depth -= 1;
        Ok(value)
    }

    /// Consumes one value of any shape. Inside a skipped object any value
    /// may stand as a key, as it always could.
    pub fn skip(&mut self) -> Result<(), WireError> {
        match self.peek()? {
            'n' => self.expect_keyword("null"),
            't' => self.expect_keyword("true"),
            'f' => self.expect_keyword("false"),
            '"' => self.string().map(drop),
            '[' => self.array(Self::skip),
            '{' => self.container('{', '}', |r| {
                r.skip()?;
                r.expect(':')?;
                r.skip()
            }),
            _ => self.parse_number_text().map(drop),
        }
    }

    /// Reads `open`, comma-separated members each consumed by `member`,
    /// and `close`, one nesting level deeper.
    fn container(
        &mut self,
        open: char,
        close: char,
        mut member: impl FnMut(&mut Self) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        self.enter()?;
        self.expect(open)?;
        let mut first = true;
        while self.peek()? != close {
            if !first {
                self.expect(',')?;
            }
            first = false;
            member(self)?;
        }
        self.pos += close.len_utf8();
        self.depth -= 1;
        Ok(())
    }

    fn enter(&mut self) -> Result<(), WireError> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(codec_error(format_args!(
                "nesting deeper than {MAX_JSON_DEPTH} levels"
            )));
        }
        self.depth += 1;
        Ok(())
    }
}

/// RFC 8259 `number` grammar: `-? int frac? exp?`, where `int` is `0` or
/// a digit run without a leading zero, `frac` is `.` plus at least one
/// digit, and `exp` is `e`/`E`, an optional sign, and at least one digit.
/// Leading `+`, bare `.5`, trailing-dot `5.`, zero-led `01`, and a
/// digitless exponent `1e` all fail.
fn is_canonical_number(text: &str) -> bool {
    let b = text.as_bytes();
    let mut i = usize::from(b.first() == Some(&b'-'));
    let int_start = i;
    while i < b.len() && b[i].is_ascii_digit() {
        i += 1;
    }
    if i == int_start || (b[int_start] == b'0' && i - int_start > 1) {
        return false;
    }
    if i < b.len() && b[i] == b'.' {
        i += 1;
        let frac_start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i == frac_start {
            return false;
        }
    }
    if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
        i += 1;
        if i < b.len() && (b[i] == b'+' || b[i] == b'-') {
            i += 1;
        }
        let exp_start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i == exp_start {
            return false;
        }
    }
    i == b.len()
}

// ───────────────────────── std impls ─────────────────────────

macro_rules! json_scalar {
    ($($ty:ident),*) => {$(
        impl Json for $ty {
            fn json_encode(&self, w: &mut JsonWriter) {
                w.$ty(*self);
            }
            fn json_decode(r: &mut JsonReader<'_>) -> Result<Self, WireError> {
                r.$ty()
            }
        }
    )*};
}

json_scalar!(bool, u64, f64);

impl Json for String {
    fn json_encode(&self, w: &mut JsonWriter) {
        w.str(self);
    }
    fn json_decode(r: &mut JsonReader<'_>) -> Result<Self, WireError> {
        r.string()
    }
}

impl<T: Json> Json for Vec<T> {
    fn json_encode(&self, w: &mut JsonWriter) {
        w.array(|w| {
            for item in self {
                item.json_encode(w);
            }
        });
    }
    fn json_decode(r: &mut JsonReader<'_>) -> Result<Self, WireError> {
        let mut out = Vec::new();
        r.array(|r| {
            out.push(T::json_decode(r)?);
            Ok(())
        })?;
        Ok(out)
    }
}

impl<T: Json> Json for Option<T> {
    fn json_encode(&self, w: &mut JsonWriter) {
        match self {
            None => w.null(),
            Some(v) => v.json_encode(w),
        }
    }
    fn json_decode(r: &mut JsonReader<'_>) -> Result<Self, WireError> {
        if r.null()? {
            Ok(None)
        } else {
            T::json_decode(r).map(Some)
        }
    }
}

/// The JSON backend: one document per message, UTF-8, no framing.
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonWire;

impl<T: Json> WireCodec<T> for JsonWire {
    fn format(&self) -> WireFormat {
        WireFormat::Json
    }

    fn encode(&self, value: &T) -> Result<Vec<u8>, WireError> {
        let mut w = JsonWriter::new();
        value.json_encode(&mut w);
        w.finish()
    }

    fn decode(&self, bytes: &[u8]) -> Result<T, WireError> {
        let text = std::str::from_utf8(bytes).map_err(|_| WireError::NotUtf8)?;
        let mut r = JsonReader::new(text);
        let value = T::json_decode(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_json<T: Json>(value: &T) -> Result<String, WireError> {
        let bytes = JsonWire.encode(value)?;
        Ok(String::from_utf8(bytes).expect("JSON is UTF-8"))
    }

    fn from_json<T: Json>(text: &str) -> Result<T, WireError> {
        JsonWire.decode(text.as_bytes())
    }

    fn roundtrip<T: Json + PartialEq + std::fmt::Debug>(value: &T) -> T {
        let text = to_json(value).expect("serializes");
        let back: T = from_json(&text).expect("parses back");
        assert_eq!(&back, value, "json was: {text}");
        back
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Kind {
        Unit,
        Newtype(u64),
        Struct { a: f64, b: Option<bool> },
    }

    impl Json for Kind {
        fn json_encode(&self, w: &mut JsonWriter) {
            match self {
                Kind::Unit => w.str("Unit"),
                Kind::Newtype(v) => w.variant("Newtype", |w| v.json_encode(w)),
                Kind::Struct { a, b } => w.variant("Struct", |w| {
                    w.object(|w| {
                        w.field("a", a);
                        w.field("b", b);
                    })
                }),
            }
        }
        fn json_decode(r: &mut JsonReader<'_>) -> Result<Self, WireError> {
            r.variant(|name, payload| match (name, payload) {
                ("Unit", None) => Ok(Kind::Unit),
                ("Newtype", Some(r)) => Ok(Kind::Newtype(u64::json_decode(r)?)),
                ("Struct", Some(r)) => {
                    let (mut a, mut b) = (None, None);
                    r.object(|key, r| {
                        match key {
                            "a" => a = Some(f64::json_decode(r)?),
                            "b" => b = Some(Option::json_decode(r)?),
                            _ => r.skip()?,
                        }
                        Ok(())
                    })?;
                    Ok(Kind::Struct {
                        a: required(a, "a")?,
                        b: required(b, "b")?,
                    })
                }
                (name, _) => Err(unknown_variant("kind", name)),
            })
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Nested {
        name: String,
        values: Vec<f64>,
        kind: Kind,
        opt: Option<String>,
    }

    impl Json for Nested {
        fn json_encode(&self, w: &mut JsonWriter) {
            w.object(|w| {
                w.field("name", &self.name);
                w.field("values", &self.values);
                w.field("kind", &self.kind);
                w.field("opt", &self.opt);
            });
        }
        fn json_decode(r: &mut JsonReader<'_>) -> Result<Self, WireError> {
            let (mut name, mut values, mut kind, mut opt) = (None, None, None, None);
            r.object(|key, r| {
                match key {
                    "name" => name = Some(String::json_decode(r)?),
                    "values" => values = Some(Vec::json_decode(r)?),
                    "kind" => kind = Some(Kind::json_decode(r)?),
                    "opt" => opt = Some(Option::json_decode(r)?),
                    _ => r.skip()?,
                }
                Ok(())
            })?;
            Ok(Nested {
                name: required(name, "name")?,
                values: required(values, "values")?,
                kind: required(kind, "kind")?,
                opt: required(opt, "opt")?,
            })
        }
    }

    fn nested() -> Nested {
        Nested {
            name: "trace-θ".into(),
            values: vec![0.1, 0.2, f64::MIN_POSITIVE],
            kind: Kind::Struct { a: 1.0, b: None },
            opt: Some("present".into()),
        }
    }

    #[test]
    fn scalars_round_trip() {
        roundtrip(&true);
        roundtrip(&42u64);
        roundtrip(&1.5e-3f64);
        roundtrip(&f64::MAX);
        roundtrip(&"hello \"quoted\" \n line".to_owned());
        roundtrip(&Option::<u64>::None);
        roundtrip(&Some(9u64));
    }

    #[test]
    fn leading_plus_is_rejected_per_variant() {
        // `+1` is not an RFC 8259 number; an earlier lexer let f64's
        // parser coerce it silently. Every numeric target must reject it.
        assert!(from_json::<u64>("+1").is_err());
        assert!(from_json::<f64>("+1.5").is_err());
        assert!(from_json::<u64>("+0").is_err());
        assert!(from_json::<Vec<f64>>("[1.0, +2.0]").is_err());
    }

    #[test]
    fn bare_fraction_is_rejected_per_variant() {
        // `.5` (digitless integer part) likewise coerced before.
        assert!(from_json::<f64>(".5").is_err());
        assert!(from_json::<f64>("-.5").is_err());
        assert!(from_json::<Vec<f64>>("[.25]").is_err());
    }

    #[test]
    fn trailing_dot_and_digitless_exponent_are_rejected() {
        assert!(from_json::<f64>("5.").is_err());
        assert!(from_json::<f64>("1e").is_err());
        assert!(from_json::<f64>("1e+").is_err());
        assert!(from_json::<f64>("1.e3").is_err());
    }

    #[test]
    fn zero_led_integers_are_rejected() {
        assert!(from_json::<u64>("01").is_err());
        assert!(from_json::<f64>("00.5").is_err());
        // A lone `0` (and a `0.x` fraction) stays legal.
        assert_eq!(from_json::<u64>("0").expect("zero"), 0);
        assert_eq!(from_json::<f64>("0.5").expect("half"), 0.5);
        assert_eq!(from_json::<f64>("-0.5").expect("neg half"), -0.5);
    }

    #[test]
    fn canonical_numbers_still_parse() {
        assert_eq!(
            from_json::<u64>("18446744073709551615").expect("u64 max"),
            u64::MAX
        );
        assert_eq!(from_json::<f64>("1.5e-3").expect("sci"), 1.5e-3);
        assert_eq!(from_json::<f64>("2E+8").expect("sci plus"), 2e8);
        // Integer-shaped tokens read as floats, through a 64-bit integer.
        assert_eq!(from_json::<f64>("450").expect("int as float"), 450.0);
        assert_eq!(from_json::<f64>("-7").expect("neg int"), -7.0);
        assert_eq!(from_json::<f64>("-0").expect("neg zero").to_bits(), 0);
    }

    #[test]
    fn integers_refuse_fractions_signs_and_overflow() {
        assert!(from_json::<u64>("1.0").is_err());
        assert!(from_json::<u64>("1e3").is_err());
        assert!(from_json::<u64>("-1").is_err());
        assert!(from_json::<u64>("18446744073709551616").is_err());
        assert_eq!(from_json::<u64>("-0").expect("negative zero"), 0);
    }

    #[test]
    fn json_wire_backend_round_trips() {
        let value = Nested {
            name: "wire".into(),
            values: vec![0.25, -1.0],
            kind: Kind::Struct {
                a: 2.5,
                b: Some(false),
            },
            opt: None,
        };
        let codec = JsonWire;
        assert_eq!(WireCodec::<Nested>::format(&codec), WireFormat::Json);
        let bytes = codec.encode(&value).expect("encodes");
        assert_eq!(
            std::str::from_utf8(&bytes).expect("utf8"),
            r#"{"name":"wire","values":[0.25,-1],"kind":{"Struct":{"a":2.5,"b":false}},"opt":null}"#
        );
        let back: Nested = codec.decode(&bytes).expect("decodes");
        assert_eq!(back, value);
        assert!(codec
            .decode(&bytes[..bytes.len() - 1])
            .map(|v: Nested| v)
            .is_err());
        assert_eq!(
            codec.decode(&[0xFF, 0xFE]).map(|v: Nested| v),
            Err(WireError::NotUtf8)
        );
    }

    #[test]
    fn containers_round_trip() {
        roundtrip(&vec![1.0f64, -2.5, 3.25e8]);
        roundtrip(&Vec::<u64>::new());
        roundtrip(&vec![Some(1u64), None]);
    }

    #[test]
    fn enums_round_trip() {
        roundtrip(&Kind::Unit);
        roundtrip(&Kind::Newtype(7));
        roundtrip(&Kind::Struct {
            a: 2.5,
            b: Some(false),
        });
        roundtrip(&Kind::Struct { a: -1.5, b: None });
    }

    #[test]
    fn enum_variants_must_keep_their_shape() {
        // A unit variant is a bare string, any other a one-key object.
        assert!(from_json::<Kind>(r#"{"Unit":null}"#).is_err());
        assert!(from_json::<Kind>(r#""Newtype""#).is_err());
        assert!(from_json::<Kind>(r#""Other""#).is_err());
        assert!(from_json::<Kind>(r#"{"Newtype":1,"Unit":2}"#).is_err());
        assert_eq!(
            from_json::<Kind>(r#" { "Newtype" : 3 } "#),
            Ok(Kind::Newtype(3))
        );
    }

    #[test]
    fn nested_structures_round_trip() {
        roundtrip(&nested());
    }

    #[test]
    fn fields_decode_in_any_order_skipping_unknown_ones() {
        let text = r#"{"opt":null,"extra":{"deep":[1,{"x":[true,null,"s"]}],"7":-2e9},
            "kind":"Unit","values":[],"name":"a","more":false}"#;
        let expected = Nested {
            name: "a".into(),
            values: vec![],
            kind: Kind::Unit,
            opt: None,
        };
        assert_eq!(from_json::<Nested>(text), Ok(expected));
    }

    #[test]
    fn the_last_duplicate_field_wins_and_a_missing_one_is_an_error() {
        let text = r#"{"name":"first","values":[1],"kind":"Unit","opt":null,"name":"last"}"#;
        assert_eq!(from_json::<Nested>(text).expect("decodes").name, "last");
        let missing = r#"{"name":"a","values":[],"kind":"Unit"}"#;
        assert!(matches!(
            from_json::<Nested>(missing),
            Err(WireError::Codec(reason)) if reason.contains("missing field `opt`")
        ));
    }

    #[test]
    fn skipped_objects_take_any_value_as_a_key() {
        // Skipping has always parsed a key as a value of any shape.
        let text =
            r#"{"junk":{1:2,[3]:{"k":"v"}},"name":"a","values":[],"kind":"Unit","opt":null}"#;
        assert!(from_json::<Nested>(text).is_ok());
        assert!(from_json::<Nested>(r#"{"junk":{1},"name":"a"}"#).is_err());
    }

    #[test]
    fn whitespace_and_escapes_parse() {
        let parsed: Vec<u64> = from_json(" [ 1 ,\n\t2 , 3 ] ").expect("parses");
        assert_eq!(parsed, vec![1, 2, 3]);
        let s: String = from_json(r#""a\u0041b""#).expect("parses");
        assert_eq!(s, "aAb");
        let escaped = "tab\tquote\"slash\\ctl\u{1}".to_owned();
        assert_eq!(
            to_json(&escaped).expect("encodes"),
            r#""tab\tquote\"slash\\ctl\u0001""#
        );
        roundtrip(&escaped);
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(from_json::<u64>("").is_err());
        assert!(from_json::<u64>("12 34").is_err());
        assert!(from_json::<Vec<u64>>("[1, 2").is_err());
        assert!(from_json::<Vec<u64>>("[1, 2,]").is_err());
        assert!(from_json::<Vec<u64>>("[,1]").is_err());
        assert!(from_json::<String>("\"unterminated").is_err());
        assert!(from_json::<bool>("maybe").is_err());
        assert!(from_json::<Nested>(r#"{"name":"a",}"#).is_err());
    }

    #[test]
    fn non_finite_floats_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                to_json(&bad),
                Err(WireError::Codec("json: non-finite float".into()))
            );
            // Deep inside a value, too: the first failure is kept.
            let mut value = nested();
            value.values.push(bad);
            assert!(to_json(&value).is_err());
        }
    }

    #[test]
    fn full_range_integers_round_trip_exactly() {
        // Sharded record ids set the top bits of a u64 — far beyond
        // f64's 53-bit mantissa — so integers must not detour through a
        // float on the way back in.
        roundtrip(&u64::MAX);
        roundtrip(&(u64::MAX - 1));
        roundtrip(&((7u64 << 56) | (7 << 48) | 42)); // a sharded RecordId shape
                                                     // Beyond u64, a float target still reads the value.
        let huge: f64 = from_json("100000000000000000000000").expect("parses");
        assert_eq!(huge, 1e23);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for &v in &[0.1, 1.0 / 3.0, 2.5e-3, 9.96e-4, 1e300, -1e-300, 5e-324] {
            let text = to_json(&v).expect("serializes");
            let back: f64 = from_json(&text).expect("parses");
            assert_eq!(back.to_bits(), v.to_bits(), "text {text}");
        }
    }

    /// `depth` nested arrays around a `0`.
    fn nested_arrays(depth: usize) -> String {
        format!("{}0{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn nesting_is_capped_at_the_documented_depth() {
        let deepest = nested_arrays(MAX_JSON_DEPTH);
        let mut r = JsonReader::new(&deepest);
        assert_eq!(r.skip(), Ok(()));
        assert_eq!(r.finish(), Ok(()));
        let err = JsonReader::new(&nested_arrays(MAX_JSON_DEPTH + 1))
            .skip()
            .expect_err("one level too deep");
        assert!(
            matches!(&err, WireError::Codec(r) if r.contains("nesting")),
            "{err}"
        );
        // Objects count the same as arrays, and typed decoders share the
        // budget with skipped values.
        let deep_objects = format!(
            "{}0{}",
            r#"{"a":"#.repeat(MAX_JSON_DEPTH + 1),
            "}".repeat(MAX_JSON_DEPTH + 1)
        );
        assert!(JsonReader::new(&deep_objects).skip().is_err());
        let typed = format!(
            r#"{{"junk":{},"name":"a","values":[],"kind":"Unit","opt":null}}"#,
            nested_arrays(MAX_JSON_DEPTH - 1)
        );
        assert!(from_json::<Nested>(&typed).is_ok());
        let typed = format!(
            r#"{{"junk":{},"name":"a","values":[],"kind":"Unit","opt":null}}"#,
            nested_arrays(MAX_JSON_DEPTH)
        );
        assert!(from_json::<Nested>(&typed).is_err());
    }
}
