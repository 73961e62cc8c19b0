//! Loading and saving databases: fact text (the inverse of
//! [`Database::from_facts`]) and tab-separated values per relation.
//!
//! This module holds the one TSV codec. [`append_tsv`] encodes a relation
//! straight from its flat row buffer; [`TsvRows`] decodes a body in one
//! byte scan. [`write_tsv`], [`read_tsv`] and the `rc-serve` wire protocol
//! all go through these two.
//!
//! TSV cell convention: a cell that parses as an `i64` is an integer value;
//! anything else is a string value. A string is written between single
//! quotes when it would otherwise read back as something else: when it
//! parses as an integer, starts with `'`, has leading or trailing
//! whitespace, or contains a tab, newline or carriage return. Inside quotes,
//! `\t`, `\n`, `\r` and `\\` are escaped with a backslash, so a quoted
//! cell never holds a delimiter. Unquoted cells are written verbatim.

use crate::database::{Database, LoadError};
use crate::relation::{Relation, RelationBuilder};
use rc_formula::{Symbol, Value};
use std::io::{self, Read, Write};

/// Render the whole database as fact text, sorted (predicates by name,
/// tuples in relation order) — parses back with [`Database::from_facts`].
pub fn to_fact_text(db: &Database) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for p in db.predicates() {
        let rel = db.relation(p).expect("listed predicate exists");
        if rel.is_empty() {
            let _ = writeln!(out, "% {p}/{} is empty", rel.arity());
            continue;
        }
        for t in rel.iter() {
            let _ = write!(out, "{p}(");
            for (i, v) in t.iter().enumerate() {
                if i > 0 {
                    let _ = write!(out, ", ");
                }
                let _ = write!(out, "{v}");
            }
            let _ = writeln!(out, ")");
        }
    }
    out
}

/// Write one relation as TSV (a thin wrapper over [`append_tsv`]).
pub fn write_tsv(rel: &Relation, w: &mut impl Write) -> io::Result<()> {
    let mut buf = Vec::new();
    append_tsv(rel, &mut buf);
    w.write_all(&buf)
}

/// Append one relation as TSV rows to `out`: cells separated by `\t`,
/// every row ended by `\n`, in the relation's canonical row order.
pub fn append_tsv(rel: &Relation, out: &mut Vec<u8>) {
    for row in rel.iter() {
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                out.push(b'\t');
            }
            match v {
                Value::Int(n) => push_int(out, *n),
                Value::Str(s) => push_str_cell(out, s.as_str()),
            }
        }
        out.push(b'\n');
    }
}

/// Decimal digits of `n`, formatted on the stack.
fn push_int(out: &mut Vec<u8>, n: i64) {
    // 19 digits of `i64::MIN.unsigned_abs()` plus the sign.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut rest = n.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    out.extend_from_slice(&buf[at..]);
}

fn push_str_cell(out: &mut Vec<u8>, s: &str) {
    let quote = s.parse::<i64>().is_ok()
        || s.starts_with('\'')
        || s.bytes().any(|b| matches!(b, b'\t' | b'\n' | b'\r'))
        || s != s.trim();
    if !quote {
        out.extend_from_slice(s.as_bytes());
        return;
    }
    out.push(b'\'');
    for &b in s.as_bytes() {
        match b {
            b'\t' => out.extend_from_slice(b"\\t"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\\' => out.extend_from_slice(b"\\\\"),
            _ => out.push(b),
        }
    }
    out.push(b'\'');
}

/// Parse one TSV cell under the module's cell convention: single-quoted
/// cells are strings (quotes stripped, escapes undone), anything that
/// parses as an `i64` is an integer, and everything else is a plain
/// string. Surrounding whitespace is trimmed first. [`TsvRows`] calls this
/// for every cell that is not a plain decimal integer.
pub fn parse_tsv_cell(cell: &str) -> Value {
    let trimmed = cell.trim();
    if let Some(quoted) = trimmed
        .strip_prefix('\'')
        .and_then(|rest| rest.strip_suffix('\''))
    {
        return if quoted.contains('\\') {
            Value::str(&unescape(quoted))
        } else {
            Value::str(quoted)
        };
    }
    match trimmed.parse::<i64>() {
        Ok(i) => Value::Int(i),
        Err(_) => Value::str(trimmed),
    }
}

/// Undo the quoted-cell escapes. A backslash before any other character,
/// or at the end, is kept as it stands.
fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// The one TSV row decoder, shared by [`read_tsv`] and the wire protocol.
///
/// It walks the body once, splitting cells on `\t` and rows on `\n`. A
/// plain decimal cell (an optional `-` and digits that fit an `i64`) is
/// parsed inline; every other cell goes through [`parse_tsv_cell`], whose
/// trim also drops the `\r` of a CRLF row end. Each row is decoded into one
/// reused buffer.
pub struct TsvRows<'a> {
    rest: &'a str,
    row: Vec<Value>,
}

impl<'a> TsvRows<'a> {
    /// A decoder positioned at the start of `body`.
    pub fn new(body: &'a str) -> TsvRows<'a> {
        TsvRows {
            rest: body,
            row: Vec::new(),
        }
    }

    /// The part of the body not yet decoded.
    pub fn rest(&self) -> &'a str {
        self.rest
    }

    /// Skip the current line without decoding it.
    fn skip_line(&mut self) {
        self.rest = match self.rest.as_bytes().iter().position(|&b| b == b'\n') {
            Some(nl) => &self.rest[nl + 1..],
            None => "",
        };
    }

    /// Decode the current line as one row and move past it; `None` once
    /// the body is exhausted. An empty line is one empty-string cell.
    pub fn next_row(&mut self) -> Option<&[Value]> {
        if self.rest.is_empty() {
            return None;
        }
        self.row.clear();
        let mut start = 0;
        loop {
            let (value, end) = decode_cell(self.rest, start);
            self.row.push(value);
            match self.rest.as_bytes().get(end) {
                Some(b'\t') => start = end + 1,
                Some(_) => {
                    self.rest = &self.rest[end + 1..];
                    break;
                }
                None => {
                    self.rest = "";
                    break;
                }
            }
        }
        Some(&self.row)
    }
}

/// Decode the cell that starts at byte `start` of `text`. Returns the value
/// and the index of the `\t` or `\n` that ends the cell, or `text.len()`.
fn decode_cell(text: &str, start: usize) -> (Value, usize) {
    let bytes = text.as_bytes();
    let negative = bytes.get(start) == Some(&b'-');
    let digits = start + usize::from(negative);
    let mut at = digits;
    // Up to 19 digits fit a `u64` exactly; a longer run may wrap, but the
    // length check below sends it to `parse_tsv_cell`.
    let mut magnitude: u64 = 0;
    while let Some(&b) = bytes.get(at) {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        magnitude = magnitude.wrapping_mul(10).wrapping_add(u64::from(d));
        at += 1;
    }
    if (1..=19).contains(&(at - digits)) && matches!(bytes.get(at), None | Some(b'\t' | b'\n')) {
        let value = if negative {
            0i64.checked_sub_unsigned(magnitude)
        } else {
            i64::try_from(magnitude).ok()
        };
        // Out of range: `parse_tsv_cell` reads it as a string, exactly
        // like `str::parse` fails on it.
        if let Some(n) = value {
            return (Value::Int(n), at);
        }
    }
    let end = bytes[at..]
        .iter()
        .position(|&b| b == b'\t' || b == b'\n')
        .map_or(bytes.len(), |i| at + i);
    (parse_tsv_cell(&text[start..end]), end)
}

/// Read a TSV relation. Arity is taken from the first row; blank lines and
/// `#` comments are skipped. Rows are buffered flat and canonicalized once
/// at the end, so loading is O(n log n) rather than insert-at-a-time.
pub fn read_tsv(mut r: impl Read) -> Result<Relation, LoadError> {
    let mut text = String::new();
    r.read_to_string(&mut text)
        .map_err(|e| LoadError::Parse(e.to_string()))?;
    let mut rows = TsvRows::new(&text);
    let mut builder: Option<RelationBuilder> = None;
    loop {
        let line = rows
            .rest()
            .trim_start_matches(|c: char| c != '\n' && c.is_whitespace());
        if line.is_empty() {
            break;
        }
        if line.starts_with(['\n', '#']) {
            rows.skip_line();
            continue;
        }
        let row = rows.next_row().expect("a non-blank line remains");
        let b = builder.get_or_insert_with(|| RelationBuilder::new(row.len()));
        if b.arity() != row.len() {
            return Err(LoadError::Parse(format!(
                "row arity {} differs from first row's {}",
                row.len(),
                b.arity()
            )));
        }
        b.push_row(row);
    }
    Ok(builder.map_or_else(|| Relation::new(0), RelationBuilder::finish))
}

/// Load a TSV file into the database as relation `pred`.
pub fn load_tsv_into(
    db: &mut Database,
    pred: impl Into<Symbol>,
    r: impl Read,
) -> Result<(), LoadError> {
    let rel = read_tsv(r)?;
    db.insert_relation(pred, rel);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::tuple;

    #[test]
    fn fact_text_roundtrips() {
        let mut db = Database::new();
        db.insert_fact("P", tuple([1i64])).unwrap();
        db.insert_fact("Q", tuple(["a", "b"])).unwrap();
        db.declare("Empty", 2);
        let text = to_fact_text(&db);
        let back = Database::from_facts(&text).unwrap();
        // Empty relations survive only as comments; declare to compare.
        let mut back = back;
        back.declare("Empty", 2);
        assert_eq!(back, db);
    }

    #[test]
    fn tsv_roundtrips_values() {
        let strings = [
            "plain",
            "42",
            "-7",
            "+5",
            "007",
            "with space",
            " lead",
            "trail ",
            "'quote",
            "'",
            "",
            "a\tb",
            "line\nbreak",
            "cr\rhere",
            "back\\slash",
            "end\\",
            "naïve",
            "#hash",
            "9223372036854775808",
        ];
        let ints = [0, 1, -7, i64::MIN, i64::MAX, -1_000_000_000_000_000_000];
        let rows = strings
            .iter()
            .zip(ints.iter().cycle())
            .map(|(s, &i)| tuple([Value::int(i), Value::str(s)]));
        let rel = Relation::from_rows(2, rows);
        let mut buf = Vec::new();
        write_tsv(&rel, &mut buf).unwrap();
        let back = read_tsv(buf.as_slice()).unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn cells_keep_their_bytes_unless_they_need_escapes() {
        let encode = |v: Value| {
            let mut out = Vec::new();
            append_tsv(&Relation::from_rows(1, [tuple([v])]), &mut out);
            String::from_utf8(out).unwrap()
        };
        assert_eq!(encode(Value::int(i64::MIN)), "-9223372036854775808\n");
        assert_eq!(encode(Value::int(0)), "0\n");
        assert_eq!(encode(Value::str("a\\b")), "a\\b\n");
        assert_eq!(encode(Value::str("42")), "'42'\n");
        assert_eq!(encode(Value::str("a\tb\\")), "'a\\tb\\\\'\n");
        assert_eq!(encode(Value::str("x\ny\r")), "'x\\ny\\r'\n");
    }

    #[test]
    fn plain_decimal_cells_decode_like_str_parse() {
        for cell in [
            "0",
            "-0",
            "007",
            "-",
            "+5",
            "12a",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "9999999999999999999",
            "99999999999999999999",
            "00000000000000000000001",
            "-000000000000000000000042",
            "",
        ] {
            let mut rows = TsvRows::new(cell);
            let want = parse_tsv_cell(cell);
            if cell.is_empty() {
                assert_eq!(rows.next_row(), None);
            } else {
                assert_eq!(rows.next_row(), Some(&[want][..]), "cell {cell:?}");
            }
        }
    }

    #[test]
    fn unknown_escapes_are_kept_verbatim() {
        assert_eq!(parse_tsv_cell("'a\\qb\\'"), Value::str("a\\qb\\"));
    }

    #[test]
    fn tsv_rejects_ragged_rows() {
        // A short row, a long row, and a trailing tab (one cell too many).
        for data in [&b"1\t2\n3\n"[..], b"1\t2\n3\t4\t5\n", b"1\t2\n3\t4\t\n"] {
            assert!(
                matches!(read_tsv(data), Err(LoadError::Parse(_))),
                "{data:?}"
            );
        }
    }

    #[test]
    fn tsv_reads_unterminated_and_crlf_rows_and_rejects_non_utf8() {
        let rel = |rows: &[[i64; 2]]| Relation::from_rows(2, rows.iter().map(|r| tuple(*r)));
        assert_eq!(
            read_tsv(&b"1\t2\n3\t4"[..]).unwrap(),
            rel(&[[1, 2], [3, 4]])
        );
        assert_eq!(
            read_tsv(&b"1\t2\r\n3\t4\r\n"[..]).unwrap(),
            rel(&[[1, 2], [3, 4]])
        );
        // Bytes that are not UTF-8 are an error, not a panic.
        assert!(matches!(
            read_tsv(&b"1\t\xff\xfe\n"[..]),
            Err(LoadError::Parse(_))
        ));
    }

    #[test]
    fn tsv_skips_comments_and_blanks() {
        let data = b"# header\n1\t2\n\n3\t4\n";
        let rel = read_tsv(&data[..]).unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.arity(), 2);
    }

    #[test]
    fn load_tsv_into_database() {
        let mut db = Database::new();
        load_tsv_into(&mut db, "Edges", &b"1\t2\n2\t3\n"[..]).unwrap();
        let rel = db.relation(Symbol::intern("Edges")).unwrap();
        assert_eq!(rel.len(), 2);
        assert!(rel.contains(&[Value::int(2), Value::int(3)]));
    }

    #[test]
    fn empty_tsv_gives_nullary_relation() {
        let rel = read_tsv(&b""[..]).unwrap();
        assert_eq!(rel.arity(), 0);
        assert!(rel.is_empty());
    }
}
