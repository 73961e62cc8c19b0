//! Loading and saving databases: fact text (the inverse of
//! [`Database::from_facts`]) and tab-separated values per relation.
//!
//! This module holds the one TSV codec. [`write_tsv`], [`read_tsv`] and the
//! `rc-serve` wire protocol all go through it.
//!
//! * **Encoding.** [`append_tsv`] writes a relation straight from its flat
//!   row buffer. It sizes its output from a sample of rows, and writes an
//!   integer in `0..10^8` as eight digits from a digit-pair table, keeping
//!   the significant ones, with no per-digit loop.
//! * **Decoding.** [`decode_tsv`] and [`read_tsv`] decode a body in one
//!   byte scan straight into one flat value buffer. A cell of up to eight
//!   digits is read from one 8-byte load (SWAR); other cells take the
//!   general path. Each row is checked against the one before it as it
//!   arrives, so a body already in canonical order, which is every body
//!   the encoder writes, is sealed as it stands; any other is sorted and
//!   deduplicated once.
//!
//! TSV cell convention: a cell that parses as an `i64` is an integer value;
//! anything else is a string value. A string is written between single
//! quotes when it would otherwise read back as something else: when it
//! parses as an integer, starts with `'`, has leading or trailing
//! whitespace, or contains a tab, newline or carriage return. Inside quotes,
//! `\t`, `\n`, `\r` and `\\` are escaped with a backslash, so a quoted
//! cell never holds a delimiter. Unquoted cells are written verbatim.

use crate::database::{Database, LoadError};
use crate::relation::{cmp_rows, Relation, RelationBuilder};
use rc_formula::{symbol_order, Symbol, SymbolOrder, Value};
use std::cmp::Ordering;
use std::io::{self, Read, Write};
use std::sync::Arc;

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

/// Rows [`append_tsv`] encodes before it sizes the rest of its output.
const SIZE_SAMPLE_ROWS: usize = 32;

/// Append one relation as TSV rows to `out`: cells separated by `\t`,
/// every row ended by `\n`, in the relation's canonical row order.
///
/// The first 32 rows (`SIZE_SAMPLE_ROWS`) are encoded as they come; the rest
/// of the output is then reserved from their mean width, so a large answer
/// grows its buffer about once instead of once per doubling. The estimate
/// is capped at the widest integer row (20 bytes and a delimiter per
/// cell), so long strings in the sample cannot make it reserve far more
/// than the relation itself holds; rows wider than that grow the buffer
/// as they come.
pub fn append_tsv(rel: &Relation, out: &mut Vec<u8>) {
    let start = out.len();
    let mut rows = rel.iter();
    for row in rows.by_ref().take(SIZE_SAMPLE_ROWS) {
        push_row(out, row);
    }
    let rest = rows.len();
    if rest > 0 {
        let sampled = (out.len() - start).div_ceil(SIZE_SAMPLE_ROWS);
        let per_row = sampled.min(21 * rel.arity());
        // An eighth of slack absorbs rows a little wider than the sample.
        out.reserve_exact(rest.saturating_mul(per_row + per_row / 8));
    }
    for row in rows {
        push_row(out, row);
    }
}

fn push_row(out: &mut Vec<u8>, row: &[Value]) {
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            out.push(b'\t');
        }
        match *v {
            Value::Int(n) => push_int(out, n),
            Value::Str(s) => push_str_cell(out, s.as_str()),
        }
    }
    out.push(b'\n');
}

/// `"00"`, `"01"`, …, `"99"`: entry `i` is the two ASCII digits of `i`,
/// the first in the low byte (the order they take in a little-endian
/// word).
const DIGIT_PAIRS: [u16; 100] = {
    let mut pairs = [0u16; 100];
    let mut i = 0;
    while i < 100 {
        pairs[i] = (b'0' + (i / 10) as u8) as u16 | ((b'0' + (i % 10) as u8) as u16) << 8;
        i += 1;
    }
    pairs
};

/// Decimal digits of `n`. A value in `0..10^8` (every key of a table of up
/// to a hundred million rows) is written at a fixed width: its eight
/// digits, leading zeros included, are assembled in one word from four
/// [`DIGIT_PAIRS`] lookups, the word is shifted past the leading zeros and
/// stored whole, and the buffer is cut back to the significant digits. Any
/// other value is formatted digit by digit on the stack.
#[inline]
fn push_int(out: &mut Vec<u8>, n: i64) {
    if let Ok(small @ 0..=99_999_999) = u32::try_from(n) {
        const ZEROS: u64 = u64::from_le_bytes(*b"00000000");
        let pair = |i: u32| u64::from(DIGIT_PAIRS[i as usize]);
        let (hi, lo) = (small / 10_000, small % 10_000);
        let digits =
            pair(hi / 100) | pair(hi % 100) << 16 | pair(lo / 100) << 32 | pair(lo % 100) << 48;
        // Leading zero digits are the low bytes equal to `'0'`; a zero
        // itself keeps its last one.
        let zeros = ((digits ^ ZEROS).trailing_zeros() / 8).min(7);
        let at = out.len();
        out.extend_from_slice(&(digits >> (8 * zeros)).to_le_bytes());
        out.truncate(at + 8 - zeros as usize);
        return;
    }
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
/// string. Surrounding whitespace is trimmed first. The decoder calls this
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

/// The one TSV row decoder, shared by [`read_tsv`] and [`decode_tsv`].
///
/// It walks the body once, splitting cells on `\t` and rows on `\n`, and
/// appends each row's values to a caller's flat buffer. A run of one to
/// eight digits ended by a delimiter is read by [`eight_digits`] from one
/// 8-byte load; any other cell goes through [`decode_cell`] (plain decimal
/// integers by its digit loop, everything else by [`parse_tsv_cell`],
/// whose trim also drops the `\r` of a CRLF row end).
struct TsvRows<'a> {
    text: &'a str,
    /// Byte offset of the current line: 0 or just past a `\n`, so always
    /// a char boundary.
    at: usize,
}

impl<'a> TsvRows<'a> {
    /// A decoder positioned at the start of `body`.
    fn new(body: &'a str) -> TsvRows<'a> {
        TsvRows { text: body, at: 0 }
    }

    /// The part of the body not yet decoded.
    fn rest(&self) -> &'a str {
        &self.text[self.at..]
    }

    /// Skip the current line without decoding it.
    fn skip_line(&mut self) {
        self.at = match memchr_newline(&self.text.as_bytes()[self.at..]) {
            Some(nl) => self.at + nl + 1,
            None => self.text.len(),
        };
    }

    /// Cells in the current line (its tabs plus one).
    fn line_width(&self) -> usize {
        let line = &self.text.as_bytes()[self.at..];
        let line = &line[..memchr_newline(line).unwrap_or(line.len())];
        1 + line.iter().filter(|&&b| b == b'\t').count()
    }

    /// Decode the current line as a row of `arity` cells onto `out` and
    /// move past it. `None` once the body is exhausted; `Some(false)`, with
    /// the decoder left on the line, when the line holds another number of
    /// cells. An empty line is one empty-string cell.
    #[inline]
    fn next_row(&mut self, arity: usize, out: &mut Vec<Value>) -> Option<bool> {
        debug_assert!(arity > 0, "a TSV row has at least one cell");
        let bytes = self.text.as_bytes();
        if self.at >= bytes.len() {
            return None;
        }
        let mut at = self.at;
        for cell in 1..=arity {
            // The common cell is pushed straight from the kernel; the
            // general path stays out of line, keeping this loop small.
            let end = match eight_digits(bytes, at) {
                Some((n, end)) => {
                    out.push(Value::Int(n));
                    end
                }
                None => push_decoded_cell(self.text, at, out),
            };
            match bytes.get(end) {
                Some(b'\t') if cell < arity => at = end + 1,
                Some(b'\n') if cell == arity => at = end + 1,
                None if cell == arity => at = end,
                _ => return Some(false),
            }
        }
        self.at = at;
        Some(true)
    }
}

fn memchr_newline(bytes: &[u8]) -> Option<usize> {
    bytes.iter().position(|&b| b == b'\n')
}

/// [`decode_cell`] onto `out`; returns the index of the cell's delimiter.
#[inline(never)]
fn push_decoded_cell(text: &str, at: usize, out: &mut Vec<Value>) -> usize {
    let (value, end) = decode_cell(text, at);
    out.push(value);
    end
}

/// The cell at byte `at` when it is a run of one to eight ASCII digits
/// ended by a `\t` or `\n`: its value and the index of that delimiter.
/// The digits are found and combined from one little-endian 8-byte load,
/// with no per-digit loop. `None` for anything else, and for a cell that
/// starts within eight bytes of the end of `bytes`: [`decode_cell`] reads
/// those.
#[inline]
fn eight_digits(bytes: &[u8], at: usize) -> Option<(i64, usize)> {
    const LANES: u64 = 0x0101_0101_0101_0101;
    let chunk: [u8; 8] = bytes.get(at..at.checked_add(8)?)?.try_into().ok()?;
    let w = u64::from_le_bytes(chunk);
    // A byte is a digit when its high nibble is 3 and its low nibble plus
    // 6 stays below 16. Neither test carries across bytes, so each lane's
    // high nibble is nonzero exactly when that byte is not a digit.
    let high = (w & (0xF0 * LANES)) ^ (0x30 * LANES);
    let low = ((w & (0x0F * LANES)) + 0x06 * LANES) & (0xF0 * LANES);
    let len = ((high | low).trailing_zeros() / 8) as usize;
    if len == 0 || !matches!(bytes.get(at + len), Some(b'\t' | b'\n')) {
        return None;
    }
    // The first digit is the lowest byte. Shift the run to the top bytes;
    // the zero bytes below it read as leading zeros. Then combine digits
    // into pairs, pairs into fours, and fours into the value.
    let v = (w << (8 * (8 - len))) & (0x0F * LANES);
    let v = (v * 10 + (v >> 8)) & 0x00FF_00FF_00FF_00FF;
    let v = (v * 100 + (v >> 16)) & 0x0000_FFFF_0000_FFFF;
    let v = (v * 10_000 + (v >> 32)) & 0xFFFF_FFFF;
    Some((v as i64, at + len))
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

/// Rows decoded straight into one flat buffer. Each row is compared with
/// the one before it as soon as it is decoded, while both are in cache, so
/// a strictly ascending body (every body the encoder writes) is sealed
/// without a second scan.
struct FlatRows {
    arity: usize,
    rows: usize,
    data: Vec<Value>,
    ascending: bool,
    order: Arc<SymbolOrder>,
}

impl FlatRows {
    fn with_capacity(arity: usize, rows: usize) -> FlatRows {
        FlatRows {
            arity,
            rows: 0,
            data: Vec::with_capacity(arity * rows),
            ascending: true,
            order: symbol_order(),
        }
    }

    /// Decode the next row of `dec` onto the buffer: `None` once the body
    /// is exhausted, `Some(false)` (keeping nothing) when the row's width
    /// is not the arity.
    #[inline]
    fn push_next(&mut self, dec: &mut TsvRows<'_>) -> Option<bool> {
        let start = self.data.len();
        if !dec.next_row(self.arity, &mut self.data)? {
            self.data.truncate(start);
            return Some(false);
        }
        if self.ascending && self.rows > 0 {
            let (prev, row) = self.data[start - self.arity..].split_at(self.arity);
            // A string interned while decoding is missing from the order
            // snapshot; `cmp_rows` then compares the strings themselves.
            self.ascending = cmp_rows(prev, row, &self.order) == Ordering::Less;
        }
        self.rows += 1;
        Some(true)
    }

    /// The decoded relation: the buffer as it stands when it is strictly
    /// ascending, sorted and deduplicated otherwise.
    fn seal(self) -> Relation {
        if self.ascending {
            let mut data = self.data;
            data.shrink_to_fit();
            Relation::from_canonical(self.arity, self.rows, data)
        } else {
            RelationBuilder::from_flat(self.arity, self.rows, self.data).finish()
        }
    }
}

/// Decode exactly `rows` rows of `arity` cells from the start of `body`,
/// as [`append_tsv`] writes them. Returns the relation and the part of the
/// body after the last row, or `None` when `arity` is 0, a row is missing,
/// or a row has another width.
///
/// `arity` and `rows` may come from a peer: the buffer is pre-sized only
/// for the rows the body can hold (each needs `arity - 1` tabs and a
/// newline), never from the counts alone. Rows out of canonical order or
/// repeated are accepted and come back sorted and deduplicated.
pub fn decode_tsv(body: &str, arity: usize, rows: usize) -> Option<(Relation, &str)> {
    let fit = (body.len() + 1).checked_div(arity)?;
    let mut flat = FlatRows::with_capacity(arity, rows.min(fit));
    let mut dec = TsvRows::new(body);
    for _ in 0..rows {
        if !flat.push_next(&mut dec)? {
            return None;
        }
    }
    Some((flat.seal(), dec.rest()))
}

/// Read a TSV relation. Arity is taken from the first row; blank lines and
/// `#` comments are skipped. Rows are decoded into one flat buffer and
/// canonicalized once at the end (and not at all when they arrive in
/// order), so loading is O(n log n) at worst rather than
/// insert-at-a-time.
pub fn read_tsv(mut r: impl Read) -> Result<Relation, LoadError> {
    let mut text = String::new();
    r.read_to_string(&mut text)
        .map_err(|e| LoadError::Parse(e.to_string()))?;
    let mut rows = TsvRows::new(&text);
    let mut flat: Option<FlatRows> = None;
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
        // Cells split on every tab (quoted cells escape theirs), so the
        // first row's width is its tab count plus one.
        let flat = flat.get_or_insert_with(|| FlatRows::with_capacity(rows.line_width(), 0));
        if flat.push_next(&mut rows) != Some(true) {
            return Err(LoadError::Parse(format!(
                "row arity {} differs from first row's {}",
                rows.line_width(),
                flat.arity
            )));
        }
    }
    Ok(flat.map_or_else(|| Relation::new(0), FlatRows::seal))
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
            let mut got = Vec::new();
            let want = parse_tsv_cell(cell);
            if cell.is_empty() {
                assert_eq!(rows.next_row(1, &mut got), None);
            } else {
                assert_eq!(rows.next_row(1, &mut got), Some(true), "cell {cell:?}");
                assert_eq!(got, [want], "cell {cell:?}");
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

    /// The codec as it stood before its kernels: the oracle the kernels are
    /// pinned to. Every cell is formatted or parsed on its own, through
    /// `std`'s integer formatting and [`parse_tsv_cell`], and the rows go
    /// through [`RelationBuilder::finish`].
    mod reference {
        use super::*;

        pub fn encode(rel: &Relation) -> Vec<u8> {
            let mut out = Vec::new();
            for row in rel.iter() {
                for (i, v) in row.iter().enumerate() {
                    if i > 0 {
                        out.push(b'\t');
                    }
                    match v {
                        Value::Int(n) => out.extend_from_slice(n.to_string().as_bytes()),
                        Value::Str(s) => push_str_cell(&mut out, s.as_str()),
                    }
                }
                out.push(b'\n');
            }
            out
        }

        /// `rows` rows of `arity` cells from the start of `body`, and the
        /// rest of the body.
        pub fn decode(body: &str, arity: usize, rows: usize) -> Option<(Relation, &str)> {
            if arity == 0 {
                return None;
            }
            let mut b = RelationBuilder::new(arity);
            let mut rest = body;
            for _ in 0..rows {
                if rest.is_empty() {
                    return None;
                }
                let (line, after) = rest.split_once('\n').unwrap_or((rest, ""));
                let row: Vec<Value> = line.split('\t').map(parse_tsv_cell).collect();
                if row.len() != arity {
                    return None;
                }
                b.push_row(&row);
                rest = after;
            }
            Some((b.finish(), rest))
        }
    }

    /// Integer cells of every digit count, the `i64` extremes, and the
    /// cells on either side of the eight-digit kernel's reach.
    fn random_int(rng: &mut rand::rngs::StdRng) -> i64 {
        use rand::Rng;
        let digits = rng.gen_range(1u32..=18);
        match rng.gen_range(0u32..6) {
            0 => rng.gen_range(0..10i64.pow(digits.min(8))),
            1 => rng.gen_range(10i64.pow(8)..=i64::MAX) / 10i64.pow(digits % 11),
            2 => [
                i64::MIN,
                i64::MAX,
                0,
                99_999_999,
                100_000_000,
                10_000_000,
                9,
                10,
            ][rng.gen_range(0..8usize)],
            3 => -rng.gen_range(1..=10i64.pow(digits)),
            _ => rng.gen_range(i64::MIN..=i64::MAX),
        }
    }

    const STRINGS: [&str; 16] = [
        "-",
        "-0",
        "007",
        "+5",
        "",
        "x",
        "naïve",
        "'quote",
        " lead",
        "trail ",
        "42",
        "9223372036854775808",
        "a\tb",
        "line\nbreak",
        "cr\rhere",
        "back\\slash",
    ];

    /// Raw cells as a peer might send them, not only as the encoder writes
    /// them: leading zeros, bare signs, out-of-range digit runs, padding,
    /// quoted and escaped strings.
    const RAW_CELLS: [&str; 16] = [
        "-",
        "-0",
        "007",
        "00000000",
        "12345678",
        "123456789",
        "-12",
        "+5",
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775808",
        " 7 ",
        "x",
        "'a\\tb'",
        "'42'",
        "",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        /// Encoding is byte-identical to the per-cell reference, and both
        /// decoders give back the relation, over integer cells of 1–19
        /// digits and strings that need quotes or escapes.
        #[test]
        fn kernels_match_the_reference_codec_on_encoded_bodies(seed in 0u64..100_000) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let arity = rng.gen_range(1usize..=4);
            let n = if rng.gen_bool(0.2) { rng.gen_range(33usize..200) } else { rng.gen_range(0usize..8) };
            let mut b = RelationBuilder::new(arity);
            for _ in 0..n {
                let row: Vec<Value> = (0..arity)
                    .map(|_| match rng.gen_range(0u32..4) {
                        0 => Value::str(STRINGS[rng.gen_range(0..STRINGS.len())]),
                        _ => Value::int(random_int(&mut rng)),
                    })
                    .collect();
                b.push_row(&row);
            }
            let rel = b.finish();
            let mut body = Vec::new();
            append_tsv(&rel, &mut body);
            proptest::prop_assert_eq!(&body, &reference::encode(&rel));
            let body = String::from_utf8(body).expect("the encoder writes UTF-8");
            let (back, rest) = decode_tsv(&body, arity, rel.len()).expect("the body decodes");
            proptest::prop_assert_eq!(&back, &rel);
            proptest::prop_assert_eq!(rest, "");
            // A row sent twice in an otherwise canonical body: in order but
            // not strictly ascending, so it comes back deduplicated.
            if !rel.is_empty() {
                let at = rng.gen_range(0..rel.len());
                let mut lines: Vec<&str> = body.split_inclusive('\n').collect();
                lines.insert(at, lines[at]);
                let twice = lines.concat();
                let (back, rest) = decode_tsv(&twice, arity, rel.len() + 1).expect("decodes");
                proptest::prop_assert_eq!(&back, &rel);
                proptest::prop_assert_eq!(rest, "");
            }
            // `read_tsv` skips blank lines: a unary empty-string row is one.
            let blank_row = arity == 1 && rel.contains(&[Value::str("")]);
            if !rel.is_empty() && !blank_row {
                proptest::prop_assert_eq!(read_tsv(body.as_bytes()).ok(), Some(rel));
            }
        }

        /// Bodies a peer might send decode like the reference: unsorted and
        /// duplicate rows come back canonical, CRLF row ends and a last row
        /// without a newline are read, cells near the end of the body take
        /// the general path, and any `rows`/`arity` the body cannot hold is
        /// refused without allocating for it.
        #[test]
        fn kernels_match_the_reference_codec_on_raw_bodies(seed in 0u64..100_000) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let arity = rng.gen_range(1usize..=3);
            let n = rng.gen_range(0usize..12);
            let crlf = rng.gen_bool(0.3);
            let mut body = String::new();
            for i in 0..n {
                let cells: Vec<String> = (0..arity)
                    .map(|c| match rng.gen_range(0u32..3) {
                        // The first column never starts a blank or comment
                        // line, so `read_tsv` keeps every row too.
                        0 if c > 0 => RAW_CELLS[rng.gen_range(0..RAW_CELLS.len())].to_string(),
                        1 => rng.gen_range(0i64..30).to_string(),
                        _ => random_int(&mut rng).to_string(),
                    })
                    .collect();
                body.push_str(&cells.join("\t"));
                if i + 1 < n || rng.gen_bool(0.5) {
                    body.push_str(if crlf { "\r\n" } else { "\n" });
                }
            }
            let rows = match rng.gen_range(0u32..6) {
                0 => rng.gen_range(0usize..=n + 2),
                1 => usize::MAX,
                _ => n,
            };
            let arity_header = match rng.gen_range(0u32..8) {
                0 => 1 << 40,
                1 => usize::MAX,
                _ => arity,
            };
            let got = decode_tsv(&body, arity_header, rows);
            let want = reference::decode(&body, arity_header, rows.min(n + 1));
            proptest::prop_assert_eq!(&got, &want, "{:?} arity {} rows {}", body, arity_header, rows);
            if rows == n && arity_header == arity {
                let want = want.expect("the reference decodes an honest body").0;
                let read = read_tsv(body.as_bytes()).expect("the body reads");
                proptest::prop_assert_eq!(read, if n == 0 { Relation::new(0) } else { want });
            }
        }
    }

    #[test]
    fn eight_digit_cells_are_read_in_one_load() {
        for (text, want) in [
            ("0\t", Some((0, 1))),
            ("7\n", Some((7, 1))),
            ("12345678\n", Some((12_345_678, 8))),
            ("99999999\t", Some((99_999_999, 8))),
            ("00000042\n", Some((42, 8))),
            ("123456789\n", None), // nine digits
            ("12345678 ", None),   // no delimiter after the run
            ("12\r\n", None),      // CRLF: the general path trims it
            ("-5\t", None),        // a sign
            ("1a\t", None),
            ("\t", None),
            ("1:\t", None),
            ("1/\t", None),
        ] {
            let padded = format!("{text}        ");
            assert_eq!(eight_digits(padded.as_bytes(), 0), want, "{text:?}");
        }
        // Within eight bytes of the end, or at it, the general path reads
        // the cell.
        for text in ["1\n", "123456\n", "12345678"] {
            assert_eq!(eight_digits(text.as_bytes(), 0), None, "{text:?}");
        }
    }

    #[test]
    fn long_strings_in_the_sample_do_not_inflate_the_reservation() {
        let long = "s".repeat(10_000);
        let rows = (0..10_032i64).map(|i| {
            let cell = if i < 32 {
                Value::str(&format!("{long}{i}"))
            } else {
                Value::int(i)
            };
            tuple([Value::int(i), cell])
        });
        let rel = Relation::from_rows(2, rows);
        let mut out = Vec::new();
        append_tsv(&rel, &mut out);
        // From the sample alone the rest would reserve ~100 MB.
        assert!(
            out.capacity() <= 2 * out.len(),
            "{} for {}",
            out.capacity(),
            out.len()
        );
    }

    #[test]
    fn small_integers_encode_like_std() {
        for n in [
            0,
            5,
            9,
            10,
            99,
            100,
            1_000,
            9_999,
            10_000,
            12_345_678,
            99_999_999,
            100_000_000,
        ] {
            let mut out = Vec::new();
            push_int(&mut out, n);
            assert_eq!(out, n.to_string().as_bytes(), "{n}");
        }
    }

    #[test]
    fn empty_tsv_gives_nullary_relation() {
        let rel = read_tsv(&b""[..]).unwrap();
        assert_eq!(rel.arity(), 0);
        assert!(rel.is_empty());
    }
}
