//! Tab-separated I/O for 2D slices and stacked 3D matrices.
//!
//! Two on-disk formats are supported:
//!
//! **2D slice** — a header row of sample names, then one row per gene with
//! the gene name in the first field:
//!
//! ```text
//! gene\ts0\ts1\ts2
//! g0\t1.0\t2.0\t3.0
//! g1\t4.0\t5.0\t6.0
//! ```
//!
//! **Stacked 3D** — one 2D slice per time point, each preceded by a line
//! `# time <name>`, slices separated by blank lines. Missing values (empty
//! fields or `NA`) become `NaN` and should be handled by
//! [`preprocess`](crate::preprocess) before mining.
//!
//! # Reading contract
//!
//! Both readers take the whole input as bytes and parse each cell straight
//! into the matrix buffer. [`parse_stacked_tsv`] gives contiguous runs of a
//! stacked file's `# time` sections to up to `workers` threads;
//! [`read_stacked_tsv`] and [`read_slice_tsv`] read their input to the end
//! and parse it on one. The worker count changes nothing below: not the
//! matrix, not the labels, not which error is returned or its fields.
//!
//! * One leading UTF-8 byte-order mark (`EF BB BF`) is skipped.
//! * Lines split as [`BufRead::lines`] splits them: at `\n`, dropping one
//!   `\r` before it, so LF and CRLF files read alike. A line that is not
//!   UTF-8 is an [`IoError::Io`] of kind `InvalidData`.
//! * Within a slice, blank lines (Unicode whitespace only) and lines
//!   starting with `#` are skipped. The first other line is the header:
//!   its tab-separated fields after the first are the sample names. Every
//!   later line is a row: a gene name, then one cell per sample. Names are
//!   trimmed of Unicode whitespace.
//! * A cell that trims to nothing, `NA` or `nan` (any case) is missing and
//!   reads as NaN. Any other cell must parse as an `f64` that is not
//!   infinite ([`IoError::BadNumber`], [`IoError::NonFinite`]), so a signed
//!   `-nan` reads as NaN too.
//! * A row whose field count differs from the header's is
//!   [`IoError::RaggedRow`], even when one of its cells is also bad.
//! * A slice without a header or without rows is [`IoError::Empty`].
//! * Error positions are 1-based lines of the whole input and 1-based data
//!   columns (the gene name is column 0); the token is the field as
//!   written, untrimmed.
//!
//! [`read_slice_tsv`] returns the first error in line order. The stacked
//! reader adds sections:
//!
//! * Lines before the first `# time` line are a preamble and ignored,
//!   except that one that is not UTF-8 fails the read.
//! * `# time` matches as a raw prefix, and the rest of the line, trimmed,
//!   names the slice: `# timestamp 5` starts a slice named `stamp 5`. An
//!   unnamed slice is `t<k>`, where `k` counts the slices kept before it.
//! * A section with no lines at all (a `# time` line followed by another,
//!   or by the end of input) is skipped. A section with any line, even a
//!   blank one, must hold a slice.
//! * A section's errors are reported when it ends, at the next `# time`
//!   line or the end of input. An invalid UTF-8 line up to there therefore
//!   beats an earlier bad cell in the same slice; a `# time` line that is
//!   not UTF-8 ends no section, so it beats the previous one's errors.
//!   Within the slice, the first ragged row or bad cell wins, then
//!   [`IoError::Empty`]. Only a slice whose own rows read cleanly is
//!   compared with the first kept slice: gene names first, then sample
//!   names (names and order), either mismatch is an
//!   [`IoError::InconsistentSlices`]. Last, its name (the `t<k>` default
//!   included) must differ from every kept slice's, or it is an
//!   [`IoError::InconsistentSlices`] that names the repeated label.

use crate::{Labels, Matrix2, Matrix3};
use std::collections::HashSet;
use std::fmt;
use std::io::{BufRead, Write};

/// Errors produced while parsing expression matrices.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A cell failed to parse as a number.
    BadNumber {
        /// 1-based line number of the offending row.
        line: usize,
        /// 1-based data-column number (the gene-name field is column 0).
        col: usize,
        /// The raw token.
        token: String,
    },
    /// A cell parsed to an infinite value. Explicit `inf`/`-inf` (and
    /// overflow spellings like `1e999`) are rejected up front — the miner's
    /// ratio tests cannot produce meaningful ranges from them — while `NA`,
    /// `nan`, and empty cells stay legal as missing values.
    NonFinite {
        /// 1-based line number of the offending row.
        line: usize,
        /// 1-based data-column number.
        col: usize,
        /// The raw token.
        token: String,
    },
    /// Row has a different number of columns than the header.
    RaggedRow {
        /// 1-based line number of the offending row.
        line: usize,
        /// Expected field count (header).
        expected: usize,
        /// Actual field count.
        got: usize,
    },
    /// The file has no data rows / slices.
    Empty,
    /// Time slices with inconsistent gene/sample sets.
    InconsistentSlices(String),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::BadNumber { line, col, token } => {
                write!(
                    f,
                    "line {line}, column {col}: cannot parse {token:?} as a number"
                )
            }
            IoError::NonFinite { line, col, token } => write!(
                f,
                "line {line}, column {col}: non-finite value {token:?} \
                 (use NA or an empty field for missing values)"
            ),
            IoError::RaggedRow {
                line,
                expected,
                got,
            } => write!(f, "line {line}: expected {expected} columns, found {got}"),
            IoError::Empty => write!(f, "no data rows found"),
            IoError::InconsistentSlices(msg) => write!(f, "inconsistent time slices: {msg}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

fn parse_cell(tok: &str, line: usize, col: usize) -> Result<f64, IoError> {
    // The common cell, a plain finite number, needs no trimming: a token
    // `parse` accepts has no surrounding whitespace.
    if let Ok(v) = tok.parse::<f64>() {
        if v.is_finite() {
            return Ok(v);
        }
    }
    let t = tok.trim();
    if t.is_empty() || t.eq_ignore_ascii_case("na") || t.eq_ignore_ascii_case("nan") {
        return Ok(f64::NAN);
    }
    let v = t.parse::<f64>().map_err(|_| IoError::BadNumber {
        line,
        col,
        token: tok.to_string(),
    })?;
    // `parse` accepts "inf"/"-infinity" and overflows "1e999" to infinity;
    // both poison ratio mining, so surface them with their position instead.
    // NaN spellings stay legal above: NaN is the missing-value convention.
    if v.is_infinite() {
        return Err(IoError::NonFinite {
            line,
            col,
            token: tok.to_string(),
        });
    }
    Ok(v)
}

/// A UTF-8 byte-order mark; both readers skip one at the start of input.
const BOM: &[u8] = b"\xef\xbb\xbf";

/// The error [`BufRead::lines`] gives for a line that is not UTF-8.
fn invalid_utf8() -> IoError {
    IoError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    ))
}

/// The input after one leading [`BOM`], as text: its lines up to the
/// first one that is not UTF-8, and whether such a line follows.
fn text_of(bytes: &[u8]) -> (&str, bool) {
    let bytes = bytes.strip_prefix(BOM).unwrap_or(bytes);
    match std::str::from_utf8(bytes) {
        Ok(text) => (text, false),
        Err(e) => {
            // A `\n` is never part of a multi-byte character, so the lines
            // before the one holding the first bad byte are UTF-8 and that
            // line is not. The prefix always converts: `valid_up_to` bounds
            // a UTF-8 prefix.
            let valid = &bytes[..e.valid_up_to()];
            let cut = valid.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            (std::str::from_utf8(&valid[..cut]).unwrap_or_default(), true)
        }
    }
}

/// The lines of `text` as [`BufRead::lines`] splits them: at `\n`,
/// dropping one `\r` before it.
fn lines(text: &str) -> impl Iterator<Item = &str> {
    text.split_inclusive('\n')
        .map(|line| match line.strip_suffix('\n') {
            Some(line) => line.strip_suffix('\r').unwrap_or(line),
            None => line,
        })
}

/// The index of the first tab in `bytes`, searched a word at a time: a
/// cell is a few words long, too short for a `memchr` call to pay off.
fn find_tab(bytes: &[u8]) -> Option<usize> {
    const TABS: u64 = u64::from_ne_bytes([b'\t'; 8]);
    const LOW: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_ne_bytes([0x80; 8]);
    let mut at = 0;
    while let Some(word) = bytes[at..].first_chunk::<8>() {
        // The lowest high bit of `zero` marks the first byte of `word`
        // that equals a tab; bits above it may be false positives.
        let x = u64::from_le_bytes(*word) ^ TABS;
        let zero = x.wrapping_sub(LOW) & !x & HIGH;
        if zero != 0 {
            return Some(at + zero.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    bytes[at..].iter().position(|&b| b == b'\t').map(|i| at + i)
}

/// The tab-separated fields of `line`, as `line.split('\t')` gives them.
fn fields(line: &str) -> impl Iterator<Item = &str> {
    let mut rest = Some(line);
    std::iter::from_fn(move || {
        let field = rest?;
        match find_tab(field.as_bytes()) {
            Some(tab) => {
                rest = Some(&field[tab + 1..]);
                Some(&field[..tab])
            }
            None => {
                rest = None;
                Some(field)
            }
        }
    })
}

/// Whether a slice skips `line`: a `#` line, or a blank one (Unicode
/// whitespace only).
fn skipped(line: &str) -> bool {
    line.starts_with('#') || line.trim().is_empty()
}

/// The first kept slice's names, which every slice must repeat. They are
/// scanned from its lines before any cell is parsed, so they also size the
/// matrix buffer.
#[derive(Default)]
struct Shape<'a> {
    genes: Vec<&'a str>,
    samples: Vec<&'a str>,
}

impl<'a> Shape<'a> {
    fn of(slice: &'a str) -> Self {
        let mut lines = lines(slice).filter(|line| !skipped(line));
        let Some(header) = lines.next() else {
            return Shape::default();
        };
        Shape {
            samples: fields(header).skip(1).map(str::trim).collect(),
            genes: lines
                .map(|row| fields(row).next().unwrap_or_default().trim())
                .collect(),
        }
    }

    /// The buffer length for `slices` slices of this shape, or 0 when that
    /// exceeds `input_len`. A clean read never does, since each cell it
    /// keeps follows a tab of its own, so a hostile header cannot make the
    /// reader allocate more cells than the input has bytes. Sized at 0,
    /// every slot is empty and the read only validates: it must fail.
    fn buffer_len(&self, slices: usize, input_len: usize) -> usize {
        self.genes
            .len()
            .checked_mul(self.samples.len())
            .and_then(|cells| cells.checked_mul(slices))
            .filter(|&cells| cells <= input_len)
            .unwrap_or(0)
    }
}

/// A slice whose lines read without a ragged row or bad cell.
struct Rows {
    count: usize,
    genes_differ: bool,
    samples_differ: bool,
}

impl Rows {
    /// Completes the slice: it needs a header and a row, and must repeat
    /// `shape`'s gene names (checked first) and sample names.
    fn end(&self, shape: &Shape) -> Result<(), IoError> {
        if self.count == 0 {
            return Err(IoError::Empty);
        }
        if self.genes_differ || self.count != shape.genes.len() {
            return Err(IoError::InconsistentSlices(
                "gene names differ between slices".into(),
            ));
        }
        if self.samples_differ {
            return Err(IoError::InconsistentSlices(
                "sample names differ between slices".into(),
            ));
        }
        Ok(())
    }
}

/// Reads the lines of one slice: blank and `#` lines, then its header,
/// then rows whose cells go in order into `slot`. A cell past the slot's
/// end is parsed but not stored, since its slice fails [`Rows::end`]; its
/// later rows are still checked, so their own errors come first. Returns
/// the first ragged row or bad cell, at its line of `slice`.
fn read_rows(slice: &str, shape: &Shape, slot: &mut [f64]) -> Result<Rows, IoError> {
    let mut slot = slot.iter_mut();
    let mut ncols = None;
    let mut rows = Rows {
        count: 0,
        genes_differ: false,
        samples_differ: false,
    };
    for (number, line) in (1..).zip(lines(slice)) {
        if skipped(line) {
            continue;
        }
        let Some(ncols) = ncols else {
            let got = line.bytes().filter(|&b| b == b'\t').count();
            let names = fields(line).skip(1).map(str::trim);
            rows.samples_differ = got != shape.samples.len()
                || names.zip(&shape.samples).any(|(name, want)| name != *want);
            ncols = Some(got);
            continue;
        };
        // Cells are parsed as they are split, up to the first bad cell or
        // extra field; the field count is then completed, and a ragged row
        // wins over its own bad cell.
        let mut tokens = fields(line);
        let name = tokens.next().unwrap_or_default().trim();
        let mut got = 0;
        let mut bad = None;
        for tok in tokens.by_ref() {
            got += 1;
            if got > ncols {
                break;
            }
            match parse_cell(tok, number, got) {
                Ok(v) => {
                    if let Some(cell) = slot.next() {
                        *cell = v;
                    }
                }
                Err(e) => {
                    bad = Some(e);
                    break;
                }
            }
        }
        let got = got + tokens.count();
        if got != ncols {
            return Err(IoError::RaggedRow {
                line: number,
                expected: ncols,
                got,
            });
        }
        if let Some(e) = bad {
            return Err(e);
        }
        rows.genes_differ |= shape.genes.get(rows.count) != Some(&name);
        rows.count += 1;
    }
    Ok(rows)
}

/// Reads a single 2D slice (gene × sample) in the header+rows TSV format.
///
/// Returns the matrix plus the gene and sample names. The first error in
/// line order is returned (see the [module docs](self)).
pub fn read_slice_tsv<R: BufRead>(
    mut reader: R,
) -> Result<(Matrix2, Vec<String>, Vec<String>), IoError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    let (text, invalid) = text_of(&bytes);
    let shape = Shape::of(text);
    let mut data = vec![0.0; shape.buffer_len(1, text.len())];
    let rows = read_rows(text, &shape, &mut data)?;
    if invalid {
        return Err(invalid_utf8());
    }
    rows.end(&shape)?;
    let (genes, samples) = (shape.genes.len(), shape.samples.len());
    Ok((
        Matrix2::from_vec(genes, samples, data),
        owned(&shape.genes),
        owned(&shape.samples),
    ))
}

fn owned(names: &[&str]) -> Vec<String> {
    names.iter().map(|name| name.to_string()).collect()
}

/// A `# time` section of a stacked file.
struct Section<'a> {
    /// The rest of the `# time` line, trimmed.
    name: &'a str,
    /// The lines after the `# time` line, up to the next one.
    body: &'a str,
    /// The body's byte offset in the input.
    start: usize,
}

impl Section<'_> {
    /// Moves an error found in the body to its line of `text`, the input
    /// the section was cut from. Lines are counted only here, on failure.
    fn place(&self, text: &str, mut e: IoError) -> IoError {
        if let IoError::BadNumber { line, .. }
        | IoError::NonFinite { line, .. }
        | IoError::RaggedRow { line, .. } = &mut e
        {
            *line += text.as_bytes()[..self.start]
                .iter()
                .filter(|&&b| b == b'\n')
                .count();
        }
        e
    }
}

/// The `# time` sections of `text` in order. Lines before the first one
/// are a preamble and dropped.
fn sections(text: &str) -> Vec<Section<'_>> {
    const HEAD: &str = "# time";
    // Found by their `#`, which rows rarely hold: one `memchr` per `#`
    // instead of one per line.
    let mut starts = Vec::new();
    let mut from = 0;
    while let Some(i) = text[from..].find('#') {
        let at = from + i;
        if (at == 0 || text.as_bytes()[at - 1] == b'\n') && text[at..].starts_with(HEAD) {
            starts.push(at);
        }
        from = at + 1;
    }
    let ends = starts.iter().skip(1).copied().chain([text.len()]);
    starts
        .iter()
        .zip(ends)
        .map(|(&at, end)| {
            let (head, body) = text[at..end]
                .split_once('\n')
                .unwrap_or((&text[at..end], ""));
            Section {
                name: head[HEAD.len()..].trim(),
                body,
                start: end - body.len(),
            }
        })
        .collect()
}

/// The error for a kept slice named like an earlier one.
fn repeated_time(name: &str) -> IoError {
    IoError::InconsistentSlices(format!("time label {name:?} names two slices"))
}

/// Reads a stacked 3D matrix: repeated `# time <name>` headers, each followed
/// by a 2D slice in the slice format. All slices must agree on genes and
/// samples (names and order), and no two may share a name.
///
/// A one-worker [`parse_stacked_tsv`] of the whole input.
pub fn read_stacked_tsv<R: BufRead>(mut reader: R) -> Result<(Matrix3, Labels), IoError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    parse_stacked_tsv(&bytes, 1)
}

/// Parses a stacked 3D matrix (the format [`read_stacked_tsv`] reads) from
/// its bytes, on up to `workers` threads (0 counts as 1).
///
/// Each worker takes a contiguous run of the `# time` sections and parses
/// their cells straight into their slots of the one [`Matrix3`] buffer,
/// sized from the first kept section. The sections' outcomes are then
/// taken in file order, so the matrix, the labels and the error, which
/// follows the order set out in the [module docs](self), do not depend on
/// `workers`. A worker's panic reaches the caller.
pub fn parse_stacked_tsv(bytes: &[u8], workers: usize) -> Result<(Matrix3, Labels), IoError> {
    let (text, invalid) = text_of(bytes);
    let mut sections = sections(text);
    if invalid {
        // The line that is not UTF-8 cuts the last section short, and the
        // error it raises comes before that section's own at its end.
        sections.pop();
    }
    // Sections with no lines at all are skipped; every other one must
    // hold a slice.
    sections.retain(|section| !section.body.is_empty());
    let shape = sections
        .first()
        .map_or_else(Shape::default, |first| Shape::of(first.body));
    let mut data = vec![0.0; shape.buffer_len(sections.len(), text.len())];
    let (clean, failure) = read_slices(&sections, &shape, &mut data, workers);
    let mut times: Vec<String> = Vec::with_capacity(clean);
    let mut kept = HashSet::new();
    for section in &sections[..clean] {
        let time = if section.name.is_empty() {
            format!("t{}", times.len())
        } else {
            section.name.to_string()
        };
        if !kept.insert(time.clone()) {
            return Err(repeated_time(&time));
        }
        times.push(time);
    }
    if let Some(e) = failure {
        return Err(sections[clean].place(text, e));
    }
    if invalid {
        return Err(invalid_utf8());
    }
    if times.is_empty() {
        return Err(IoError::Empty);
    }
    let (genes, samples) = (shape.genes.len(), shape.samples.len());
    let matrix = Matrix3::from_time_major(genes, samples, times.len(), data);
    Ok((
        matrix,
        Labels::new(owned(&shape.genes), owned(&shape.samples), times),
    ))
}

/// Reads every section's slice into its slot of `data`. The sections are
/// cut into up to `workers` contiguous runs of equal count; this thread
/// reads the first run and a scoped thread each other one. Returns how
/// many sections read cleanly before the first that failed, and its error;
/// a run stops at its own first failure.
fn read_slices(
    sections: &[Section],
    shape: &Shape,
    data: &mut [f64],
    workers: usize,
) -> (usize, Option<IoError>) {
    if sections.is_empty() {
        return (0, None);
    }
    // `data` holds one slot per section, or none when the read can only fail.
    let slot_len = data.len() / sections.len();
    let mut rest = data;
    let mut jobs: Vec<(&Section, &mut [f64])> = sections
        .iter()
        .map(|section| {
            let (slot, tail) = std::mem::take(&mut rest).split_at_mut(slot_len);
            rest = tail;
            (section, slot)
        })
        .collect();
    let mut runs = jobs.chunks_mut(sections.len().div_ceil(workers.max(1)));
    let outcomes: Vec<(usize, Option<IoError>)> = std::thread::scope(|scope| {
        let first = runs.next();
        let spawned: Vec<_> = runs
            .map(|run| scope.spawn(move || read_run(run, shape)))
            .collect();
        let mut outcomes = vec![first.map_or((0, None), |run| read_run(run, shape))];
        for worker in spawned {
            let outcome = worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            outcomes.push(outcome);
        }
        outcomes
    });
    let mut clean = 0;
    for (read, failure) in outcomes {
        clean += read;
        if failure.is_some() {
            return (clean, failure);
        }
    }
    (clean, None)
}

/// Reads one worker's run of sections, stopping at the first that fails.
fn read_run(run: &mut [(&Section, &mut [f64])], shape: &Shape) -> (usize, Option<IoError>) {
    for (k, (section, slot)) in run.iter_mut().enumerate() {
        let read = read_rows(section.body, shape, slot);
        if let Err(e) = read.and_then(|rows| rows.end(shape)) {
            return (k, Some(e));
        }
    }
    (run.len(), None)
}

/// Writes a single 2D slice in the slice TSV format.
pub fn write_slice_tsv<W: Write>(
    w: &mut W,
    m: &Matrix2,
    genes: &[String],
    samples: &[String],
) -> std::io::Result<()> {
    write!(w, "gene")?;
    for j in 0..m.cols() {
        let name = samples.get(j).cloned().unwrap_or_else(|| format!("s{j}"));
        write!(w, "\t{name}")?;
    }
    writeln!(w)?;
    for i in 0..m.rows() {
        let name = genes.get(i).cloned().unwrap_or_else(|| format!("g{i}"));
        write!(w, "{name}")?;
        for j in 0..m.cols() {
            write!(w, "\t{}", m.get(i, j))?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Writes a stacked 3D matrix in the `# time` format read by
/// [`read_stacked_tsv`].
pub fn write_stacked_tsv<W: Write>(w: &mut W, m: &Matrix3, labels: &Labels) -> std::io::Result<()> {
    for t in 0..m.n_times() {
        writeln!(w, "# time {}", labels.time(t))?;
        let slice = m.time_slice(t);
        write_slice_tsv(w, &slice, labels.genes(), labels.samples())?;
        writeln!(w)?;
    }
    Ok(())
}

/// A two-pass reader over [`BufRead::lines`]: the reference the
/// differential tests compare [`parse_stacked_tsv`] and [`read_slice_tsv`]
/// against.
#[cfg(test)]
mod oracle {
    use super::{parse_cell, IoError, BOM};
    use crate::{Labels, Matrix2, Matrix3};
    use std::io::BufRead;

    /// `input` after one leading byte-order mark.
    fn unmarked(input: &[u8]) -> &[u8] {
        input.strip_prefix(BOM).unwrap_or(input)
    }

    /// The slice reader.
    #[allow(clippy::type_complexity)]
    pub(super) fn read_slice_tsv(
        input: &[u8],
    ) -> Result<(Matrix2, Vec<String>, Vec<String>), IoError> {
        read_slice_tsv_from(unmarked(input), 0)
    }

    /// The slice reader, with reported line numbers offset by `first_line`
    /// (0-based); lets the stacked reader report file-global positions for
    /// errors inside embedded slices.
    fn read_slice_tsv_from<R: BufRead>(
        reader: R,
        first_line: usize,
    ) -> Result<(Matrix2, Vec<String>, Vec<String>), IoError> {
        let mut lines = reader.lines().enumerate().map(|(i, l)| (first_line + i, l));
        let (_, header) = loop {
            match lines.next() {
                Some((i, l)) => {
                    let l = l?;
                    if !l.trim().is_empty() && !l.starts_with('#') {
                        break (i, l);
                    }
                }
                None => return Err(IoError::Empty),
            }
        };
        let samples: Vec<String> = header
            .split('\t')
            .skip(1)
            .map(|s| s.trim().to_string())
            .collect();
        let ncols = samples.len();
        let mut genes = Vec::new();
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for (i, line) in lines {
            let line = line?;
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split('\t');
            let name = fields.next().unwrap_or("").trim().to_string();
            let vals: Vec<&str> = fields.collect();
            if vals.len() != ncols {
                return Err(IoError::RaggedRow {
                    line: i + 1,
                    expected: ncols,
                    got: vals.len(),
                });
            }
            let mut row = Vec::with_capacity(ncols);
            for (j, v) in vals.iter().enumerate() {
                row.push(parse_cell(v, i + 1, j + 1)?);
            }
            genes.push(name);
            rows.push(row);
        }
        if rows.is_empty() {
            return Err(IoError::Empty);
        }
        Ok((Matrix2::from_rows(&rows), genes, samples))
    }

    /// The stacked reader: buffers each slice's lines, then re-reads them
    /// joined through a `Cursor` into a `Matrix2` per slice.
    #[allow(clippy::type_complexity)]
    pub(super) fn read_stacked_tsv(input: &[u8]) -> Result<(Matrix3, Labels), IoError> {
        let reader = unmarked(input);
        let mut slices: Vec<Matrix2> = Vec::new();
        let mut times: Vec<String> = Vec::new();
        let mut genes: Option<Vec<String>> = None;
        let mut samples: Option<Vec<String>> = None;

        let mut current: Vec<String> = Vec::new();
        let mut current_start = 0usize; // 0-based file line where the slice body begins
        let mut current_time = String::new();
        let mut in_slice = false;

        // parses the buffered slice body, reporting errors at file-global lines
        let finish = |buf: &mut Vec<String>,
                      start: usize|
         -> Result<Option<(Matrix2, Vec<String>, Vec<String>)>, IoError> {
            if buf.is_empty() {
                return Ok(None);
            }
            let joined = buf.join("\n");
            buf.clear();
            let (m, g, s) = read_slice_tsv_from(std::io::Cursor::new(joined), start)?;
            Ok(Some((m, g, s)))
        };

        for (i, line) in reader.lines().enumerate() {
            let line = line?;
            if let Some(rest) = line.strip_prefix("# time") {
                if in_slice {
                    if let Some((m, g, s)) = finish(&mut current, current_start)? {
                        check_consistent(&mut genes, &mut samples, &g, &s)?;
                        check_new_time(&times, &current_time)?;
                        slices.push(m);
                        times.push(current_time.clone());
                    }
                }
                current_time = rest.trim().to_string();
                if current_time.is_empty() {
                    current_time = format!("t{}", times.len());
                }
                current_start = i + 1;
                in_slice = true;
            } else if in_slice {
                current.push(line);
            }
            // lines before the first `# time` header are ignored (file preamble)
        }
        if in_slice {
            if let Some((m, g, s)) = finish(&mut current, current_start)? {
                check_consistent(&mut genes, &mut samples, &g, &s)?;
                check_new_time(&times, &current_time)?;
                slices.push(m);
                times.push(current_time);
            }
        }
        if slices.is_empty() {
            return Err(IoError::Empty);
        }
        let labels = Labels::new(
            genes.unwrap_or_default(),
            samples.unwrap_or_default(),
            times,
        );
        Ok((Matrix3::from_time_slices(&slices), labels))
    }

    fn check_new_time(times: &[String], time: &str) -> Result<(), IoError> {
        if times.iter().any(|t| t == time) {
            return Err(IoError::InconsistentSlices(format!(
                "time label {time:?} names two slices"
            )));
        }
        Ok(())
    }

    fn check_consistent(
        genes: &mut Option<Vec<String>>,
        samples: &mut Option<Vec<String>>,
        g: &[String],
        s: &[String],
    ) -> Result<(), IoError> {
        match genes {
            None => *genes = Some(g.to_vec()),
            Some(prev) if prev.as_slice() != g => {
                return Err(IoError::InconsistentSlices(
                    "gene names differ between slices".into(),
                ))
            }
            _ => {}
        }
        match samples {
            None => *samples = Some(s.to_vec()),
            Some(prev) if prev.as_slice() != s => {
                return Err(IoError::InconsistentSlices(
                    "sample names differ between slices".into(),
                ))
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLICE: &str = "gene\ts0\ts1\ns_a\t1.0\t2.5\ns_b\t-3\t4e1\n";

    #[test]
    fn read_slice_basic() {
        let (m, genes, samples) = read_slice_tsv(SLICE.as_bytes()).unwrap();
        assert_eq!(m.dims(), (2, 2));
        assert_eq!(genes, vec!["s_a", "s_b"]);
        assert_eq!(samples, vec!["s0", "s1"]);
        assert_eq!(m.get(0, 1), 2.5);
        assert_eq!(m.get(1, 0), -3.0);
        assert_eq!(m.get(1, 1), 40.0);
    }

    #[test]
    fn read_slice_skips_comments_and_blanks() {
        let text = "# preamble\n\ngene\ts0\n# note\ng0\t7\n\n";
        let (m, genes, _) = read_slice_tsv(text.as_bytes()).unwrap();
        assert_eq!(m.dims(), (1, 1));
        assert_eq!(genes, vec!["g0"]);
        assert_eq!(m.get(0, 0), 7.0);
    }

    #[test]
    fn read_slice_na_becomes_nan() {
        let text = "gene\ts0\ts1\ng0\tNA\t\n";
        let (m, _, _) = read_slice_tsv(text.as_bytes()).unwrap();
        assert!(m.get(0, 0).is_nan());
        assert!(m.get(0, 1).is_nan());
    }

    #[test]
    fn read_slice_bad_number_reports_line_and_column() {
        let text = "gene\ts0\ts1\ng0\t1.5\toops\n";
        match read_slice_tsv(text.as_bytes()) {
            Err(IoError::BadNumber { line, col, token }) => {
                assert_eq!((line, col), (2, 2));
                assert_eq!(token, "oops");
            }
            other => panic!("expected BadNumber, got {other:?}"),
        }
    }

    #[test]
    fn parse_cell_token_conventions() {
        // missing-value spellings become NaN
        for missing in ["", "  ", "NA", "na", "NaN", "nan"] {
            assert!(parse_cell(missing, 1, 1).unwrap().is_nan(), "{missing:?}");
        }
        // ordinary numbers parse (with surrounding whitespace)
        assert_eq!(parse_cell(" -3.5e2 ", 1, 1).unwrap(), -350.0);
        assert_eq!(parse_cell("0", 1, 1).unwrap(), 0.0);
        // explicit infinities and overflow spellings are rejected in place
        for inf in ["inf", "-inf", "Infinity", "-INF", "1e999", "-1e999"] {
            match parse_cell(inf, 7, 3) {
                Err(IoError::NonFinite { line, col, token }) => {
                    assert_eq!((line, col), (7, 3), "{inf:?}");
                    assert_eq!(token, inf);
                }
                other => panic!("expected NonFinite for {inf:?}, got {other:?}"),
            }
        }
        // garbage is a parse error carrying the position
        match parse_cell("12..5", 4, 9) {
            Err(IoError::BadNumber { line, col, .. }) => assert_eq!((line, col), (4, 9)),
            other => panic!("expected BadNumber, got {other:?}"),
        }
    }

    #[test]
    fn read_slice_rejects_non_finite_cells() {
        let text = "gene\ts0\ts1\ng0\t1\t2\ng1\t3\tinf\n";
        match read_slice_tsv(text.as_bytes()) {
            Err(IoError::NonFinite { line, col, token }) => {
                assert_eq!((line, col), (3, 2));
                assert_eq!(token, "inf");
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
    }

    #[test]
    fn stacked_errors_report_file_global_lines() {
        // the bad cell sits in the SECOND slice; its reported line must be
        // its position in the whole file, not within the embedded slice
        let text = "# time t0\n\
                    gene\ts0\n\
                    ga\t1\n\
                    \n\
                    # time t1\n\
                    gene\ts0\n\
                    ga\toops\n";
        match read_stacked_tsv(text.as_bytes()) {
            Err(IoError::BadNumber { line, col, token }) => {
                assert_eq!((line, col), (7, 1), "token {token:?}");
            }
            other => panic!("expected BadNumber, got {other:?}"),
        }
        let ragged = "# time t0\ngene\ts0\ts1\nga\t1\t2\n\n# time t1\ngene\ts0\ts1\nga\t1\n";
        match read_stacked_tsv(ragged.as_bytes()) {
            Err(IoError::RaggedRow {
                line,
                expected,
                got,
            }) => {
                assert_eq!((line, expected, got), (7, 2, 1));
            }
            other => panic!("expected RaggedRow, got {other:?}"),
        }
    }

    #[test]
    fn read_slice_ragged_reports_shape() {
        let text = "gene\ts0\ts1\ng0\t1\n";
        match read_slice_tsv(text.as_bytes()) {
            Err(IoError::RaggedRow { expected, got, .. }) => {
                assert_eq!((expected, got), (2, 1));
            }
            other => panic!("expected RaggedRow, got {other:?}"),
        }
    }

    #[test]
    fn read_slice_empty_errors() {
        assert!(matches!(read_slice_tsv("".as_bytes()), Err(IoError::Empty)));
        assert!(matches!(
            read_slice_tsv("gene\ts0\n".as_bytes()),
            Err(IoError::Empty)
        ));
    }

    #[test]
    fn stacked_roundtrip() {
        let mut m = Matrix3::zeros(2, 2, 2);
        for g in 0..2 {
            for s in 0..2 {
                for t in 0..2 {
                    m.set(g, s, t, (g * 4 + s * 2 + t) as f64 + 0.5);
                }
            }
        }
        let labels = Labels::new(
            vec!["ga".into(), "gb".into()],
            vec!["sa".into(), "sb".into()],
            vec!["0m".into(), "30m".into()],
        );
        let mut buf = Vec::new();
        write_stacked_tsv(&mut buf, &m, &labels).unwrap();
        let (back, back_labels) = read_stacked_tsv(buf.as_slice()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back_labels, labels);
    }

    /// A stacked file concatenated with itself repeats its first slice's
    /// label; reading it fails there, naming the label, instead of doubling
    /// the slices.
    #[test]
    fn stacked_file_read_twice_names_its_repeated_label() {
        let mut m = Matrix3::zeros(3, 2, 2);
        m.map_in_place(|_| 1.5);
        let mut once = Vec::new();
        write_stacked_tsv(&mut once, &m, &Labels::default_for(3, 2, 2)).unwrap();
        let twice = [once.as_slice(), once.as_slice()].concat();
        match read_stacked_tsv(twice.as_slice()) {
            Err(e @ IoError::InconsistentSlices(_)) => {
                assert_eq!(
                    e.to_string(),
                    "inconsistent time slices: time label \"t0\" names two slices"
                );
            }
            other => panic!("expected a repeated label, got {other:?}"),
        }
    }

    #[test]
    fn stacked_inconsistent_genes_errors() {
        let text = "# time t0\ngene\ts0\nga\t1\n\n# time t1\ngene\ts0\ngb\t1\n";
        assert!(matches!(
            read_stacked_tsv(text.as_bytes()),
            Err(IoError::InconsistentSlices(_))
        ));
    }

    #[test]
    fn stacked_unnamed_time_gets_default() {
        let text = "# time\ngene\ts0\nga\t1\n";
        let (m, labels) = read_stacked_tsv(text.as_bytes()).unwrap();
        assert_eq!(m.dims(), (1, 1, 1));
        assert_eq!(labels.times(), &["t0"]);
    }

    #[test]
    fn stacked_empty_errors() {
        assert!(matches!(
            read_stacked_tsv("".as_bytes()),
            Err(IoError::Empty)
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = IoError::BadNumber {
            line: 3,
            col: 2,
            token: "x".into(),
        };
        assert!(e.to_string().contains("line 3, column 2"));
        let e = IoError::NonFinite {
            line: 5,
            col: 1,
            token: "inf".into(),
        };
        assert!(e.to_string().contains("line 5, column 1"));
        assert!(e.to_string().contains("missing"));
        let e = IoError::RaggedRow {
            line: 1,
            expected: 4,
            got: 2,
        };
        assert!(e.to_string().contains("expected 4"));
    }

    /// A reader's result in comparable form: dims, labels and the matrix's
    /// bits (NaN included), or the error's variant and fields. An I/O
    /// error compares by kind and message.
    type Outcome = Result<(Vec<usize>, Vec<Vec<String>>, Vec<u64>), String>;

    fn describe(e: &IoError) -> String {
        match e {
            IoError::Io(e) => format!("Io({:?}, {e})", e.kind()),
            other => format!("{other:?}"),
        }
    }

    fn stacked_outcome(r: Result<(Matrix3, Labels), IoError>) -> Outcome {
        let (m, labels) = r.map_err(|e| describe(&e))?;
        let (g, s, t) = m.dims();
        Ok((
            vec![g, s, t],
            vec![
                labels.genes().to_vec(),
                labels.samples().to_vec(),
                labels.times().to_vec(),
            ],
            m.as_slice().iter().map(|v| v.to_bits()).collect(),
        ))
    }

    fn slice_outcome(r: Result<(Matrix2, Vec<String>, Vec<String>), IoError>) -> Outcome {
        let (m, genes, samples) = r.map_err(|e| describe(&e))?;
        Ok((
            vec![m.rows(), m.cols()],
            vec![genes, samples],
            m.as_slice().iter().map(|v| v.to_bits()).collect(),
        ))
    }

    /// Generated stacked TSVs in the formats the readers accept, with up to
    /// two defects each.
    mod gen {
        use proptest::TestRng;

        const NAMES: &[&str] = &[
            "g",
            "alpha",
            " padded ",
            "\u{a0}nbsp",
            "ideo\u{3000}",
            "σ-gene",
            "x y",
            "zero\u{200b}width",
        ];
        const CELLS: &[&str] = &[
            "1.5", "-3", "4e1", " 2.25 ", "0", "7", "NA", "na", "nan", "NaN", "-nan", "", "  ",
            "\u{2003}",
        ];
        const TIMES: &[&str] = &[
            "# time t0",
            "# time",
            "# time   ",
            "# timestamp 5",
            "# time\u{a0}later",
            "# time 30m",
        ];
        const JUNK: &[&str] = &["", "  ", "\u{3000}", "# note", "#", "gene\tpreamble"];
        const BAD: &[&str] = &["oops", "1.2.3", "--1", "0x10", "inf", "-Infinity", "1e999"];

        #[derive(Clone, Copy, PartialEq)]
        enum Kind {
            Time,
            Header,
            Row,
            Other,
        }

        struct Line {
            kind: Kind,
            slice: usize,
            fields: Vec<String>,
            invalid_utf8: bool,
        }

        fn pick<'a>(rng: &mut TestRng, items: &[&'a str]) -> &'a str {
            items[rng.below(items.len() as u64) as usize]
        }

        fn chance(rng: &mut TestRng, num: u64, den: u64) -> bool {
            rng.below(den) < num
        }

        fn other(rng: &mut TestRng, slice: usize) -> Line {
            Line {
                kind: Kind::Other,
                slice,
                fields: vec![pick(rng, JUNK).to_string()],
                invalid_utf8: false,
            }
        }

        /// Index of a random line satisfying `want`, if any.
        fn find(rng: &mut TestRng, lines: &[Line], want: impl Fn(&Line) -> bool) -> Option<usize> {
            let hits: Vec<usize> = (0..lines.len()).filter(|&i| want(&lines[i])).collect();
            (!hits.is_empty()).then(|| hits[rng.below(hits.len() as u64) as usize])
        }

        /// One stacked TSV: a preamble, 1–5 slices (some after an empty
        /// section), names with Unicode whitespace, missing-value spellings,
        /// comments, blank lines, mixed LF/CRLF endings and sometimes a
        /// leading byte-order mark. Never a doubled
        /// `\r\r\n`: the two-pass reader's second split strips it to `\n`,
        /// the one known divergence (it shows only in an error's token).
        pub fn stacked(rng: &mut TestRng) -> Vec<u8> {
            let n_genes = 1 + rng.below(4) as usize;
            let n_samples = rng.below(5) as usize;
            let genes: Vec<String> = (0..n_genes)
                .map(|i| format!("{}{i}", pick(rng, NAMES)))
                .collect();
            let samples: Vec<String> = (0..n_samples)
                .map(|j| format!("{}{j}", pick(rng, NAMES)))
                .collect();
            let mut lines = Vec::new();
            for _ in 0..rng.below(3) {
                lines.push(other(rng, 0));
            }
            let time = |rng: &mut TestRng, slice: usize| Line {
                kind: Kind::Time,
                slice,
                fields: vec![pick(rng, TIMES).to_string()],
                invalid_utf8: false,
            };
            for t in 0..1 + rng.below(5) as usize {
                if chance(rng, 1, 6) {
                    // An empty section, or one with no header.
                    lines.push(time(rng, t));
                    if chance(rng, 1, 3) {
                        lines.push(other(rng, t));
                    }
                }
                lines.push(time(rng, t));
                if chance(rng, 1, 5) {
                    lines.push(other(rng, t));
                }
                let mut header = vec!["gene".to_string()];
                header.extend(samples.iter().cloned());
                lines.push(Line {
                    kind: Kind::Header,
                    slice: t,
                    fields: header,
                    invalid_utf8: false,
                });
                for gene in &genes {
                    if chance(rng, 1, 8) {
                        lines.push(other(rng, t));
                    }
                    let mut row = vec![gene.clone()];
                    row.extend((0..n_samples).map(|_| pick(rng, CELLS).to_string()));
                    lines.push(Line {
                        kind: Kind::Row,
                        slice: t,
                        fields: row,
                        invalid_utf8: false,
                    });
                }
                if chance(rng, 1, 2) {
                    lines.push(Line {
                        kind: Kind::Other,
                        slice: t,
                        fields: vec![String::new()],
                        invalid_utf8: false,
                    });
                }
            }
            if chance(rng, 1, 8) {
                let last = lines.last().map_or(0, |l| l.slice);
                lines.push(time(rng, last + 1));
            }
            for _ in 0..rng.below(3) {
                mutate(rng, &mut lines);
            }
            let mut out = Vec::new();
            for (i, line) in lines.iter().enumerate() {
                let mut bytes = line.fields.join("\t").into_bytes();
                if line.invalid_utf8 {
                    let at = rng.below(bytes.len() as u64 + 1) as usize;
                    bytes.insert(at, if chance(rng, 1, 2) { 0xff } else { 0xc3 });
                }
                out.extend_from_slice(&bytes);
                let last = i + 1 == lines.len();
                out.extend_from_slice(match rng.below(6) {
                    0 if last => b"",
                    1 if last => b"\r",
                    0..=1 => b"\r\n",
                    _ => b"\n",
                });
            }
            if chance(rng, 1, 10) {
                out.splice(0..0, super::BOM.iter().copied());
            }
            out
        }

        /// Applies one defect, when the input has a place for it.
        fn mutate(rng: &mut TestRng, lines: &mut Vec<Line>) {
            let data_row = |l: &Line| l.kind == Kind::Row && l.fields.len() > 1;
            match rng.below(8) {
                0 | 1 => {
                    if let Some(i) = find(rng, lines, data_row) {
                        let j = 1 + rng.below(lines[i].fields.len() as u64 - 1) as usize;
                        lines[i].fields[j] = pick(rng, BAD).to_string();
                    }
                }
                2 => {
                    if let Some(i) = find(rng, lines, |l| l.kind == Kind::Row) {
                        if chance(rng, 1, 2) && lines[i].fields.len() > 1 {
                            lines[i].fields.pop();
                        } else {
                            lines[i].fields.push("1".into());
                        }
                    }
                }
                3 => {
                    if let Some(i) = find(rng, lines, |l| l.kind == Kind::Row && l.slice > 0) {
                        lines[i].fields[0] = "renamed".into();
                    }
                }
                4 => {
                    if let Some(i) = find(rng, lines, |l| l.kind == Kind::Row && l.slice > 0) {
                        let mut extra = lines[i].fields.clone();
                        extra[0] = "extra".into();
                        let slice = lines[i].slice;
                        lines.insert(
                            i + 1,
                            Line {
                                kind: Kind::Row,
                                slice,
                                fields: extra,
                                invalid_utf8: false,
                            },
                        );
                    }
                }
                5 => {
                    let renamable = |l: &Line| l.kind == Kind::Header && l.slice > 0;
                    if let Some(i) = find(rng, lines, renamable) {
                        if lines[i].fields.len() > 1 {
                            lines[i].fields[1] = "renamed".into();
                        } else {
                            lines[i].fields[0] = "renamed".into();
                        }
                    }
                }
                6 => {
                    if let Some(i) = find(rng, lines, |l| l.kind == Kind::Header) {
                        lines.remove(i);
                    }
                }
                _ => {
                    if let Some(i) = find(rng, lines, |_| true) {
                        lines[i].invalid_utf8 = true;
                    }
                }
            }
        }
    }

    /// Worker counts the parallel reader is pinned to the oracle at: one,
    /// two, an uneven split, and more workers than most inputs have
    /// sections.
    const WORKERS: [usize; 4] = [1, 2, 3, 8];

    /// The readers against the two-pass oracle on generated hostile
    /// inputs, the stacked one at every count in [`WORKERS`]: the same
    /// matrix bits and labels, or the same error variant with the same
    /// fields, and no panic. The tally checks that the generator reaches
    /// every outcome.
    #[test]
    fn readers_match_the_two_pass_oracle() {
        use proptest::prelude::*;
        let mut seen = std::collections::BTreeSet::new();
        proptest::run_cases(
            ProptestConfig::with_cases(4000),
            "readers_match_the_two_pass_oracle",
            |rng| {
                let input = gen::stacked(rng);
                let text = String::from_utf8_lossy(&input);
                let want = stacked_outcome(oracle::read_stacked_tsv(&input));
                let got = stacked_outcome(read_stacked_tsv(input.as_slice()));
                prop_assert_eq!(&got, &want, "read_stacked_tsv on {:?}", text);
                for workers in WORKERS {
                    let parsed = stacked_outcome(parse_stacked_tsv(&input, workers));
                    prop_assert_eq!(&parsed, &want, "{} workers on {:?}", workers, text);
                }
                let kind = match &got {
                    Ok(_) => "Ok".to_string(),
                    Err(e) if e.contains("names two slices") => "repeated time label".to_string(),
                    Err(e) if e.starts_with("InconsistentSlices") => e.clone(),
                    Err(e) => e.split(['(', ' ']).next().unwrap_or_default().to_string(),
                };
                seen.insert(kind);
                let got = slice_outcome(read_slice_tsv(input.as_slice()));
                let want = slice_outcome(oracle::read_slice_tsv(&input));
                prop_assert_eq!(&got, &want, "read_slice_tsv on {:?}", text);
                Ok(())
            },
        );
        for kind in [
            "Ok",
            "Io",
            "BadNumber",
            "NonFinite",
            "RaggedRow",
            "Empty",
            "InconsistentSlices(\"gene names differ between slices\")",
            "InconsistentSlices(\"sample names differ between slices\")",
            "repeated time label",
        ] {
            assert!(
                seen.contains(kind),
                "no generated input gave {kind}: {seen:?}"
            );
        }
    }

    /// The reading contract in the module docs, one clause per input, each
    /// checked against the expected outcome and against the oracle.
    #[test]
    fn stacked_reading_contract() {
        let cases: &[(&str, &[u8], &str)] = &[
            (
                "an invalid UTF-8 line beats an earlier bad cell in its slice",
                b"# time a\ngene\ts0\nga\toops\n\xff\n",
                "Io(InvalidData, stream did not contain valid UTF-8)",
            ),
            (
                "an earlier slice's bad cell beats a later invalid UTF-8 line",
                b"# time a\ngene\ts0\nga\toops\n# time b\n\xff\n",
                "BadNumber { line: 3, col: 1, token: \"oops\" }",
            ),
            (
                "lines before the first # time are ignored",
                b"junk\tx\n# comment\n# time a\ngene\ts0\nga\t1\n",
                "1x1x1 [ga] [s0] [a]",
            ),
            (
                "# time matches as a raw prefix",
                b"# timestamp 5\ngene\ts0\nga\t1\n",
                "1x1x1 [ga] [s0] [stamp 5]",
            ),
            (
                "an empty section is skipped and the next unnamed slice is t<kept>",
                b"# time a\ngene\ts0\nga\t1\n# time skipped\n# time\ngene\ts0\nga\t2\n",
                "1x1x2 [ga] [s0] [a, t1]",
            ),
            (
                "a section of blank lines has no header",
                b"# time a\n\n# time b\ngene\ts0\nga\t1\n",
                "Empty",
            ),
            (
                "a header without rows is empty",
                b"# time a\ngene\ts0\n# note\n",
                "Empty",
            ),
            (
                "a ragged row wins over its own bad cell",
                b"# time a\ngene\ts0\nga\toops\tx\n",
                "RaggedRow { line: 3, expected: 1, got: 2 }",
            ),
            (
                "positions are file-global lines with the untrimmed token",
                b"pre\r\n# time a\r\ngene\ts0\ts1\r\nga\t1\t inf \r\n",
                "NonFinite { line: 4, col: 2, token: \" inf \" }",
            ),
            (
                "a slice's own cell error beats InconsistentSlices",
                b"# time a\ngene\ts0\nga\t1\n# time b\ngene\ts0\ngz\toops\n",
                "BadNumber { line: 6, col: 1, token: \"oops\" }",
            ),
            (
                "gene names are compared before sample names",
                b"# time a\ngene\ts0\nga\t1\n# time b\ngene\tsz\ngz\t1\n",
                "InconsistentSlices(\"gene names differ between slices\")",
            ),
            (
                "sample names must repeat too",
                b"# time a\ngene\ts0\nga\t1\n# time b\ngene\tsz\nga\t1\n",
                "InconsistentSlices(\"sample names differ between slices\")",
            ),
            (
                "a kept slice may not repeat a kept slice's label",
                b"# time a\ngene\ts0\nga\t1\n# time a\ngene\ts0\nga\t2\n",
                "InconsistentSlices(\"time label \\\"a\\\" names two slices\")",
            ),
            (
                "an unnamed slice's t<kept> default counts as its label",
                b"# time t1\ngene\ts0\nga\t1\n# time\ngene\ts0\nga\t2\n",
                "InconsistentSlices(\"time label \\\"t1\\\" names two slices\")",
            ),
            (
                "the label is checked after the slice's names",
                b"# time a\ngene\ts0\nga\t1\n# time a\ngene\ts0\ngz\t1\n",
                "InconsistentSlices(\"gene names differ between slices\")",
            ),
            (
                "an empty section's label is not kept",
                b"# time a\n# time a\ngene\ts0\nga\t1\n# time b\n",
                "1x1x1 [ga] [s0] [a]",
            ),
            (
                "one leading byte-order mark is skipped",
                b"\xef\xbb\xbf# time a\ngene\ts0\nga\t1\n",
                "1x1x1 [ga] [s0] [a]",
            ),
            (
                "an invalid UTF-8 # time line beats the previous section's bad cell",
                b"# time a\ngene\ts0\nga\t1\n# time b\ngene\ts0\nga\toops\n# time \xff\ngene\ts0\nga\t2\n",
                "Io(InvalidData, stream did not contain valid UTF-8)",
            ),
            (
                "invalid UTF-8 in the preamble fails the read",
                b"pre\xff\n# time a\ngene\ts0\nga\t1\n",
                "Io(InvalidData, stream did not contain valid UTF-8)",
            ),
            (
                "a label may not repeat one from another worker's share",
                b"# time a\ngene\ts0\nga\t1\n# time b\ngene\ts0\nga\t2\n# time a\ngene\ts0\nga\t3\n",
                "InconsistentSlices(\"time label \\\"a\\\" names two slices\")",
            ),
            (
                "empty sections on share edges are skipped",
                b"# time a\ngene\ts0\nga\t1\n# time e\n# time\ngene\ts0\nga\t2\n# time e\n# time\ngene\ts0\nga\t3\n# time e\n",
                "1x1x3 [ga] [s0] [a, t1, t2]",
            ),
            (
                "CRLF lines keep file-global positions in a later share",
                b"pre\r\n# time a\r\ngene\ts0\ts1\r\nga\t1\t2\r\n\r\n# time b\r\ngene\ts0\ts1\r\nga\t3\t inf \r\n",
                "NonFinite { line: 8, col: 2, token: \" inf \" }",
            ),
            (
                "a later section with an extra row differs in its genes",
                b"# time a\ngene\ts0\nga\t1\n# time b\ngene\ts0\nga\t1\ngx\t2\n",
                "InconsistentSlices(\"gene names differ between slices\")",
            ),
            (
                "a header wider than the input has cells sizes no buffer",
                b"# time a\ngene\ta\tb\tc\td\te\tf\tg\th\nx\nx\nx\nx\nx\nx\nx\nx\nx\nx\n",
                "RaggedRow { line: 3, expected: 8, got: 0 }",
            ),
            (
                "rows past a section's slot are still checked",
                b"# time a\ngene\ts0\nga\t1\n# time b\ngene\ts0\nga\t1\ngx\t2\ngy\toops\n",
                "BadNumber { line: 8, col: 1, token: \"oops\" }",
            ),
        ];
        for (clause, input, want) in cases {
            let summary = |r: Result<(Matrix3, Labels), IoError>| match r {
                Ok((m, l)) => {
                    let (g, s, t) = m.dims();
                    format!(
                        "{g}x{s}x{t} [{}] [{}] [{}]",
                        l.genes().join(", "),
                        l.samples().join(", "),
                        l.times().join(", ")
                    )
                }
                Err(e) => describe(&e),
            };
            assert_eq!(summary(read_stacked_tsv(*input)), *want, "{clause}");
            for workers in WORKERS {
                let got = summary(parse_stacked_tsv(input, workers));
                assert_eq!(got, *want, "{clause} at {workers} workers");
            }
            assert_eq!(summary(oracle::read_stacked_tsv(input)), *want, "{clause}");
        }
    }
}
