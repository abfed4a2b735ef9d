//! Persistent append-only run archive ("run ledger").
//!
//! A [`Ledger`] is a directory that accumulates one entry per archived run:
//! the run's full report document (a `tricluster.report/v2` report for
//! `mine` runs, a `tricluster.fig7/*` document for bench sweeps) plus
//! optional side artifacts (Chrome trace, folded flamegraph stacks). Every
//! entry is keyed by content hashes of the dataset and the mining
//! parameters and summarized in a single-line JSONL index, so a ledger with
//! hundreds of runs is listable without reading any entry body:
//!
//! ```text
//! <dir>/index.jsonl              one summary line per entry, append-only
//! <dir>/entries/<id>/report.json the archived report document
//! <dir>/entries/<id>/trace.json  optional Chrome Trace Event export
//! <dir>/entries/<id>/flame.folded optional folded flamegraph stacks
//! ```
//!
//! Everything here is pure `std`. The content hashes are 64-bit FNV-1a
//! (the build environment is offline, so no external hash crates), which is
//! plenty for cache keying and change detection — the ledger is provenance
//! bookkeeping, not a security boundary.

use crate::json::Json;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

// ---- content hashing ----------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// 64-bit FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a rendered as the ledger's self-describing hash string
/// (`fnv1a:<16 hex digits>`).
pub fn content_hash(bytes: &[u8]) -> String {
    format!("fnv1a:{:016x}", fnv1a(bytes))
}

// ---- the archive itself -------------------------------------------------

/// What a caller hands to [`Ledger::archive`].
#[derive(Debug, Clone)]
pub struct NewEntry<'a> {
    /// Entry family: `"mine"` for CLI runs, `"bench"` for sweep documents.
    pub kind: &'a str,
    /// Free-form label (typically the input path or sweep family).
    pub label: Option<String>,
    /// Content hash of the mined dataset (see [`content_hash`]).
    pub dataset_hash: String,
    /// Content hash of the mining parameters.
    pub params_hash: String,
    /// The report document to archive.
    pub report: &'a Json,
    /// Optional Chrome Trace Event export (rendered JSON).
    pub trace: Option<&'a str>,
    /// Optional folded flamegraph stacks.
    pub flame: Option<&'a str>,
}

/// One line of the JSONL index: enough to list, select, and rank entries
/// without reading their report bodies.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexEntry {
    pub id: String,
    pub kind: String,
    pub label: Option<String>,
    /// Unix seconds at archive time.
    pub created_unix: u64,
    pub dataset_hash: String,
    pub params_hash: String,
    /// Summary numbers lifted from the report (absent for documents that
    /// do not carry them, e.g. bench sweeps).
    pub clusters: Option<u64>,
    pub total_secs: Option<f64>,
    /// Build metadata lifted from the report's `meta` section.
    pub version: Option<String>,
    pub git: Option<String>,
    pub host: Option<String>,
    pub threads: Option<u64>,
    /// Originating HTTP request id, lifted from the report's `serve`
    /// section (present only for jobs archived by the daemon) — the same
    /// id the access log and `GET /jobs/<id>` carry, so one grep connects
    /// a ledger entry to its submission.
    pub request_id: Option<u64>,
}

impl IndexEntry {
    fn to_json(&self) -> Json {
        let opt_str = |v: &Option<String>| v.clone().map(Json::Str);
        Json::obj()
            .with("id", Json::Str(self.id.clone()))
            .with("kind", Json::Str(self.kind.clone()))
            .maybe_with("label", opt_str(&self.label))
            .with("created_unix", Json::U64(self.created_unix))
            .with("dataset", Json::Str(self.dataset_hash.clone()))
            .with("params", Json::Str(self.params_hash.clone()))
            .maybe_with("clusters", self.clusters.map(Json::U64))
            .maybe_with("total_secs", self.total_secs.map(Json::F64))
            .maybe_with("version", opt_str(&self.version))
            .maybe_with("git", opt_str(&self.git))
            .maybe_with("host", opt_str(&self.host))
            .maybe_with("threads", self.threads.map(Json::U64))
            .maybe_with("request_id", self.request_id.map(Json::U64))
    }

    fn from_json(j: &Json) -> Result<IndexEntry, String> {
        let str_of = |key: &str| j.get(key).and_then(Json::as_str).map(str::to_string);
        Ok(IndexEntry {
            id: str_of("id").ok_or("index line without id")?,
            kind: str_of("kind").ok_or("index line without kind")?,
            label: str_of("label"),
            created_unix: j.get("created_unix").and_then(Json::as_u64).unwrap_or(0),
            dataset_hash: str_of("dataset").unwrap_or_default(),
            params_hash: str_of("params").unwrap_or_default(),
            clusters: j.get("clusters").and_then(Json::as_u64),
            total_secs: j.get("total_secs").and_then(Json::as_f64),
            version: str_of("version"),
            git: str_of("git"),
            host: str_of("host"),
            threads: j.get("threads").and_then(Json::as_u64),
            request_id: j.get("request_id").and_then(Json::as_u64),
        })
    }
}

/// A run-ledger directory. Opening creates the layout if needed; archiving
/// appends (existing entries are never rewritten).
#[derive(Debug, Clone)]
pub struct Ledger {
    dir: PathBuf,
}

impl Ledger {
    /// Opens (creating if necessary) the ledger at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Ledger> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(dir.join("entries"))?;
        Ok(Ledger { dir })
    }

    /// The ledger's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn index_path(&self) -> PathBuf {
        self.dir.join("index.jsonl")
    }

    fn entry_dir(&self, id: &str) -> PathBuf {
        self.dir.join("entries").join(id)
    }

    /// Path of an archived entry's report document.
    pub fn report_path(&self, id: &str) -> PathBuf {
        self.entry_dir(id).join("report.json")
    }

    /// Path of an archived entry's folded flamegraph (may not exist).
    pub fn flame_path(&self, id: &str) -> PathBuf {
        self.entry_dir(id).join("flame.folded")
    }

    /// Path of an archived entry's Chrome trace (may not exist).
    pub fn trace_path(&self, id: &str) -> PathBuf {
        self.entry_dir(id).join("trace.json")
    }

    /// Archives one run: writes the entry directory, then appends the index
    /// line (in that order, so an index line always points at a complete
    /// entry). Returns the new entry's id, which is sequence-numbered for
    /// human reference and suffixed with the report's content hash. An
    /// unreadable index fails the archive before anything is written: the
    /// sequence number comes from the index, and a guessed one could repeat.
    pub fn archive(&self, entry: &NewEntry<'_>) -> io::Result<String> {
        let report_text = entry.report.render_pretty() + "\n";
        let seq = self.list()?.len() + 1;
        let hash = fnv1a(report_text.as_bytes());
        let id = format!("r{seq:04}-{:08x}", hash as u32);
        let dir = self.entry_dir(&id);
        fs::create_dir_all(&dir)?;
        fs::write(dir.join("report.json"), &report_text)?;
        if let Some(trace) = entry.trace {
            fs::write(dir.join("trace.json"), trace)?;
        }
        if let Some(flame) = entry.flame {
            fs::write(dir.join("flame.folded"), flame)?;
        }
        let created_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let meta = |key: &str| {
            entry
                .report
                .get_path(&["meta", key])
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        let line = IndexEntry {
            id: id.clone(),
            kind: entry.kind.to_string(),
            label: entry.label.clone(),
            created_unix,
            dataset_hash: entry.dataset_hash.clone(),
            params_hash: entry.params_hash.clone(),
            clusters: entry.report.get("clusters").and_then(Json::as_u64),
            total_secs: entry
                .report
                .get_path(&["timings", "total_secs"])
                .and_then(Json::as_f64),
            version: meta("version"),
            git: meta("git"),
            host: meta("host"),
            threads: entry
                .report
                .get_path(&["meta", "threads"])
                .and_then(Json::as_u64),
            request_id: entry
                .report
                .get_path(&["serve", "request_id"])
                .and_then(Json::as_u64),
        };
        let mut index = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.index_path())?;
        index.write_all((line.to_json().render() + "\n").as_bytes())?;
        Ok(id)
    }

    /// Every index line, oldest first.
    pub fn list(&self) -> io::Result<Vec<IndexEntry>> {
        let text = match fs::read_to_string(self.index_path()) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut out = Vec::new();
        for (n, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let j = Json::parse(line)
                .map_err(|e| io::Error::other(format!("index line {}: {e}", n + 1)))?;
            out.push(IndexEntry::from_json(&j).map_err(io::Error::other)?);
        }
        Ok(out)
    }

    /// Resolves an entry by exact id or unique id prefix.
    pub fn resolve(&self, selector: &str) -> io::Result<IndexEntry> {
        let entries = self.list()?;
        if let Some(e) = entries.iter().find(|e| e.id == selector) {
            return Ok(e.clone());
        }
        let matches: Vec<&IndexEntry> = entries
            .iter()
            .filter(|e| e.id.starts_with(selector))
            .collect();
        match matches.as_slice() {
            [one] => Ok((*one).clone()),
            [] => Err(io::Error::other(format!(
                "no ledger entry matches {selector:?}"
            ))),
            many => Err(io::Error::other(format!(
                "ambiguous selector {selector:?}: matches {}",
                many.iter()
                    .map(|e| e.id.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))),
        }
    }

    /// Reads an archived entry's report document back.
    pub fn read_report(&self, id: &str) -> io::Result<Json> {
        let text = fs::read_to_string(self.report_path(id))?;
        Json::parse(&text).map_err(|e| io::Error::other(format!("{id}/report.json: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tricluster-ledger-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn report(total_secs: f64, tri_secs: f64) -> Json {
        Json::obj()
            .with("schema", Json::Str("tricluster.report/v2".into()))
            .with("clusters", Json::U64(4))
            .with(
                "timings",
                Json::obj()
                    .with("slices_wall_secs", Json::F64(0.10))
                    .with("triclusters_secs", Json::F64(tri_secs))
                    .with("total_secs", Json::F64(total_secs)),
            )
            .with(
                "meta",
                Json::obj()
                    .with("version", Json::Str("0.1.0".into()))
                    .with("host", Json::Str("x86_64-linux".into()))
                    .with("threads", Json::U64(2)),
            )
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert!(content_hash(b"x").starts_with("fnv1a:"));
        assert_eq!(content_hash(b"x").len(), "fnv1a:".len() + 16);
    }

    #[test]
    fn archive_list_show_roundtrip() {
        let dir = temp_dir("roundtrip");
        let ledger = Ledger::open(&dir).unwrap();
        assert!(ledger.list().unwrap().is_empty());
        let doc = report(0.25, 0.08);
        let id = ledger
            .archive(&NewEntry {
                kind: "mine",
                label: Some("data.tsv".into()),
                dataset_hash: content_hash(b"dataset"),
                params_hash: content_hash(b"params"),
                report: &doc,
                trace: None,
                flame: Some("phase.tricluster 123\n"),
            })
            .unwrap();
        let entries = ledger.list().unwrap();
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.id, id);
        assert_eq!(e.kind, "mine");
        assert_eq!(e.label.as_deref(), Some("data.tsv"));
        assert_eq!(e.clusters, Some(4));
        assert_eq!(e.total_secs, Some(0.25));
        assert_eq!(e.version.as_deref(), Some("0.1.0"));
        assert_eq!(e.threads, Some(2));
        assert_eq!(e.request_id, None, "one-shot mines have no serve section");
        assert!(e.dataset_hash.starts_with("fnv1a:"));
        // the report body round-trips and the flame artifact landed
        let back = ledger.read_report(&id).unwrap();
        assert_eq!(back.render(), doc.render());
        assert!(ledger.flame_path(&id).exists());
        assert!(!ledger.trace_path(&id).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A `mine` entry with no label, hashes or artifacts.
    fn unlabelled(report: &Json) -> NewEntry<'_> {
        NewEntry {
            kind: "mine",
            label: None,
            dataset_hash: String::new(),
            params_hash: String::new(),
            report,
            trace: None,
            flame: None,
        }
    }

    #[test]
    fn ids_are_sequenced_and_prefix_resolvable() {
        let dir = temp_dir("resolve");
        let ledger = Ledger::open(&dir).unwrap();
        let docs = [report(0.1, 0.01), report(0.2, 0.01)];
        let a = ledger.archive(&unlabelled(&docs[0])).unwrap();
        let b = ledger.archive(&unlabelled(&docs[1])).unwrap();
        assert!(a.starts_with("r0001-"));
        assert!(b.starts_with("r0002-"));
        assert_eq!(ledger.resolve(&a).unwrap().id, a);
        assert_eq!(ledger.resolve("r0002").unwrap().id, b);
        assert!(ledger.resolve("r9").is_err());
        assert!(ledger.resolve("r0").is_err(), "ambiguous prefix");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A torn index line (a crash mid-append) fails the next archive
    /// instead of restarting the sequence: no entry directory appears, and
    /// once the line is repaired the next id follows the intact entries.
    #[test]
    fn torn_index_line_fails_the_archive() {
        let dir = temp_dir("torn");
        let ledger = Ledger::open(&dir).unwrap();
        let docs = [report(0.1, 0.01), report(0.2, 0.01), report(0.3, 0.01)];
        let mut ids = vec![
            ledger.archive(&unlabelled(&docs[0])).unwrap(),
            ledger.archive(&unlabelled(&docs[1])).unwrap(),
        ];
        let index = ledger.dir().join("index.jsonl");
        let intact = fs::read_to_string(&index).unwrap();
        fs::write(&index, format!("{intact}{{\"id\":\"r0003-")).unwrap();
        let e = ledger.archive(&unlabelled(&docs[2])).unwrap_err();
        assert!(e.to_string().contains("index line 3"), "{e}");
        let entry_dirs = || fs::read_dir(dir.join("entries")).unwrap().count();
        assert_eq!(entry_dirs(), 2, "a failed archive writes no entry");
        fs::write(&index, &intact).unwrap();
        ids.push(ledger.archive(&unlabelled(&docs[2])).unwrap());
        let seqs: Vec<&str> = ids.iter().map(|id| &id[..5]).collect();
        assert_eq!(seqs, ["r0001", "r0002", "r0003"]);
        assert_eq!(entry_dirs(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn served_entries_carry_their_request_id() {
        let dir = temp_dir("request-id");
        let ledger = Ledger::open(&dir).unwrap();
        let doc = report(0.25, 0.08).with(
            "serve",
            Json::obj()
                .with("request_id", Json::U64(42))
                .with("job_id", Json::U64(7)),
        );
        let id = ledger
            .archive(&NewEntry {
                kind: "serve",
                label: None,
                dataset_hash: content_hash(b"dataset"),
                params_hash: content_hash(b"params"),
                report: &doc,
                trace: None,
                flame: None,
            })
            .unwrap();
        let entries = ledger.list().unwrap();
        assert_eq!(entries[0].id, id);
        assert_eq!(entries[0].request_id, Some(42));
        // and the raw index line greps by request id
        let index = fs::read_to_string(ledger.dir().join("index.jsonl")).unwrap();
        assert!(index.contains("\"request_id\":42"), "{index}");
        let _ = fs::remove_dir_all(&dir);
    }
}
