//! Crash-safe sharded wisdom store.
//!
//! [`crate::Wisdom`] alone is one in-memory table per process. This module
//! is the durable layer underneath it — the "persistent memo" the roadmap
//! points at (optd's persistent memo store; FFTW's on-disk wisdom):
//!
//! ## Shard layout
//!
//! A store is a directory. Each **shard** holds the wisdom of exactly one
//! `(n, cost-backend)` key as written by one host, in a file named
//!
//! ```text
//! n{n:02}-{backend}-{backend_hash:08x}-{host_fingerprint}.shard
//! ```
//!
//! (`backend` sanitized for filenames, disambiguated by an FNV hash of
//! the exact name; the payload carries the authoritative key). A fleet
//! pools its searches by dropping many hosts' shards into one directory;
//! [`ShardedStore::load`] merges them key-wise, keeping the
//! **measured-fastest** entry when timing evidence exists and the
//! **newest** (by write stamp) otherwise.
//!
//! ## Shard format (version 1)
//!
//! ```text
//! offset  size  field
//! 0       8     magic "WHTSHRD\0"
//! 8       4     shard format version, u32 LE
//! 12      8     write stamp (unix seconds), u64 LE
//! 20      8     payload length, u64 LE
//! 28      8     FNV-1a 64 checksum of the payload, u64 LE
//! 36      len   payload: one version-8 wisdom JSON document
//! ```
//!
//! ## Crash-safety contract
//!
//! Every shard is written **temp file → fsync → atomic rename → directory
//! fsync** ([`atomic_write`]), so a reader never observes a partially
//! written shard at its final name: a crash leaves either the previous
//! committed version or a stray `.tmp` file (which [`ShardedStore::load`]
//! ignores — uncommitted writes never surface). A shard that is
//! nevertheless damaged (torn by an unclean filesystem, bit-flipped,
//! truncated, written in another format version) is **detectable** and
//! is *quarantined*, never loaded: [`ShardedStore::load`]
//! moves it into `quarantine/` and reports a typed [`StoreDiagnostic`]
//! while the remaining shards load normally. The store never panics and
//! never fails an entire load because one shard is bad; with 100% of
//! shards bad the result is an empty [`Wisdom`] plus diagnostics, and a
//! [`crate::Planner`] degrades to a cold search (see
//! [`crate::Planner::with_store`]).
//!
//! Every failure path above is exercised by the fault-injection matrix in
//! `tests/fault_matrix.rs`, driven by the hermetic [`crate::failpoints`]
//! layer (ENOSPC, short writes, fsync/rename failures, and
//! kill-at-any-byte truncation at each named IO site).

use crate::failpoints::{self, Fault};
use crate::planner::{classify_wisdom_json, Wisdom, WisdomRecord};
use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use wht_core::WhtError;

/// First 8 bytes of every shard file.
pub const SHARD_MAGIC: [u8; 8] = *b"WHTSHRD\0";

/// Current shard *container* format (the header above). Independent of
/// the wisdom JSON version inside the payload, which the payload declares
/// itself.
pub const SHARD_VERSION: u32 = 1;

/// Fixed header length in bytes.
pub const SHARD_HEADER_LEN: usize = 36;

/// Why a shard was refused and quarantined.
/// One variant per failure class so operators and tests can tell a
/// truncation from a flipped bit from a future format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreDiagnostic {
    /// Structurally unreadable: bad magic, malformed JSON, an invalid
    /// plan string — the bytes do not decode as a shard at all.
    Corrupt {
        /// File name (or path) of the offending shard.
        shard: String,
        /// What failed to decode.
        detail: String,
    },
    /// The file ends before its declared length (torn write, partial
    /// copy, truncated download).
    Truncated {
        /// File name (or path) of the offending shard.
        shard: String,
        /// How short it came up.
        detail: String,
    },
    /// The shard container, or the wisdom document inside it, declares a
    /// format version this build does not read; refusing is the only safe
    /// answer.
    VersionUnknown {
        /// File name (or path) of the offending shard.
        shard: String,
        /// The declared version.
        version: u32,
    },
    /// Header and length are plausible but the payload hash disagrees —
    /// silent bit rot or a tampered file.
    ChecksumMismatch {
        /// File name (or path) of the offending shard.
        shard: String,
        /// Checksum the header declares.
        expected: u64,
        /// Checksum of the bytes on disk.
        got: u64,
    },
    /// The file could not be read (or moved to quarantine) at the OS
    /// level.
    IoFailed {
        /// File name (or path) of the offending shard.
        shard: String,
        /// The underlying error, rendered.
        detail: String,
    },
}

impl StoreDiagnostic {
    /// The offending file.
    pub fn shard(&self) -> &str {
        match self {
            StoreDiagnostic::Corrupt { shard, .. }
            | StoreDiagnostic::Truncated { shard, .. }
            | StoreDiagnostic::VersionUnknown { shard, .. }
            | StoreDiagnostic::ChecksumMismatch { shard, .. }
            | StoreDiagnostic::IoFailed { shard, .. } => shard,
        }
    }

    /// Stable one-word class name (for gating tests and CLI tables).
    pub fn kind(&self) -> &'static str {
        match self {
            StoreDiagnostic::Corrupt { .. } => "corrupt",
            StoreDiagnostic::Truncated { .. } => "truncated",
            StoreDiagnostic::VersionUnknown { .. } => "version-unknown",
            StoreDiagnostic::ChecksumMismatch { .. } => "checksum-mismatch",
            StoreDiagnostic::IoFailed { .. } => "io-failed",
        }
    }
}

impl fmt::Display for StoreDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreDiagnostic::Corrupt { shard, detail } => {
                write!(f, "{shard}: corrupt ({detail})")
            }
            StoreDiagnostic::Truncated { shard, detail } => {
                write!(f, "{shard}: truncated ({detail})")
            }
            StoreDiagnostic::VersionUnknown { shard, version } => {
                write!(f, "{shard}: unknown format version {version}")
            }
            StoreDiagnostic::ChecksumMismatch {
                shard,
                expected,
                got,
            } => write!(
                f,
                "{shard}: checksum mismatch (header {expected:#018x}, payload {got:#018x})"
            ),
            StoreDiagnostic::IoFailed { shard, detail } => {
                write!(f, "{shard}: io failure ({detail})")
            }
        }
    }
}

/// FNV-1a 64-bit hash — the shard payload checksum. Not cryptographic;
/// it detects the accidental corruption the store defends against
/// (truncation, bit flips, torn writes) with zero dependencies.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-process temp-file sequence: no two [`atomic_write`] calls of one
/// process share a temp file.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn io_err(op: &str, path: &Path, detail: impl fmt::Display) -> WhtError {
    WhtError::Io {
        op: op.to_string(),
        path: path.display().to_string(),
        detail: detail.to_string(),
    }
}

/// Write `bytes` to `path` **atomically and durably**: temp file in the
/// same directory → write → fsync → rename over `path` → directory
/// fsync. A crash at any point leaves either the old file or the new one
/// at `path`, never a mixture; a graceful failure cleans up its temp
/// file. Each call writes its own temp file (named for the process and a
/// per-process sequence number), so concurrent commits to one path —
/// two threads, or two processes — each land whole and the last rename
/// wins. Each step is a named [`crate::failpoints`] site
/// (`atomic::create` / `atomic::write` / `atomic::fsync` /
/// `atomic::rename` / `atomic::dir_fsync`), which is how the
/// crash-consistency matrix replays every failure schedule.
///
/// Used for wisdom shards and `wht-bench`'s results CSVs — an
/// interrupted run can no longer leave a truncated half-artifact behind.
///
/// # Errors
/// [`WhtError::Io`] naming the failed step. After an error the target
/// `path` still holds its previous content (or still does not exist).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), WhtError> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let name = path
        .file_name()
        .ok_or_else(|| io_err("create", path, "path has no file name"))?;
    let tmp = dir.join(format!(
        ".{}.tmp.{}.{}",
        name.to_string_lossy(),
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));

    // Site: atomic::create — nothing on disk yet, so Err and Kill agree.
    if let Some(fault) = failpoints::check("atomic::create") {
        return Err(io_err("create", path, injected(fault)));
    }
    let mut f = File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;

    // Site: atomic::write.
    let write_result = match failpoints::check("atomic::write") {
        None => f.write_all(bytes).map_err(|e| io_err("write", &tmp, e)),
        Some(Fault::Err) => Err(io_err("write", &tmp, injected(Fault::Err))),
        Some(Fault::ShortWrite(b)) | Some(Fault::KillAtByte(b)) => {
            // Persist exactly the prefix a torn write (or a death
            // mid-write) would leave, then fail.
            let b = b.min(bytes.len());
            let _ = f.write_all(&bytes[..b]);
            let _ = f.sync_all();
            if failpoints::check("atomic::write").is_some_and(Fault::is_kill) {
                return Err(io_err("write", &tmp, injected(Fault::KillAtByte(b))));
            }
            Err(io_err("write", &tmp, injected(Fault::ShortWrite(b))))
        }
        Some(Fault::Kill) => return Err(io_err("write", &tmp, injected(Fault::Kill))),
    };
    if let Err(e) = write_result {
        let _ = fs::remove_file(&tmp); // graceful failure: clean up
        return Err(e);
    }

    // Site: atomic::fsync — the new bytes must be durable *before* the
    // rename makes them visible.
    match failpoints::check("atomic::fsync") {
        Some(fault) if fault.is_kill() => return Err(io_err("fsync", &tmp, injected(fault))),
        Some(fault) => {
            let _ = fs::remove_file(&tmp);
            return Err(io_err("fsync", &tmp, injected(fault)));
        }
        None => {
            if let Err(e) = f.sync_all() {
                let _ = fs::remove_file(&tmp);
                return Err(io_err("fsync", &tmp, e));
            }
        }
    }
    drop(f);

    // Site: atomic::rename — the commit point.
    match failpoints::check("atomic::rename") {
        Some(fault) if fault.is_kill() => return Err(io_err("rename", path, injected(fault))),
        Some(fault) => {
            let _ = fs::remove_file(&tmp);
            return Err(io_err("rename", path, injected(fault)));
        }
        None => {
            if let Err(e) = fs::rename(&tmp, path) {
                let _ = fs::remove_file(&tmp);
                return Err(io_err("rename", path, e));
            }
        }
    }

    // Site: atomic::dir_fsync — persist the directory entry. A *real*
    // failure here is ignored (some filesystems cannot fsync a
    // directory handle; the rename itself already happened), but an
    // injected one is reported so the matrix can exercise the
    // crashed-after-commit schedule.
    match failpoints::check("atomic::dir_fsync") {
        Some(fault) => return Err(io_err("dir-fsync", &dir, injected(fault))),
        None => {
            if let Ok(d) = File::open(&dir) {
                let _ = d.sync_all();
            }
        }
    }
    Ok(())
}

fn injected(fault: Fault) -> String {
    match fault {
        Fault::Err => "injected failure (ENOSPC: no space left on device)".to_string(),
        Fault::Kill => "injected crash".to_string(),
        Fault::ShortWrite(b) => format!("injected short write: only {b} bytes persisted"),
        Fault::KillAtByte(b) => format!("injected crash after byte {b}"),
    }
}

/// Serialize one shard: header (magic, version, stamp, length, checksum)
/// followed by the payload.
pub fn encode_shard(stamp: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SHARD_HEADER_LEN + payload.len());
    out.extend_from_slice(&SHARD_MAGIC);
    out.extend_from_slice(&SHARD_VERSION.to_le_bytes());
    out.extend_from_slice(&stamp.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Verify and split one shard file's bytes into `(stamp, payload)`.
///
/// # Errors
/// The [`StoreDiagnostic`] classifying exactly what is wrong; a shard
/// with any diagnostic is never partially applied.
pub fn decode_shard<'a>(name: &str, bytes: &'a [u8]) -> Result<(u64, &'a [u8]), StoreDiagnostic> {
    if bytes.len() < SHARD_HEADER_LEN {
        return Err(StoreDiagnostic::Truncated {
            shard: name.to_string(),
            detail: format!(
                "{} bytes on disk, header alone needs {SHARD_HEADER_LEN}",
                bytes.len()
            ),
        });
    }
    if bytes[..8] != SHARD_MAGIC {
        return Err(StoreDiagnostic::Corrupt {
            shard: name.to_string(),
            detail: "bad magic".to_string(),
        });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != SHARD_VERSION {
        return Err(StoreDiagnostic::VersionUnknown {
            shard: name.to_string(),
            version,
        });
    }
    let stamp = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let declared = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    let expected = u64::from_le_bytes(bytes[28..36].try_into().expect("8 bytes"));
    let got_len = (bytes.len() - SHARD_HEADER_LEN) as u64;
    if got_len < declared {
        return Err(StoreDiagnostic::Truncated {
            shard: name.to_string(),
            detail: format!("payload {got_len} of {declared} declared bytes"),
        });
    }
    if got_len > declared {
        return Err(StoreDiagnostic::Corrupt {
            shard: name.to_string(),
            detail: format!(
                "{} trailing bytes past the declared payload",
                got_len - declared
            ),
        });
    }
    let payload = &bytes[SHARD_HEADER_LEN..];
    let got = fnv1a64(payload);
    if got != expected {
        return Err(StoreDiagnostic::ChecksumMismatch {
            shard: name.to_string(),
            expected,
            got,
        });
    }
    Ok((stamp, payload))
}

/// Keep `[A-Za-z0-9_-]`, replace the rest, cap the length — filenames
/// only; the payload carries the authoritative key.
fn sanitize(raw: &str) -> String {
    let mut s: String = raw
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect();
    s.truncate(24);
    if s.is_empty() {
        s.push('x');
    }
    s
}

/// A stable-ish identifier for the writing host, so a pooled store
/// directory keeps one shard per `(key, host)` instead of hosts
/// clobbering each other. Override with `WHT_HOST_FP` (tests, container
/// fleets); otherwise derived from the hostname, architecture, and OS.
pub fn host_fingerprint() -> String {
    if let Ok(v) = std::env::var("WHT_HOST_FP") {
        if !v.is_empty() {
            return sanitize(&v);
        }
    }
    let host = std::env::var("HOSTNAME")
        .ok()
        .filter(|h| !h.trim().is_empty())
        .or_else(|| std::fs::read_to_string("/etc/hostname").ok())
        .unwrap_or_default();
    let host = host.trim();
    let host = if host.is_empty() {
        "unknown-host"
    } else {
        host
    };
    let raw = format!("{host}/{}/{}", std::env::consts::ARCH, std::env::consts::OS);
    format!("{}-{:08x}", sanitize(host), fnv1a64(raw.as_bytes()) as u32)
}

/// The result of [`ShardedStore::load`] and [`ShardedStore::fsck`]:
/// whatever could be read, plus a diagnostic per shard that could not. A
/// load never fails as a whole.
#[derive(Debug, Clone, Default)]
pub struct StoreLoad {
    /// The merged wisdom of every intact shard.
    pub wisdom: Wisdom,
    /// One entry per refused shard, in shard-name order.
    pub diagnostics: Vec<StoreDiagnostic>,
    /// Shards verified and merged.
    pub shards_loaded: usize,
    /// Shards moved into `quarantine/`.
    pub quarantined: usize,
}

/// A sharded wisdom store rooted at one directory (see the module docs
/// for layout, format, and the crash-safety contract).
#[derive(Debug, Clone)]
pub struct ShardedStore {
    root: PathBuf,
    host: String,
}

impl ShardedStore {
    /// Open (creating if needed) a store rooted at `root`, writing
    /// shards under this host's fingerprint.
    ///
    /// # Errors
    /// [`WhtError::Io`] if the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, WhtError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| io_err("create-dir", &root, e))?;
        Ok(ShardedStore {
            root,
            host: host_fingerprint(),
        })
    }

    /// Override the host fingerprint (builder style) — how tests and
    /// merge tooling simulate a fleet in one process.
    #[must_use]
    pub fn with_host(mut self, host: &str) -> Self {
        self.host = sanitize(host);
        self
    }

    /// The store directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// This store's writing-host fingerprint.
    pub fn host(&self) -> &str {
        &self.host
    }

    fn shard_file_name(&self, n: u32, backend: &str) -> String {
        format!(
            "n{n:02}-{}-{:08x}-{}.shard",
            sanitize(backend),
            fnv1a64(backend.as_bytes()) as u32,
            self.host
        )
    }

    /// Write one shard per `(n, backend)` entry of `wisdom` under this
    /// host's fingerprint, each committed atomically and stamped with
    /// the current unix time. Returns the number of shards written.
    ///
    /// # Errors
    /// [`WhtError::Io`] on the first shard that fails; already-committed
    /// shards (from this call or earlier ones) are unaffected.
    pub fn save(&self, wisdom: &Wisdom) -> Result<usize, WhtError> {
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        self.save_with_stamp(wisdom, stamp)
    }

    /// [`ShardedStore::save`] with an explicit write stamp (newest-wins
    /// merge input) — deterministic for tests and merge tooling.
    ///
    /// # Errors
    /// [`WhtError::Io`] on the first shard that fails.
    pub fn save_with_stamp(&self, wisdom: &Wisdom, stamp: u64) -> Result<usize, WhtError> {
        let mut keys = wisdom.entry_keys();
        keys.sort();
        let mut written = 0usize;
        for (n, backend) in keys {
            let payload = wisdom
                .entry_json(n, &backend)
                .expect("keys() only names present entries");
            let path = self.root.join(self.shard_file_name(n, &backend));
            atomic_write(&path, &encode_shard(stamp, payload.as_bytes()))?;
            written += 1;
        }
        Ok(written)
    }

    /// Walk the shard directory, verify every shard, quarantine the bad
    /// ones, and merge the good ones — best entry per `(n, backend)` key
    /// (measured-fastest when evidence exists, else newest stamp, ties
    /// broken toward the lexicographically earlier shard so the answer
    /// is deterministic). Never fails as a whole: the worst possible
    /// outcome is an empty [`Wisdom`] plus one diagnostic per shard.
    pub fn load(&self) -> StoreLoad {
        self.load_merged(&[], true)
    }

    /// [`ShardedStore::load`] **without** quarantining: the merged
    /// wisdom of the intact shards and the diagnostics of the damaged
    /// ones, with every file left where it is (`quarantined` is 0).
    pub fn fsck(&self) -> StoreLoad {
        self.load_merged(&[], false)
    }

    /// [`ShardedStore::load`] across this store *and* `extra_roots`
    /// (read-only; only this store's own bad shards are quarantined) —
    /// the engine behind `wht-wisdom merge`.
    pub fn load_with(&self, extra_roots: &[PathBuf]) -> StoreLoad {
        self.load_merged(extra_roots, true)
    }

    fn load_merged(&self, extra_roots: &[PathBuf], quarantine: bool) -> StoreLoad {
        let mut report = StoreLoad::default();
        let mut stamps: HashMap<(u32, String), (u64, Option<u64>)> = HashMap::new();
        // Deterministic order: this root first, then extras, shards
        // sorted by file name within each root.
        let mut roots: Vec<(&Path, bool)> = vec![(self.root.as_path(), quarantine)];
        for extra in extra_roots {
            roots.push((extra.as_path(), false));
        }
        for (root, may_quarantine) in roots {
            let mut shards: Vec<PathBuf> = match fs::read_dir(root) {
                Ok(iter) => iter
                    .filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| {
                        p.extension().is_some_and(|x| x == "shard")
                            && !p
                                .file_name()
                                .is_some_and(|f| f.to_string_lossy().starts_with('.'))
                    })
                    .collect(),
                Err(e) => {
                    report.diagnostics.push(StoreDiagnostic::IoFailed {
                        shard: root.display().to_string(),
                        detail: e.to_string(),
                    });
                    continue;
                }
            };
            shards.sort();
            for path in shards {
                let name = path
                    .file_name()
                    .map(|f| f.to_string_lossy().into_owned())
                    .unwrap_or_else(|| path.display().to_string());
                match read_shard(&name, &path) {
                    Ok((stamp, wisdom)) => {
                        report.shards_loaded += 1;
                        for (n, backend, record) in wisdom.into_records() {
                            merge_entry(
                                &mut report.wisdom,
                                &mut stamps,
                                n,
                                &backend,
                                record,
                                stamp,
                            );
                        }
                    }
                    Err(diag) => {
                        if may_quarantine && quarantine_file(root, &path) {
                            report.quarantined += 1;
                        }
                        report.diagnostics.push(diag);
                    }
                }
            }
        }
        report
    }
}

/// Read + verify + parse one shard into `(stamp, wisdom)`.
fn read_shard(name: &str, path: &Path) -> Result<(u64, Wisdom), StoreDiagnostic> {
    let bytes = fs::read(path).map_err(|e| StoreDiagnostic::IoFailed {
        shard: name.to_string(),
        detail: e.to_string(),
    })?;
    let (stamp, payload) = decode_shard(name, &bytes)?;
    let text = std::str::from_utf8(payload).map_err(|e| StoreDiagnostic::Corrupt {
        shard: name.to_string(),
        detail: format!("payload is not UTF-8: {e}"),
    })?;
    let wisdom = classify_wisdom_json(name, text)?;
    Ok((stamp, wisdom))
}

/// Move a refused shard into `root/quarantine/`, never overwriting an
/// earlier quarantined file of the same name. Best-effort: `true` when
/// the file actually moved.
fn quarantine_file(root: &Path, path: &Path) -> bool {
    let qdir = root.join("quarantine");
    if fs::create_dir_all(&qdir).is_err() {
        return false;
    }
    let name = match path.file_name() {
        Some(n) => n.to_string_lossy().into_owned(),
        None => return false,
    };
    let mut target = qdir.join(&name);
    let mut suffix = 1u32;
    while target.exists() {
        target = qdir.join(format!("{name}.{suffix}"));
        suffix += 1;
    }
    fs::rename(path, &target).is_ok()
}

/// The keep-best merge rule, one key at a time: measured evidence beats
/// none; between two measured entries the faster wins (newer stamp
/// breaks exact ties); between two unmeasured entries the newer stamp
/// wins; remaining ties keep the incumbent (shards arrive in sorted
/// order, so the answer is deterministic).
fn merge_entry(
    into: &mut Wisdom,
    stamps: &mut HashMap<(u32, String), (u64, Option<u64>)>,
    n: u32,
    backend: &str,
    record: WisdomRecord,
    stamp: u64,
) {
    let key = (n, backend.to_string());
    let take = match stamps.get(&key) {
        None => true,
        Some(&(old_stamp, old_measured)) => {
            prefer_candidate(record.measured_ns, stamp, old_measured, old_stamp)
        }
    };
    if take {
        let measured = record.measured_ns;
        into.insert_record(n, backend, record);
        stamps.insert(key, (stamp, measured));
    }
}

/// `true` when the candidate entry should replace the incumbent under
/// the merge rule above.
pub(crate) fn prefer_candidate(
    cand_measured: Option<u64>,
    cand_stamp: u64,
    old_measured: Option<u64>,
    old_stamp: u64,
) -> bool {
    match (cand_measured, old_measured) {
        (Some(c), Some(o)) => c < o || (c == o && cand_stamp > old_stamp),
        (Some(_), None) => true,
        (None, Some(_)) => false,
        (None, None) => cand_stamp > old_stamp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InstructionCost, Planner};
    use wht_core::Plan;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wht_store_unit_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn shard_codec_round_trips_and_classifies_damage() {
        let payload = b"{\"hello\":1}";
        let bytes = encode_shard(42, payload);
        assert_eq!(bytes.len(), SHARD_HEADER_LEN + payload.len());
        let (stamp, back) = decode_shard("s", &bytes).unwrap();
        assert_eq!(stamp, 42);
        assert_eq!(back, payload);

        // Truncation anywhere is Truncated.
        for cut in [0, 7, SHARD_HEADER_LEN - 1, SHARD_HEADER_LEN + 3] {
            let diag = decode_shard("s", &bytes[..cut]).unwrap_err();
            assert_eq!(diag.kind(), "truncated", "cut at {cut}: {diag}");
        }
        // A flipped payload bit is a checksum mismatch.
        let mut flipped = bytes.clone();
        *flipped.last_mut().unwrap() ^= 0x40;
        assert_eq!(
            decode_shard("s", &flipped).unwrap_err().kind(),
            "checksum-mismatch"
        );
        // A bad magic is Corrupt.
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(decode_shard("s", &bad_magic).unwrap_err().kind(), "corrupt");
        // A future container version is VersionUnknown.
        let mut future = bytes.clone();
        future[8..12].copy_from_slice(&99u32.to_le_bytes());
        match decode_shard("s", &future).unwrap_err() {
            StoreDiagnostic::VersionUnknown { version, .. } => assert_eq!(version, 99),
            other => panic!("expected VersionUnknown, got {other}"),
        }
        // Trailing garbage is Corrupt, not silently ignored.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(decode_shard("s", &trailing).unwrap_err().kind(), "corrupt");
    }

    #[test]
    fn atomic_write_replaces_whole_files() {
        let dir = temp_dir("atomic");
        let path = dir.join("artifact.json");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second-longer-content").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second-longer-content");
        // No temp litter on the happy path.
        let stray: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(stray.is_empty(), "{stray:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_commits_to_one_path_each_land_whole() {
        // Two threads of one process commit shards of different lengths
        // to one path, round after round in lockstep: every commit must
        // succeed, and the file must always decode to one whole shard.
        let dir = temp_dir("race");
        let path = dir.join("n03-race.shard");
        let short = encode_shard(1, &[b'a'; 64]);
        let long = encode_shard(2, &vec![b'b'; 200_000]);
        let lockstep = std::sync::Barrier::new(2);
        // Each thread records its failures instead of panicking, so
        // neither is left waiting at the barrier for the other.
        let failures: Vec<String> = std::thread::scope(|s| {
            let workers = [&short, &long].map(|bytes| {
                let (path, short, long, lockstep) = (&path, &short, &long, &lockstep);
                s.spawn(move || {
                    let _isolate = failpoints::scope();
                    let mut failures = Vec::new();
                    for round in 0..200 {
                        lockstep.wait();
                        let outcome = atomic_write(path, bytes)
                            .map_err(|e| e.to_string())
                            .and_then(|()| fs::read(path).map_err(|e| e.to_string()))
                            .and_then(|on_disk| match decode_shard("race", &on_disk) {
                                Err(diag) => Err(diag.to_string()),
                                Ok(_) if on_disk != *short && on_disk != *long => {
                                    Err("a valid shard that neither thread wrote".into())
                                }
                                Ok(_) => Ok(()),
                            });
                        if let Err(e) = outcome {
                            failures.push(format!("round {round}: {e}"));
                        }
                    }
                    failures
                })
            });
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("worker ran to completion"))
                .collect()
        });
        assert!(
            failures.is_empty(),
            "{} of 400 commits failed; first: {}",
            failures.len(),
            failures[0]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_load_round_trips_a_planner_wisdom() {
        let _isolate = failpoints::scope();
        let dir = temp_dir("roundtrip");
        let mut planner = Planner::new(InstructionCost::default());
        planner.plan(6).unwrap();
        let store = ShardedStore::open(&dir).unwrap().with_host("host-a");
        let written = store.save_with_stamp(planner.wisdom(), 10).unwrap();
        assert_eq!(written, 6, "one shard per solved size");
        let loaded = store.load();
        assert!(loaded.diagnostics.is_empty(), "{:?}", loaded.diagnostics);
        assert_eq!(loaded.shards_loaded, 6);
        assert_eq!(loaded.quarantined, 0);
        assert_eq!(&loaded.wisdom, planner.wisdom());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_keeps_measured_fastest_then_newest() {
        let _isolate = failpoints::scope();
        let dir = temp_dir("merge");
        let store = ShardedStore::open(&dir).unwrap();
        let plan_a: Plan = "small[3]".parse().unwrap();
        let plan_b: Plan = "split[small[1],small[2]]".parse().unwrap();

        // Newest-wins when no evidence exists.
        let mut older = Wisdom::new();
        older.insert(3, "b", plan_a.clone()).unwrap();
        let mut newer = Wisdom::new();
        newer.insert(3, "b", plan_b.clone()).unwrap();
        store
            .clone()
            .with_host("h1")
            .save_with_stamp(&older, 100)
            .unwrap();
        store
            .clone()
            .with_host("h2")
            .save_with_stamp(&newer, 200)
            .unwrap();
        assert_eq!(store.load().wisdom.get(3, "b"), Some(&plan_b));

        // Measured evidence beats a newer unmeasured entry...
        let mut measured = Wisdom::new();
        measured.insert(3, "b", plan_a.clone()).unwrap();
        measured.record_measurement(3, "b", 900).unwrap();
        store
            .clone()
            .with_host("h3")
            .save_with_stamp(&measured, 50)
            .unwrap();
        let loaded = store.load();
        assert_eq!(loaded.wisdom.get(3, "b"), Some(&plan_a));
        assert_eq!(loaded.wisdom.measured_ns(3, "b"), Some(900));

        // ...and between two measured entries the faster wins.
        let mut faster = Wisdom::new();
        faster.insert(3, "b", plan_b.clone()).unwrap();
        faster.record_measurement(3, "b", 450).unwrap();
        store
            .clone()
            .with_host("h4")
            .save_with_stamp(&faster, 10)
            .unwrap();
        let loaded = store.load();
        assert_eq!(loaded.wisdom.get(3, "b"), Some(&plan_b));
        assert_eq!(loaded.wisdom.measured_ns(3, "b"), Some(450));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn host_fingerprint_is_filename_safe() {
        let fp = host_fingerprint();
        assert!(!fp.is_empty());
        assert!(fp
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_'));
    }
}
