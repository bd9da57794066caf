//! The tuning database: an in-memory index over the append-only record
//! log, with crash recovery at open and periodic compaction.

use crate::codec::{Record, TuneKey};
use crate::log::{decode_log, encode_record, MAGIC};
use an5d_gpusim::DeviceId;
use an5d_tuner::TuningResult;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Environment variable naming the database file `an5d-serve` persists
/// tuning results to.
pub const TUNE_DB_ENV: &str = "AN5D_TUNE_DB";

/// Compaction threshold: the log is rewritten with only the live records
/// when `stale >= max(MIN_STALE, live)` after an append — i.e. once at
/// least half the file is dead, but never for fewer than `MIN_STALE` stale
/// records (tiny DBs are not worth rewriting). Overwrites
/// (`/tune?refresh=true`, re-tuned keys) append a new record and leave the
/// superseded one in the file as a *stale* record.
const MIN_STALE: usize = 64;

/// Point-in-time database statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TuneDbStats {
    /// Distinct keys currently stored.
    pub live: usize,
    /// Superseded records still occupying file bytes (reset by
    /// compaction).
    pub stale: usize,
    /// Records appended through this handle.
    pub appends: u64,
    /// Log rewrites performed by this handle.
    pub compactions: u64,
    /// Live records recovered when the file was opened.
    pub recovered: usize,
    /// Records dropped at open for checksum/decode failures.
    pub skipped_corrupt: usize,
    /// Torn tail bytes discarded at open (crash mid-append).
    pub truncated_bytes: usize,
}

struct Inner {
    file: File,
    map: BTreeMap<TuneKey, Record>,
    stale: usize,
    appends: u64,
    compactions: u64,
    recovered: usize,
    skipped_corrupt: usize,
    truncated_bytes: usize,
}

/// A persisted map from [`TuneKey`] to [`TuningResult`], backed by the
/// checksummed record log of [`crate::log`].
///
/// All reads are served from the in-memory index built at open; `put`
/// appends one framed record and updates the index under the same lock,
/// so concurrent readers and writers (the service's connection workers)
/// always observe a consistent view. Opening a file a crashed process
/// left behind recovers the longest valid prefix, skips checksum-corrupt
/// records, and truncates the torn tail before appending again.
pub struct TuneDb {
    path: PathBuf,
    /// `fsync` after every append (see [`TuneDb::sync_on_append`]).
    sync_on_append: bool,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for TuneDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("TuneDb")
            .field("path", &self.path)
            .field("live", &stats.live)
            .field("stale", &stats.stale)
            .finish()
    }
}

impl TuneDb {
    /// Open (or create) a database at `path`.
    ///
    /// The database is **single-writer**: one process (one `TuneDb`)
    /// owns the file at a time. Appends go through an `O_APPEND` handle
    /// — so even a mis-shared file degrades to checksum-detected record
    /// loss rather than silent offset-overwrite corruption — but two
    /// live writers still race compaction renames; point concurrent
    /// servers at distinct paths.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors, and rejects files that are not tune
    /// DBs at all (wrong magic). Damage *within* a valid DB — torn
    /// appends, checksum-corrupt records — is recovered, not fatal.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let recovered = decode_log(&bytes)?;

        let mut map: BTreeMap<TuneKey, Record> = BTreeMap::new();
        let mut stale = 0usize;
        let mut skipped_corrupt = recovered.skipped;
        for payload in &recovered.payloads {
            match Record::from_payload(payload) {
                Ok(record) => {
                    if map.insert(record.key.clone(), record).is_some() {
                        stale += 1;
                    }
                }
                // Checksum-intact but undecodable (e.g. written by a
                // newer codec): drop the record, keep the database.
                Err(_) => skipped_corrupt += 1,
            }
        }

        // Chop the torn tail (and any never-completed header) so the
        // next append starts at a clean frame boundary.
        if recovered.valid_len == 0 {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(MAGIC)?;
        } else if recovered.tail_bytes > 0 {
            file.set_len(recovered.valid_len as u64)?;
        }
        drop(file);
        // The live handle appends in O_APPEND mode: every write lands at
        // the file's *current* end, not at a cursor that could go stale.
        let file = OpenOptions::new().append(true).open(&path)?;

        Ok(Self {
            path,
            sync_on_append: false,
            inner: Mutex::new(Inner {
                file,
                recovered: map.len(),
                map,
                stale,
                appends: 0,
                compactions: 0,
                skipped_corrupt,
                truncated_bytes: recovered.tail_bytes,
            }),
        })
    }

    /// `fsync` (`File::sync_all`) the log after every appended record.
    ///
    /// By default `put` only flushes to the OS (`flush`), so a machine
    /// crash — not just a process crash — can lose the last records.
    /// The service path opens its database with this enabled: a tuning
    /// record the server acknowledged should survive power loss, and
    /// tune appends are rare enough that the fsync cost is noise next
    /// to the sweep that produced the record. (Crash recovery at open
    /// handles whatever a torn append leaves behind either way.)
    #[must_use]
    pub fn sync_on_append(mut self, enabled: bool) -> Self {
        self.sync_on_append = enabled;
        self
    }

    /// The backing file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The stored result for a key, if any.
    ///
    /// # Panics
    ///
    /// Panics if the database mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn get(&self, key: &TuneKey) -> Option<TuningResult> {
        let _span = an5d_obs::Span::enter("tunedb.get");
        let inner = self.inner.lock().expect("tune DB poisoned");
        inner.map.get(key).map(|record| record.result.clone())
    }

    /// Store (or overwrite) the result for a key, appending one record
    /// to the log and compacting once enough of it is stale.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors. The in-memory index is updated only
    /// after the bytes reach the file, so a failed append leaves the
    /// database consistent with the log.
    ///
    /// # Panics
    ///
    /// Panics if the database mutex was poisoned by a panicking thread.
    pub fn put(&self, key: &TuneKey, hint: Option<&str>, result: &TuningResult) -> io::Result<()> {
        let _span = an5d_obs::Span::enter("tunedb.append");
        let record = Record {
            key: key.clone(),
            hint: hint.map(str::to_string),
            result: result.clone(),
        };
        let mut frame = Vec::new();
        encode_record(&record.to_payload(), &mut frame);

        let mut inner = self.inner.lock().expect("tune DB poisoned");
        // A failed or partial append must not leave a torn frame at the
        // end of the file: later appends would land *after* the torn
        // bytes, and the misaligned decode at the next open would drop
        // every one of them. Roll back to the pre-append length.
        let offset = inner.file.metadata()?.len();
        match an5d_fault::point("tunedb.append") {
            None => {}
            Some(an5d_fault::FaultAction::Delay(d)) => std::thread::sleep(d),
            Some(an5d_fault::FaultAction::Error) => {
                return Err(an5d_fault::injected("tunedb.append"));
            }
            Some(an5d_fault::FaultAction::Short(n)) => {
                // A simulated crash torn mid-record: the first `n` frame
                // bytes reach the file and nothing rolls them back —
                // exactly the state a power cut leaves behind. Recovery
                // at the next open must chop this tail.
                let cut = n.min(frame.len());
                let _ = inner.file.write_all(&frame[..cut]);
                let _ = inner.file.flush();
                return Err(an5d_fault::injected("tunedb.append"));
            }
        }
        if let Err(e) = inner
            .file
            .write_all(&frame)
            .and_then(|()| inner.file.flush())
            .and_then(|()| {
                if self.sync_on_append {
                    inner.file.sync_all()
                } else {
                    Ok(())
                }
            })
        {
            let _ = inner.file.set_len(offset);
            return Err(e);
        }
        inner.appends += 1;
        if inner.map.insert(record.key.clone(), record).is_some() {
            inner.stale += 1;
        }
        if inner.stale >= MIN_STALE.max(inner.map.len()) {
            self.compact_locked(&mut inner)?;
        }
        Ok(())
    }

    /// Rewrite the log with only the live records (atomic
    /// write-temp-then-rename).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on failure the original log file is
    /// left untouched.
    ///
    /// # Panics
    ///
    /// Panics if the database mutex was poisoned by a panicking thread.
    pub fn compact(&self) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("tune DB poisoned");
        self.compact_locked(&mut inner)
    }

    fn compact_locked(&self, inner: &mut Inner) -> io::Result<()> {
        let _span = an5d_obs::Span::enter("tunedb.compact");
        let mut image = MAGIC.to_vec();
        for record in inner.map.values() {
            encode_record(&record.to_payload(), &mut image);
        }
        let tmp_path = self.path.with_extension("tmp");
        let mut tmp = File::create(&tmp_path)?;
        tmp.write_all(&image)?;
        tmp.sync_all()?;
        drop(tmp);
        std::fs::rename(&tmp_path, &self.path)?;
        inner.file = OpenOptions::new().append(true).open(&self.path)?;
        inner.stale = 0;
        inner.compactions += 1;
        Ok(())
    }

    /// Every live record, in key order.
    ///
    /// # Panics
    ///
    /// Panics if the database mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn entries(&self) -> Vec<Record> {
        let inner = self.inner.lock().expect("tune DB poisoned");
        inner.map.values().cloned().collect()
    }

    /// The live records keyed to one device, in key order — what a
    /// device's cache shard warms from at startup.
    ///
    /// # Panics
    ///
    /// Panics if the database mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn entries_for_device(&self, device: &DeviceId) -> Vec<Record> {
        let inner = self.inner.lock().expect("tune DB poisoned");
        inner
            .map
            .values()
            .filter(|record| &record.key.device == device)
            .cloned()
            .collect()
    }

    /// Number of live keys.
    ///
    /// # Panics
    ///
    /// Panics if the database mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("tune DB poisoned").map.len()
    }

    /// `true` when no key is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counters.
    ///
    /// # Panics
    ///
    /// Panics if the database mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn stats(&self) -> TuneDbStats {
        let inner = self.inner.lock().expect("tune DB poisoned");
        TuneDbStats {
            live: inner.map.len(),
            stale: inner.stale,
            appends: inner.appends,
            compactions: inner.compactions,
            recovered: inner.recovered,
            skipped_corrupt: inner.skipped_corrupt,
            truncated_bytes: inner.truncated_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d_gpusim::GpuDevice;
    use an5d_grid::Precision;
    use an5d_stencil::{suite, StencilProblem};
    use an5d_tuner::{SearchSpace, Tuner};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique temp path per test invocation (tests run concurrently).
    fn temp_path(label: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "an5d-tunedb-test-{}-{label}-{n}.db",
            std::process::id()
        ))
    }

    struct TempFile(PathBuf);
    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
            let _ = std::fs::remove_file(self.0.with_extension("tmp"));
        }
    }

    fn sample(device: &str, steps: usize) -> (TuneKey, TuningResult) {
        let def = suite::j2d5pt();
        let problem = StencilProblem::new(def.clone(), &[512, 512], steps).unwrap();
        let space = SearchSpace::quick(2, Precision::Single);
        let result = Tuner::new(GpuDevice::tesla_v100())
            .tune(&def, &problem, &space)
            .unwrap();
        (
            TuneKey::for_query(&def, &problem, &DeviceId::new(device), &space, "an5d"),
            result,
        )
    }

    #[test]
    fn put_get_persists_across_reopen() {
        let path = temp_path("reopen");
        let _cleanup = TempFile(path.clone());
        let (key, result) = sample("v100", 50);
        {
            let db = TuneDb::open(&path).unwrap();
            assert!(db.is_empty());
            assert_eq!(db.get(&key), None);
            db.put(&key, Some("j2d5pt"), &result).unwrap();
            assert_eq!(db.get(&key), Some(result.clone()));
            assert_eq!(db.len(), 1);
        }
        let db = TuneDb::open(&path).unwrap();
        assert_eq!(db.get(&key), Some(result), "bit-identical after reopen");
        let stats = db.stats();
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.skipped_corrupt, 0);
        assert_eq!(stats.truncated_bytes, 0);
    }

    #[test]
    fn overwrites_keep_the_latest_result_and_count_stale() {
        let path = temp_path("overwrite");
        let _cleanup = TempFile(path.clone());
        let (key, result) = sample("v100", 50);
        let db = TuneDb::open(&path).unwrap();
        db.put(&key, None, &result).unwrap();
        let mut changed = result.clone();
        changed.total_candidates += 1;
        db.put(&key, None, &changed).unwrap();
        assert_eq!(db.len(), 1);
        assert_eq!(db.get(&key), Some(changed.clone()));
        assert_eq!(db.stats().stale, 1);
        drop(db);
        // The log replays both records; the later one wins.
        let db = TuneDb::open(&path).unwrap();
        assert_eq!(db.get(&key), Some(changed));
        assert_eq!(db.stats().stale, 1);
    }

    #[test]
    fn entries_filter_by_device() {
        let path = temp_path("devices");
        let _cleanup = TempFile(path.clone());
        let db = TuneDb::open(&path).unwrap();
        let (v100, result) = sample("v100", 50);
        let (p100, _) = sample("p100", 50);
        db.put(&v100, Some("j2d5pt"), &result).unwrap();
        db.put(&p100, Some("j2d5pt"), &result).unwrap();
        assert_eq!(db.entries().len(), 2);
        let only_v100 = db.entries_for_device(&DeviceId::new("v100"));
        assert_eq!(only_v100.len(), 1);
        assert_eq!(only_v100[0].key, v100);
        assert_eq!(only_v100[0].hint.as_deref(), Some("j2d5pt"));
        assert!(db.entries_for_device(&DeviceId::new("a100")).is_empty());
    }

    #[test]
    fn truncated_files_recover_the_longest_prefix_at_every_offset() {
        let path = temp_path("truncate");
        let _cleanup = TempFile(path.clone());
        let db = TuneDb::open(&path).unwrap();
        let (k1, result) = sample("v100", 50);
        let (k2, _) = sample("p100", 60);
        db.put(&k1, None, &result).unwrap();
        db.put(&k2, None, &result).unwrap();
        drop(db);
        let full = std::fs::read(&path).unwrap();

        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let db = TuneDb::open(&path).expect("recovery must never fail on truncation");
            let stats = db.stats();
            assert!(stats.live <= 2, "cut {cut}");
            assert_eq!(stats.skipped_corrupt, 0, "cut {cut}");
            assert!(stats.truncated_bytes <= cut, "cut {cut}");
            // Whatever survived must be intact and appendable.
            if stats.live == 2 {
                assert_eq!(db.get(&k2), Some(result.clone()));
            }
            db.put(&k2, None, &result).unwrap();
            drop(db);
            let db = TuneDb::open(&path).unwrap();
            assert_eq!(
                db.get(&k2),
                Some(result.clone()),
                "cut {cut}: append after recovery"
            );
        }
    }

    #[test]
    fn corrupt_record_is_skipped_and_the_rest_survive() {
        let path = temp_path("corrupt");
        let _cleanup = TempFile(path.clone());
        let db = TuneDb::open(&path).unwrap();
        let (k1, result) = sample("v100", 50);
        let (k2, _) = sample("p100", 60);
        let (k3, _) = sample("a100", 70);
        db.put(&k1, None, &result).unwrap();
        db.put(&k2, None, &result).unwrap();
        db.put(&k3, None, &result).unwrap();
        drop(db);

        // Flip a byte inside the middle record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let third = MAGIC.len() + (bytes.len() - MAGIC.len()) / 2;
        bytes[third] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let db = TuneDb::open(&path).unwrap();
        let stats = db.stats();
        assert_eq!(stats.skipped_corrupt, 1, "exactly one record lost");
        assert_eq!(stats.live, 2, "records around the corruption survive");
    }

    #[test]
    fn foreign_files_are_refused() {
        let path = temp_path("foreign");
        let _cleanup = TempFile(path.clone());
        std::fs::write(&path, b"#!/bin/sh\necho not a database\n").unwrap();
        let err = TuneDb::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The refused file is left byte-for-byte intact.
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"#!/bin/sh\necho not a database\n"
        );
    }

    #[test]
    fn compaction_drops_stale_records_and_shrinks_the_file() {
        let path = temp_path("compact");
        let _cleanup = TempFile(path.clone());
        let db = TuneDb::open(&path).unwrap();
        let (key, result) = sample("v100", 50);
        for _ in 0..MIN_STALE {
            db.put(&key, None, &result).unwrap();
        }
        let before = std::fs::metadata(&path).unwrap().len();
        assert_eq!(db.stats().stale, MIN_STALE - 1);
        assert_eq!(db.stats().compactions, 0, "below the stale threshold");

        // One more overwrite — the 65th record of the key — pushes stale
        // to 64 ≥ max(64, live = 1): compact.
        db.put(&key, None, &result).unwrap();
        let stats = db.stats();
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.stale, 0);
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before, "{after} >= {before}");

        // The compacted log still answers, now and after reopen + append.
        assert_eq!(db.get(&key), Some(result.clone()));
        db.put(&key, None, &result).unwrap();
        drop(db);
        let db = TuneDb::open(&path).unwrap();
        assert_eq!(db.get(&key), Some(result));
        assert_eq!(db.stats().recovered, 1);
    }

    #[test]
    fn explicit_compaction_is_available() {
        let path = temp_path("explicit");
        let _cleanup = TempFile(path.clone());
        let db = TuneDb::open(&path).unwrap();
        let (key, result) = sample("v100", 50);
        db.put(&key, None, &result).unwrap();
        db.put(&key, None, &result).unwrap();
        assert_eq!(db.stats().stale, 1);
        db.compact().unwrap();
        assert_eq!(db.stats().stale, 0);
        assert_eq!(db.stats().compactions, 1);
        assert_eq!(db.get(&key), Some(result));
    }
}
