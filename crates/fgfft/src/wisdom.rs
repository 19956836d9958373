//! Persistent autotuning wisdom, FFTW-style.
//!
//! The `fgtune` autotuner measures which schedule tuning (pool order,
//! guided split, transpose tile) and execution backend are fastest for
//! each [`PlanKey`] *on this machine*, and persists the answer here so
//! it is paid for once: the [`crate::planner::Planner`] consults a loaded
//! [`Wisdom`] when materializing a plan, and `fgserve`'s `FftService`
//! loads a wisdom file at startup via its `wisdom_path` config.
//!
//! Design constraints, in order:
//!
//! * **Corrupt-file tolerant.** A missing, truncated, or hand-mangled
//!   wisdom file must never take the service down — [`Wisdom::load`]
//!   always returns a usable (possibly empty) store plus a
//!   [`WisdomStatus`] saying what happened.
//! * **Machine-scoped.** Measured wall times are facts about one machine.
//!   Every file records a [`machine_fingerprint`]; a file measured
//!   elsewhere is ignored wholesale (status
//!   [`WisdomStatus::FingerprintMismatch`]) rather than half-trusted.
//! * **Versioned.** The JSON carries [`WISDOM_FORMAT`]; any other format
//!   is ignored, not guessed at.
//! * **Atomic writes.** [`Wisdom::save`] writes a temporary file and
//!   renames it into place, so a concurrent reader sees either the old or
//!   the new wisdom, never a torn file.
//! * **Certified.** A wisdom file steers the planner's `unsafe` hot path,
//!   so every entry must carry a [`Certificate`] that re-verifies against
//!   the running code: entries with semantically invalid tunings load as
//!   [`WisdomStatus::Invalid`], missing certificates as
//!   [`WisdomStatus::Uncertified`], and failed verification (stale,
//!   tampered, or foreign-revision evidence) as
//!   [`WisdomStatus::CertificateMismatch`] — each ignored wholesale, like
//!   a fingerprint mismatch.

use crate::backend::BackendSel;
use crate::cert::Certificate;
use crate::exec::{SeedOrder, Version};
use crate::planner::PlanKey;
use crate::twiddle::TwiddleLayout;
use crate::workload::ScheduleTuning;
use fgsupport::json::{self, Value};
use std::path::Path;

/// Version of the on-disk JSON schema. Bump on incompatible change; loads
/// of any other format report [`WisdomStatus::FormatMismatch`] and yield an
/// empty store (the certificates of older formats were issued against an
/// older workload revision and could not verify anyway). Format 4 entries
/// carry the transform kind (`kind`, absent means `c2c`), the 2-D transpose
/// block axis (`transpose_block_log2`) and the `backend` (`scalar` or
/// `simd`). The decoder ignores fields it does not know, so format-4 files
/// written while the SIMD backend still carried a fusion radix load
/// unchanged: every stage's pass split now follows from its level count.
pub const WISDOM_FORMAT: u64 = 4;

/// A stable identifier of the measuring machine: architecture, OS, and
/// hardware parallelism. Coarse on purpose — it must be cheap, dependency
/// free, and wrong only in the safe direction (two fingerprint-equal
/// machines with different cache hierarchies share wisdom that is merely
/// suboptimal, never incorrect: tuning cannot change results).
pub fn machine_fingerprint() -> String {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "{}-{}-{}t",
        std::env::consts::ARCH,
        std::env::consts::OS,
        threads
    )
}

/// The tuned parameters measured best for one [`PlanKey`].
#[derive(Debug, Clone, PartialEq)]
pub struct WisdomEntry {
    /// The plan identity this entry tunes.
    pub key: PlanKey,
    /// Schedule overrides (pool order, guided split) the planner applies
    /// when building the plan for `key`.
    pub tuning: ScheduleTuning,
    /// Measured-best execution backend.
    pub backend: BackendSel,
    /// Median wall time of the tuned schedule, nanoseconds.
    pub median_ns: u64,
    /// Median wall time of the version's own (seed) schedule under the
    /// same measurement, nanoseconds — kept so reports can show the gain.
    pub seed_median_ns: u64,
    /// Static-verification certificate the checker issued for this tuning
    /// (see [`crate::cert`]). Required on loaded files; optional on
    /// programmatically installed wisdom.
    pub cert: Option<Certificate>,
}

/// What [`Wisdom::load`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WisdomStatus {
    /// File read, parsed, fingerprint matched: `entries` tunings adopted.
    Loaded {
        /// Number of entries adopted.
        entries: usize,
    },
    /// No file at the path — fresh store.
    Missing,
    /// Unreadable, unparseable, or schema-invalid — ignored.
    Corrupt,
    /// Parsed, but written by a different schema version — ignored.
    FormatMismatch,
    /// Parsed, but measured on a different machine — ignored.
    FingerprintMismatch,
    /// Parsed, but at least one entry's tuning does not fit its plan
    /// (wrong-length or non-permutation pool order, split past the last
    /// stage) — ignored wholesale instead of panicking later in
    /// `ScheduleSpec::of_tuned`.
    Invalid,
    /// Parsed, but at least one entry carries no certificate — ignored.
    Uncertified,
    /// Parsed, but at least one entry's certificate failed verification
    /// (tampered fields, foreign workload revision, or a schedule digest
    /// that does not match the entry's tuning) — ignored.
    CertificateMismatch,
}

impl WisdomStatus {
    /// True when the load produced usable entries.
    pub fn is_loaded(&self) -> bool {
        matches!(self, WisdomStatus::Loaded { .. })
    }
}

/// A machine-scoped store of tuned plan parameters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Wisdom {
    fingerprint: String,
    entries: Vec<WisdomEntry>,
}

impl Wisdom {
    /// Empty store fingerprinted for this machine.
    pub fn new() -> Self {
        Self::with_fingerprint(machine_fingerprint())
    }

    /// Empty store with an explicit fingerprint (tests, cross-machine
    /// tooling).
    pub fn with_fingerprint(fingerprint: String) -> Self {
        Self {
            fingerprint,
            entries: Vec::new(),
        }
    }

    /// The fingerprint of the measuring machine.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// All entries, in insertion order.
    pub fn entries(&self) -> &[WisdomEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert `entry`, replacing any existing entry for the same key —
    /// newest measurement wins.
    pub fn insert(&mut self, entry: WisdomEntry) {
        match self.entries.iter_mut().find(|e| e.key == entry.key) {
            Some(slot) => *slot = entry,
            None => self.entries.push(entry),
        }
    }

    /// The entry tuned for `key`, if any.
    pub fn lookup(&self, key: &PlanKey) -> Option<&WisdomEntry> {
        self.entries.iter().find(|e| e.key == *key)
    }

    /// Serialize to the on-disk JSON document.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("format", Value::Num(WISDOM_FORMAT as f64)),
            ("fingerprint", Value::Str(self.fingerprint.clone())),
            (
                "entries",
                Value::Arr(self.entries.iter().map(entry_to_json).collect()),
            ),
        ])
    }

    /// Parse the on-disk JSON document. Errors name the first violation —
    /// callers that must not fail use [`Wisdom::load`] instead.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let format = value
            .get("format")
            .and_then(Value::as_u64)
            .ok_or("missing format")?;
        if format != WISDOM_FORMAT {
            return Err(format!("format {format} != {WISDOM_FORMAT}"));
        }
        let fingerprint = value
            .get("fingerprint")
            .and_then(Value::as_str)
            .ok_or("missing fingerprint")?
            .to_string();
        let Some(Value::Arr(items)) = value.get("entries") else {
            return Err("missing entries array".to_string());
        };
        let mut wisdom = Self::with_fingerprint(fingerprint);
        for item in items {
            wisdom.insert(entry_from_json(item)?);
        }
        Ok(wisdom)
    }

    /// Load from `path`, tolerating every failure mode: the returned store
    /// is always usable (empty on any problem, fingerprinted for this
    /// machine) and the status says what happened. A file measured on a
    /// different machine, written by a different format version, holding an
    /// ill-formed tuning, or with an entry whose certificate is missing or
    /// fails [`Certificate::verify_static`] is ignored wholesale.
    pub fn load(path: &Path) -> (Self, WisdomStatus) {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return (Self::new(), WisdomStatus::Missing)
            }
            Err(_) => return (Self::new(), WisdomStatus::Corrupt),
        };
        let value = match json::parse(&text) {
            Ok(value) => value,
            Err(_) => return (Self::new(), WisdomStatus::Corrupt),
        };
        match value.get("format").and_then(Value::as_u64) {
            Some(WISDOM_FORMAT) => {}
            Some(_) => return (Self::new(), WisdomStatus::FormatMismatch),
            None => return (Self::new(), WisdomStatus::Corrupt),
        }
        let wisdom = match Self::from_json(&value) {
            Ok(wisdom) => wisdom,
            Err(_) => return (Self::new(), WisdomStatus::Corrupt),
        };
        if wisdom.fingerprint != machine_fingerprint() {
            return (Self::new(), WisdomStatus::FingerprintMismatch);
        }
        for entry in &wisdom.entries {
            // A wisdom file is data: a tuning that does not fit its plan
            // must degrade here, never panic later in plan construction.
            // Composite kinds tune their inner complex plan.
            let inner = entry.key.kind.inner_n_log2(entry.key.n_log2);
            let fft = crate::plan::FftPlan::new(inner, entry.key.radix_log2.min(inner));
            if entry.tuning.validate(&fft).is_err() {
                return (Self::new(), WisdomStatus::Invalid);
            }
        }
        for entry in &wisdom.entries {
            let Some(cert) = &entry.cert else {
                return (Self::new(), WisdomStatus::Uncertified);
            };
            if cert.verify_static(entry.key, Some(&entry.tuning)).is_err() {
                return (Self::new(), WisdomStatus::CertificateMismatch);
            }
        }
        let entries = wisdom.len();
        (wisdom, WisdomStatus::Loaded { entries })
    }

    /// Atomically write to `path`: the document lands in a sibling
    /// temporary file first and is renamed into place, so a concurrent
    /// [`Wisdom::load`] sees either the previous file or this one, never a
    /// torn write.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let text = self.to_json().to_string_pretty();
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, &text)?;
        match std::fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

/// Stable string form of a version for the wisdom file (round-trips
/// through [`version_from_string`], including fine seed orders).
pub fn version_to_string(version: Version) -> String {
    fn order(order: SeedOrder) -> String {
        match order {
            SeedOrder::Natural => "natural".to_string(),
            SeedOrder::Reversed => "reversed".to_string(),
            SeedOrder::EvenOdd => "even-odd".to_string(),
            SeedOrder::Random(seed) => format!("random:{seed}"),
        }
    }
    match version {
        Version::Coarse => "coarse".to_string(),
        Version::CoarseHash => "coarse-hash".to_string(),
        Version::Fine(o) => format!("fine:{}", order(o)),
        Version::FineHash(o) => format!("fine-hash:{}", order(o)),
        Version::FineGuided => "fine-guided".to_string(),
    }
}

/// Inverse of [`version_to_string`].
pub fn version_from_string(s: &str) -> Result<Version, String> {
    fn order(s: &str) -> Result<SeedOrder, String> {
        match s {
            "natural" => Ok(SeedOrder::Natural),
            "reversed" => Ok(SeedOrder::Reversed),
            "even-odd" => Ok(SeedOrder::EvenOdd),
            _ => match s.strip_prefix("random:") {
                Some(seed) => seed
                    .parse::<u64>()
                    .map(SeedOrder::Random)
                    .map_err(|_| format!("bad random seed in {s:?}")),
                None => Err(format!("unknown seed order {s:?}")),
            },
        }
    }
    match s {
        "coarse" => Ok(Version::Coarse),
        "coarse-hash" => Ok(Version::CoarseHash),
        "fine-guided" => Ok(Version::FineGuided),
        _ => {
            if let Some(rest) = s.strip_prefix("fine-hash:") {
                order(rest).map(Version::FineHash)
            } else if let Some(rest) = s.strip_prefix("fine:") {
                order(rest).map(Version::Fine)
            } else {
                Err(format!("unknown version {s:?}"))
            }
        }
    }
}

/// Stable string form of a twiddle layout for the wisdom file.
pub fn layout_to_string(layout: TwiddleLayout) -> &'static str {
    match layout {
        TwiddleLayout::Linear => "linear",
        TwiddleLayout::BitReversedHash => "bitrev-hash",
        TwiddleLayout::MultiplicativeHash => "mult-hash",
    }
}

/// Inverse of [`layout_to_string`].
pub fn layout_from_string(s: &str) -> Result<TwiddleLayout, String> {
    match s {
        "linear" => Ok(TwiddleLayout::Linear),
        "bitrev-hash" => Ok(TwiddleLayout::BitReversedHash),
        "mult-hash" => Ok(TwiddleLayout::MultiplicativeHash),
        _ => Err(format!("unknown layout {s:?}")),
    }
}

fn entry_to_json(entry: &WisdomEntry) -> Value {
    let pool_order = match &entry.tuning.pool_order {
        Some(order) => Value::Arr(order.iter().map(|&i| Value::Num(i as f64)).collect()),
        None => Value::Null,
    };
    let last_early = match entry.tuning.last_early {
        Some(s) => Value::Num(s as f64),
        None => Value::Null,
    };
    let transpose_block_log2 = match entry.tuning.transpose_block_log2 {
        Some(b) => Value::Num(b as f64),
        None => Value::Null,
    };
    Value::obj(vec![
        ("n_log2", Value::Num(entry.key.n_log2 as f64)),
        ("radix_log2", Value::Num(entry.key.radix_log2 as f64)),
        ("version", Value::Str(version_to_string(entry.key.version))),
        (
            "layout",
            Value::Str(layout_to_string(entry.key.layout).to_string()),
        ),
        ("kind", Value::Str(entry.key.kind.as_string())),
        ("pool_order", pool_order),
        ("last_early", last_early),
        ("transpose_block_log2", transpose_block_log2),
        ("backend", Value::Str(entry.backend.kind_str().to_string())),
        ("median_ns", Value::Num(entry.median_ns as f64)),
        ("seed_median_ns", Value::Num(entry.seed_median_ns as f64)),
        (
            "cert",
            match &entry.cert {
                Some(cert) => cert.to_json(),
                None => Value::Null,
            },
        ),
    ])
}

fn entry_from_json(value: &Value) -> Result<WisdomEntry, String> {
    let num = |field: &str| -> Result<u64, String> {
        value
            .get(field)
            .and_then(Value::as_u64)
            .ok_or(format!("missing {field}"))
    };
    let n_log2 = num("n_log2")? as u32;
    let radix_log2 = num("radix_log2")? as u32;
    if n_log2 == 0 || n_log2 > 63 {
        return Err(format!("n_log2 {n_log2} out of range"));
    }
    if !(1..=crate::plan::MAX_RADIX_LOG2).contains(&radix_log2) {
        return Err(format!("radix_log2 {radix_log2} out of range"));
    }
    let version = version_from_string(
        value
            .get("version")
            .and_then(Value::as_str)
            .ok_or("missing version")?,
    )?;
    let layout = layout_from_string(
        value
            .get("layout")
            .and_then(Value::as_str)
            .ok_or("missing layout")?,
    )?;
    // An absent kind decodes as the plain complex transform. Validate
    // before constructing
    // the key: `PlanKey::with_kind` panics on a kind/size mismatch, and a
    // wisdom file is data that must degrade, not crash.
    let kind = match value.get("kind") {
        None | Some(Value::Null) => crate::workload::TransformKind::C2C,
        Some(v) => {
            let name = v.as_str().ok_or("kind must be a string")?;
            crate::workload::TransformKind::parse(name)
                .ok_or_else(|| format!("unknown kind {name:?}"))?
        }
    };
    kind.validate(n_log2)
        .map_err(|why| format!("kind does not fit plan: {why}"))?;
    let key = PlanKey::with_kind(kind, 1usize << n_log2, version, layout, radix_log2);
    let pool_order = match value.get("pool_order") {
        None | Some(Value::Null) => None,
        Some(Value::Arr(items)) => {
            let mut order = Vec::with_capacity(items.len());
            for item in items {
                order.push(item.as_u64().ok_or("non-integer pool_order entry")? as usize);
            }
            Some(order)
        }
        Some(_) => return Err("pool_order must be an array or null".to_string()),
    };
    let last_early = match value.get("last_early") {
        None | Some(Value::Null) => None,
        Some(v) => Some(v.as_u64().ok_or("non-integer last_early")? as usize),
    };
    let transpose_block_log2 = match value.get("transpose_block_log2") {
        None | Some(Value::Null) => None,
        Some(v) => Some(v.as_u64().ok_or("non-integer transpose_block_log2")? as u32),
    };
    let tuning = ScheduleTuning {
        pool_order,
        last_early,
        transpose_block_log2,
    };
    // Semantic validity of the tuning (permutation length, split bounds) is
    // checked by `load`, not here: `from_json` stays a pure schema
    // decoder so callers can distinguish `Corrupt` from `Invalid`.
    let cert = match value.get("cert") {
        None | Some(Value::Null) => None,
        Some(v) => Some(Certificate::from_json(v)?),
    };
    let backend = value
        .get("backend")
        .and_then(Value::as_str)
        .ok_or("missing backend")?;
    let backend =
        BackendSel::parse(backend).ok_or_else(|| format!("unknown backend {backend:?}"))?;
    Ok(WisdomEntry {
        key,
        tuning,
        backend,
        median_ns: num("median_ns")?,
        seed_median_ns: num("seed_median_ns")?,
        cert,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry(n_log2: u32, version: Version) -> WisdomEntry {
        let cps = 1usize << (n_log2 - 6);
        let key = PlanKey::with_radix(1usize << n_log2, version, version.layout(), 6);
        let tuning = ScheduleTuning {
            pool_order: Some((0..cps).rev().collect()),
            last_early: None,
            transpose_block_log2: None,
        };
        let cert = Certificate::for_plan(&crate::planner::Plan::build_tuned(key, Some(&tuning)))
            .expect("sample tuning is valid");
        WisdomEntry {
            key,
            tuning,
            backend: BackendSel::SIMD,
            median_ns: 123_456,
            seed_median_ns: 234_567,
            cert: Some(cert),
        }
    }

    #[test]
    fn json_round_trip_is_identity() {
        let mut wisdom = Wisdom::new();
        let mut guided = sample_entry(14, Version::FineGuided);
        guided.tuning.last_early = Some(1);
        wisdom.insert(guided);
        wisdom.insert(sample_entry(13, Version::Fine(SeedOrder::Random(99))));
        let text = wisdom.to_json().to_string_pretty();
        let back = Wisdom::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, wisdom);
    }

    #[test]
    fn versions_round_trip_through_strings() {
        for v in [
            Version::Coarse,
            Version::CoarseHash,
            Version::Fine(SeedOrder::Natural),
            Version::Fine(SeedOrder::Random(0xDEAD_BEEF)),
            Version::FineHash(SeedOrder::EvenOdd),
            Version::FineHash(SeedOrder::Reversed),
            Version::FineGuided,
        ] {
            assert_eq!(
                version_from_string(&version_to_string(v)).unwrap(),
                v,
                "{v:?}"
            );
        }
        assert!(version_from_string("fine:banana").is_err());
        assert!(version_from_string("medium").is_err());
    }

    #[test]
    fn insert_replaces_same_key() {
        let mut wisdom = Wisdom::new();
        let mut entry = sample_entry(12, Version::FineGuided);
        wisdom.insert(entry.clone());
        entry.median_ns = 1;
        wisdom.insert(entry.clone());
        assert_eq!(wisdom.len(), 1);
        assert_eq!(wisdom.lookup(&entry.key).unwrap().median_ns, 1);
    }

    #[test]
    fn load_tolerates_missing_corrupt_and_foreign_files() {
        let dir = std::env::temp_dir().join(format!("fgfft-wisdom-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let missing = dir.join("missing.json");
        assert_eq!(Wisdom::load(&missing).1, WisdomStatus::Missing);

        let corrupt = dir.join("corrupt.json");
        std::fs::write(&corrupt, "{ not json").unwrap();
        assert_eq!(Wisdom::load(&corrupt).1, WisdomStatus::Corrupt);

        // Truncated mid-document: parse fails, load degrades gracefully.
        let mut wisdom = Wisdom::new();
        wisdom.insert(sample_entry(12, Version::FineGuided));
        let full = wisdom.to_json().to_string_pretty();
        let truncated = dir.join("truncated.json");
        std::fs::write(&truncated, &full[..full.len() / 2]).unwrap();
        assert_eq!(Wisdom::load(&truncated).1, WisdomStatus::Corrupt);

        let future = dir.join("future.json");
        std::fs::write(
            &future,
            "{\"format\": 999, \"fingerprint\": \"x\", \"entries\": []}",
        )
        .unwrap();
        assert_eq!(Wisdom::load(&future).1, WisdomStatus::FormatMismatch);

        let foreign = dir.join("foreign.json");
        let mut other = Wisdom::with_fingerprint("some-other-box-1t".to_string());
        other.insert(sample_entry(12, Version::FineGuided));
        other.save(&foreign).unwrap();
        let (loaded, status) = Wisdom::load(&foreign);
        assert_eq!(status, WisdomStatus::FingerprintMismatch);
        assert!(loaded.is_empty(), "foreign entries must be ignored");

        // Variants of this machine's certified document. Older formats
        // (their certificates predate the current workload revision) and
        // an entry without a backend or naming a retired one are refused;
        // the entry as files written while the SIMD backend still carried
        // a fusion radix spell it loads.
        let simd = "\"backend\": \"simd\"";
        assert!(full.contains("\"format\": 4") && full.contains(simd));
        let variants = [
            (
                full.replace("\"format\": 4", "\"format\": 2"),
                WisdomStatus::FormatMismatch,
            ),
            (
                full.replace("\"format\": 4", "\"format\": 3"),
                WisdomStatus::FormatMismatch,
            ),
            (full.replace(&format!("{simd},"), ""), WisdomStatus::Corrupt),
            (
                full.replace(simd, "\"backend\": \"threaded-simd\""),
                WisdomStatus::Corrupt,
            ),
            (
                full.replace(simd, &format!("{simd}, \"simd_radix_log2\": 2")),
                WisdomStatus::Loaded { entries: 1 },
            ),
        ];
        let variant = dir.join("variant.json");
        for (text, want) in variants {
            assert_ne!(text, full);
            std::fs::write(&variant, &text).unwrap();
            let (loaded, status) = Wisdom::load(&variant);
            assert_eq!(status, want, "{text}");
            if status.is_loaded() {
                assert_eq!(loaded, wisdom);
            }
        }

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_then_load_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("fgfft-wisdom-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wisdom.json");
        let mut wisdom = Wisdom::new();
        wisdom.insert(sample_entry(12, Version::FineGuided));
        wisdom.insert(sample_entry(15, Version::FineHash(SeedOrder::Natural)));
        wisdom.save(&path).unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        let (loaded, status) = Wisdom::load(&path);
        assert!(status.is_loaded());
        assert_eq!(loaded, wisdom);
        // Re-saving the loaded store reproduces the file byte for byte.
        loaded.save(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), first);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ill_fitting_tunings_load_as_invalid_not_panics() {
        let dir = std::env::temp_dir().join(format!("fgfft-wisdom-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        // Pool order of the wrong length for the plan: schema-valid JSON,
        // semantically invalid tuning — rejected wholesale at load, before
        // certificates are checked, without reaching plan construction.
        let text = format!(
            "{{\"format\": 4, \"fingerprint\": {:?}, \"entries\": [{{\
             \"n_log2\": 12, \"radix_log2\": 6, \"version\": \"fine-guided\", \
             \"layout\": \"linear\", \"pool_order\": [0, 1], \"last_early\": null, \
             \"backend\": \"scalar\", \"median_ns\": 1, \
             \"seed_median_ns\": 1}}]}}",
            machine_fingerprint()
        );
        std::fs::write(&path, text).unwrap();
        let (loaded, status) = Wisdom::load(&path);
        assert_eq!(status, WisdomStatus::Invalid);
        assert!(loaded.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncertified_entries_are_rejected_unless_trusted() {
        let dir = std::env::temp_dir().join(format!("fgfft-wisdom-nocert-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wisdom.json");
        let mut wisdom = Wisdom::new();
        let mut entry = sample_entry(12, Version::FineGuided);
        entry.cert = None;
        wisdom.insert(entry);
        wisdom.save(&path).unwrap();
        let (loaded, status) = Wisdom::load(&path);
        assert_eq!(status, WisdomStatus::Uncertified);
        assert!(loaded.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kind_entries_round_trip_and_load() {
        use crate::workload::TransformKind;
        let dir = std::env::temp_dir().join(format!("fgfft-wisdom-kind-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wisdom.json");
        let mut wisdom = Wisdom::new();
        for kind in [
            TransformKind::R2C,
            TransformKind::C2R,
            TransformKind::C2C2D {
                rows_log2: 5,
                cols_log2: 7,
            },
        ] {
            let key =
                PlanKey::with_kind(kind, 1 << 12, Version::FineGuided, TwiddleLayout::Linear, 6);
            let tuning = ScheduleTuning {
                pool_order: None,
                last_early: None,
                transpose_block_log2: matches!(kind, TransformKind::C2C2D { .. }).then_some(4),
            };
            let cert =
                Certificate::for_plan(&crate::planner::Plan::build_tuned(key, Some(&tuning)))
                    .unwrap();
            wisdom.insert(WisdomEntry {
                key,
                tuning,
                backend: BackendSel::SCALAR,
                median_ns: 111,
                seed_median_ns: 222,
                cert: Some(cert),
            });
        }
        wisdom.save(&path).unwrap();
        let (loaded, status) = Wisdom::load(&path);
        assert_eq!(status, WisdomStatus::Loaded { entries: 3 });
        assert_eq!(loaded, wisdom);
        let key2d = PlanKey::with_kind(
            TransformKind::C2C2D {
                rows_log2: 5,
                cols_log2: 7,
            },
            1 << 12,
            Version::FineGuided,
            TwiddleLayout::Linear,
            6,
        );
        assert_eq!(
            loaded.lookup(&key2d).unwrap().tuning.transpose_block_log2,
            Some(4)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_certificates_are_rejected_at_load() {
        let dir = std::env::temp_dir().join(format!("fgfft-wisdom-tamper-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wisdom.json");
        let mut wisdom = Wisdom::new();
        let mut entry = sample_entry(12, Version::FineGuided);
        // The certificate was issued for a different tuning than the entry
        // carries: the schedule digest no longer matches.
        entry.tuning.pool_order = Some((0..64).collect());
        wisdom.insert(entry);
        wisdom.save(&path).unwrap();
        let (loaded, status) = Wisdom::load(&path);
        assert_eq!(status, WisdomStatus::CertificateMismatch);
        assert!(loaded.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
