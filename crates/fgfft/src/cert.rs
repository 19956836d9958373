//! Schedule certificates: integrity evidence for tuned plans and wisdom.
//!
//! A [`crate::wisdom::Wisdom`] file is data that steers the `unsafe` hot
//! path: its tunings pick the pool order the planner materializes into the
//! flattened tables `Plan::execute` streams through without bounds checks.
//! PR 1's `fgcheck` proves a schedule sound *at tuning time*; this module
//! makes that proof portable — a compact [`Certificate`] the checker issues,
//! `fgtune` embeds in every wisdom entry, and the planner re-verifies before
//! trusting the entry, so stale, tampered, or foreign-revision wisdom is
//! rejected instead of silently steering unsafe code.
//!
//! What a certificate can and cannot promise:
//!
//! * **Drift** — the decomposition authority ([`crate::workload`]) changed
//!   since the certificate was issued. Caught by [`WORKLOAD_REVISION`] and
//!   by recomputing the schedule/table digests against the current code.
//! * **Corruption/tampering** — any certificate field or the tuning it
//!   covers was edited. Caught by the [`Certificate::seal`] self-digest and
//!   the recomputed digests.
//! * **Not authenticity** — digests are keyless (no secret material), so a
//!   certificate proves integrity against accident and drift, not against
//!   an adversary who can also recompute the digests. The wisdom trust
//!   model is "machine-local config file", not "untrusted network input".
//!
//! Verification is split by cost so each layer pays only what it needs:
//!
//! * [`Certificate::verify_static`] — seal + revision + schedule digest,
//!   `O(pool)` with no plan build. [`crate::wisdom::Wisdom::load`] runs
//!   this on every entry.
//! * [`Certificate::verify_plan`] — the above plus the table digest over a
//!   built [`Plan`]'s independent data (address generator parameters,
//!   twiddle shapes and the twiddle factor table — see [`table_digest`]
//!   for what is deliberately excluded and why). [`crate::planner::Planner`] runs this once per
//!   cold plan build (its cost against the build is tracked in
//!   EXPERIMENTS.md).

use crate::plan::FftPlan;
use crate::planner::{Plan, PlanKey, StageTwiddles};
use crate::twiddle::TwiddleLayout;
use crate::workload::{ScheduleTuning, TransformKind};
use fgsupport::json::Value;

/// Revision of the codelet decomposition authority ([`crate::workload`]).
///
/// Bump whenever the schedule or table *lowering* changes meaning — a new
/// address generator, a different twiddle-run order, a changed seed derivation —
/// so certificates issued against the old lowering are rejected as foreign
/// instead of vouching for tables they never saw.
///
/// Revision 2: transform kinds (R2C / C2R / 2-D) became part of the plan
/// identity — the schedule digest streams the kind and the transpose block
/// size, and the table digest covers the column plan and untangle table.
///
/// Revision 3: plans fire their schedule lowered onto tiles of consecutive
/// codelets ([`crate::tiles`]) instead of codelet by codelet, and the
/// happens-before witness now also covers that tile program. A revision-2
/// certificate vouches for a codelet-level dispatch that no longer runs.
///
/// Revision 4: twiddles are stored once per twiddle class and read through
/// a per-stage slot pattern instead of one expanded run per codelet; the
/// table digest covers the slot pattern and the class-run shapes. A
/// revision-3 certificate vouches for expanded runs that no longer exist.
///
/// Revision 5: the bit reversal is computed (`bitrev::bit_reverse_tiled`)
/// instead of applied from a stored swap list, and the table digest no
/// longer streams that list. A revision-4 certificate vouches for a table
/// the plan no longer holds.
///
/// Revision 6: element addresses are computed by each stage's generator
/// (`workload::StageAddressing`) instead of read from stored gather
/// tables, and the table digest covers the generator's parameters instead
/// of streaming the indices. A revision-5 certificate vouches for gather
/// tables the plan no longer holds.
///
/// Revision 7: a stage whose twiddles are unshared (the last of two or
/// more) stores no class runs; kernels read the base twiddle table at the
/// direct index (`workload::TwiddleIndex`), and the table digest covers
/// that generator's parameters and offset table in place of the stage's
/// class count and run length. A revision-6 certificate vouches for runs
/// the plan no longer holds.
///
/// Revision 8: plans store no butterfly pair or twiddle slot pattern;
/// kernels compute both from the stage's addressing
/// (`workload::StageAddressing::for_each_butterfly`), and the table digest
/// no longer folds them. A revision-7 certificate vouches for tables the
/// plan no longer holds.
pub const WORKLOAD_REVISION: u64 = 8;

/// Multi-lane FNV-style digest (keyless, dependency-free).
///
/// Eight independent xor-multiply lanes: a single serial FNV chain is
/// latency-bound (the next multiply waits on the last), which measured
/// ~25% of cold plan-build time when streaming a plan's multi-megabyte
/// tables. Scalar writes go to lane `count % 8`; the bulk slice writers
/// feed full 8-word blocks with a fixed word→lane mapping so the inner
/// loops unroll into eight independent register chains. The digest is
/// defined by the exact sequence of `write_*` calls (scalar and bulk
/// writes are **not** interchangeable byte-for-byte) — fine for a
/// checksum whose issuer and verifier run the same code. Each lane and
/// the total count feed a splitmix64-avalanched fold at the end, so
/// single-bit differences — in any lane, or in stream length — flip
/// about half the output bits.
#[derive(Debug, Clone, Copy)]
pub struct Digest {
    lanes: [u64; Self::LANES],
    count: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    const LANES: usize = 8;
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fresh digest with a domain `tag` so different digest kinds over the
    /// same bytes cannot collide.
    pub fn new_tagged(tag: u64) -> Self {
        let mut d = Self::new();
        d.write_u64(tag);
        d
    }

    /// Fresh untagged digest.
    pub fn new() -> Self {
        // Distinct lane offsets so a word sequence rotated by whole lanes
        // does not alias.
        let mut lanes = [0u64; Self::LANES];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = Self::OFFSET.wrapping_add((i as u64).wrapping_mul(Self::PRIME));
        }
        Self { lanes, count: 0 }
    }

    /// Fold one 64-bit word.
    #[inline]
    pub fn write_u64(&mut self, word: u64) {
        let lane = (self.count as usize) % Self::LANES;
        self.lanes[lane] = (self.lanes[lane] ^ word).wrapping_mul(Self::PRIME);
        self.count += 1;
    }

    /// Fold one `u32` (widened).
    #[inline]
    pub fn write_u32(&mut self, word: u32) {
        self.write_u64(word as u64);
    }

    /// Fold one `usize` (widened).
    #[inline]
    pub fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    /// Bulk fold: one packed word per item, 8 items per round, one per
    /// lane with a fixed item→lane mapping (independent of `count`). The
    /// lane state is hoisted into a local array for the whole slice so the
    /// loop compiles to eight independent xor-multiply register chains —
    /// the scalar path's per-word `count % 8` lane selection is what kept
    /// the serial-FNV latency wall in place.
    #[inline]
    fn write_bulk<T>(&mut self, items: &[T], pack: impl Fn(&T) -> u64) {
        let mut lanes = self.lanes;
        let mut rounds = items.chunks_exact(Self::LANES);
        for chunk in &mut rounds {
            let mut words = [0u64; Self::LANES];
            for (word, item) in words.iter_mut().zip(chunk) {
                *word = pack(item);
            }
            for (lane, word) in lanes.iter_mut().zip(words) {
                *lane = (*lane ^ word).wrapping_mul(Self::PRIME);
            }
        }
        self.lanes = lanes;
        self.count += (items.len() - rounds.remainder().len()) as u64;
        for item in rounds.remainder() {
            self.write_u64(pack(item));
        }
    }

    /// Fold a complex slice, one word per value: the odd-constant multiply
    /// keeps the real part injective, so no single-bit flip in either
    /// component can cancel against the other.
    pub fn write_complex_slice(&mut self, values: &[crate::complex::Complex64]) {
        self.write_bulk(values, |w| {
            w.re.to_bits().wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ w.im.to_bits()
        });
    }

    /// Finish: fold the lanes and count through a splitmix64 avalanche.
    pub fn finish(&self) -> u64 {
        let mix = |mut z: u64| {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut out = mix(self.count);
        for &lane in &self.lanes {
            out = mix(out ^ lane);
        }
        out
    }
}

/// Why a certificate was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum CertError {
    /// The seal digest does not cover the certificate's own fields — some
    /// field was edited after issue.
    Tampered,
    /// Issued against a different [`WORKLOAD_REVISION`] — the decomposition
    /// authority changed since; the evidence is about tables that no longer
    /// exist.
    ForeignRevision {
        /// Revision recorded in the certificate.
        found: u64,
        /// Revision of the running code.
        expected: u64,
    },
    /// The schedule digest does not match the (key, tuning) pair the entry
    /// claims to certify — the tuning was swapped or edited under the
    /// certificate.
    ScheduleMismatch,
    /// The table digest does not match the tables the current code builds
    /// for that (key, tuning) — lowering drift or a corrupted plan.
    TableMismatch,
    /// The tuning itself does not fit the plan (not a certificate failure,
    /// but verification must refuse to digest an ill-formed tuning).
    InvalidTuning(String),
}

impl std::fmt::Display for CertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertError::Tampered => write!(f, "certificate seal mismatch (field edited)"),
            CertError::ForeignRevision { found, expected } => write!(
                f,
                "certificate is for workload revision {found}, this build is {expected}"
            ),
            CertError::ScheduleMismatch => {
                write!(f, "schedule digest mismatch (tuning edited or swapped)")
            }
            CertError::TableMismatch => {
                write!(f, "table digest mismatch (lowering drift or corruption)")
            }
            CertError::InvalidTuning(why) => write!(f, "invalid tuning: {why}"),
        }
    }
}

/// Digest of the schedule a `(key, tuning)` pair selects: the plan identity
/// plus every tuning-controlled degree of freedom (pool permutation, guided
/// split), normalized so an identity tuning and `None` digest equally.
///
/// The *graph* the schedule runs over is fixed by `(n_log2, radix_log2,
/// version)` and the workload revision; its soundness is pass 1–3's job
/// (witnessed in [`Certificate::hb_witness`]), so the digest only has to
/// pin the inputs a wisdom file can actually vary. `O(pool)`, no plan
/// build, no graph materialization.
pub fn schedule_digest(key: PlanKey, tuning: Option<&ScheduleTuning>) -> Result<u64, CertError> {
    // Composite kinds lower to an inner complex FFT of the kind's inner
    // size; the tuning-controlled pool/split apply to that inner plan.
    let inner_log2 = key.kind.inner_n_log2(key.n_log2);
    let fft = FftPlan::new(inner_log2, key.radix_log2.min(inner_log2));
    if let Some(t) = tuning {
        t.validate(&fft).map_err(CertError::InvalidTuning)?;
    }
    let mut d = Digest::new_tagged(0x5348_4544); // "SHED"
    d.write_u32(key.n_log2);
    d.write_u32(key.radix_log2);
    write_version(&mut d, key.version);
    d.write_u64(layout_tag(key.layout));
    write_kind(&mut d, key.kind);
    match tuning.and_then(|t| t.transpose_block_log2) {
        Some(block) => {
            d.write_u64(1);
            d.write_u32(block);
        }
        None => d.write_u64(0),
    }
    d.write_usize(fft.stages());
    d.write_usize(fft.codelets_per_stage());
    match tuning.and_then(|t| t.pool_order.as_ref()) {
        Some(order) => {
            d.write_u64(1);
            for &idx in order {
                d.write_usize(idx);
            }
        }
        None => d.write_u64(0),
    }
    match tuning.and_then(|t| t.last_early) {
        Some(split) => {
            d.write_u64(1);
            d.write_usize(split);
        }
        None => d.write_u64(0),
    }
    Ok(d.finish())
}

/// Digest of the *independent* data behind a built plan's execution
/// tables: per stage the address generator's parameters (which also fix
/// the butterfly pattern and each butterfly's run position) and either
/// the class-run shape (class count and run length) or, for an unshared
/// stage, the direct
/// twiddle index generator's parameters and offset table; and the twiddle
/// factor table (in stored slot order, so it is layout-sensitive). Element addresses and the bit
/// reversal are computed, not stored, so there is no index table to
/// digest: the parameters pin which generator runs, and `fgcheck`'s
/// FG401/FG404/FG406 and FG407 prove the generators themselves.
///
/// The class-run *values* are deliberately not streamed: each is a bitwise
/// copy of a twiddle-table entry digested here, at a position fixed by the
/// class algebra (`workload::append_class_run`), so streaming them would
/// only add cost; and copy, class-map or index drift is exactly what pass
/// 4's FG405 check covers — every codelet's run, stored or read from the
/// base table, bitwise against the workload authority — at certification
/// time and in the CI `fgcheck --all` sweep. Everything the `unsafe` hot
/// path's *safety* rests on — the generator that fixes address bounds and
/// disjointness, class bounds, the offset table's length — is covered
/// byte-for-byte; a direct twiddle index is masked into the table, in
/// bounds by construction.
pub fn table_digest(plan: &Plan) -> u64 {
    let fft = plan.fft_plan();
    let mut d = Digest::new_tagged(0x5441_424c); // "TABL"
    let stages = fft.stages();
    d.write_usize(stages);
    for stage in 0..stages {
        let table = plan.stage_tables(stage);
        let addr = table.addressing;
        d.write_u32(addr.stride_log2);
        d.write_u32(addr.levels);
        d.write_u32(addr.groups_log2);
        match table.twiddles {
            StageTwiddles::Classes { classes, runs } => {
                d.write_usize(classes);
                d.write_usize(runs.len());
            }
            StageTwiddles::Base { index, offsets, .. } => {
                // A class count of 0 cannot be a shared stage's.
                d.write_usize(0);
                d.write_u32(index.n_log2);
                d.write_u32(index.stride_log2);
                d.write_usize(offsets.len());
                d.write_bulk(offsets, |&o| u64::from(o));
            }
        }
    }
    d.write_usize(plan.twiddles().len());
    d.write_complex_slice(plan.twiddles().values());
    // Kind extensions: the untangle twiddle table of a real plan is hot-path
    // data exactly like the main twiddle table, so it is covered bitwise;
    // a 2-D plan folds in its column plan's full table digest recursively.
    match plan.untangle() {
        Some(table) => {
            d.write_u64(1);
            d.write_usize(table.len());
            d.write_complex_slice(table);
        }
        None => d.write_u64(0),
    }
    match plan.transpose_block_log2() {
        Some(block) => {
            d.write_u64(1);
            d.write_u32(block);
        }
        None => d.write_u64(0),
    }
    match plan.col_plan() {
        Some(col) => {
            d.write_u64(1);
            d.write_u64(table_digest(col));
        }
        None => d.write_u64(0),
    }
    d.finish()
}

fn write_version(d: &mut Digest, version: crate::exec::Version) {
    use crate::exec::{SeedOrder, Version};
    let order_tag = |o: SeedOrder| match o {
        SeedOrder::Natural => (0u64, 0u64),
        SeedOrder::Reversed => (1, 0),
        SeedOrder::EvenOdd => (2, 0),
        SeedOrder::Random(seed) => (3, seed),
    };
    let (tag, a, b) = match version {
        Version::Coarse => (0u64, 0, 0),
        Version::CoarseHash => (1, 0, 0),
        Version::Fine(o) => {
            let (x, y) = order_tag(o);
            (2, x, y)
        }
        Version::FineHash(o) => {
            let (x, y) = order_tag(o);
            (3, x, y)
        }
        Version::FineGuided => (4, 0, 0),
    };
    d.write_u64(tag);
    d.write_u64(a);
    d.write_u64(b);
}

fn write_kind(d: &mut Digest, kind: TransformKind) {
    match kind {
        TransformKind::C2C => d.write_u64(0),
        TransformKind::R2C => d.write_u64(1),
        TransformKind::C2R => d.write_u64(2),
        TransformKind::C2C2D {
            rows_log2,
            cols_log2,
        } => {
            d.write_u64(3);
            d.write_u32(rows_log2);
            d.write_u32(cols_log2);
        }
    }
}

fn layout_tag(layout: TwiddleLayout) -> u64 {
    match layout {
        TwiddleLayout::Linear => 0,
        TwiddleLayout::BitReversedHash => 1,
        TwiddleLayout::MultiplicativeHash => 2,
    }
}

/// Compact, serializable evidence that a tuned schedule was statically
/// verified against the lowering the current code performs.
///
/// Issued by `fgcheck`'s `certify` (which runs all four static passes and
/// refuses to issue over any error) or, for structural-only needs (tests,
/// programmatic wisdom), by [`Certificate::for_plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Certificate {
    /// [`WORKLOAD_REVISION`] of the issuing build.
    pub workload_rev: u64,
    /// [`schedule_digest`] of the certified `(key, tuning)`.
    pub schedule: u64,
    /// [`table_digest`] of the plan built from that pair.
    pub tables: u64,
    /// Witness of the happens-before covers fgcheck computed (digest of the
    /// per-task level assignment of the codelet schedule and of the per-tile
    /// levels of its host lowering): opaque here, re-derivable only by
    /// re-running pass 2 — which the CI `fgcheck --all` sweep does. Zero
    /// for structural certificates issued without the static passes.
    pub hb_witness: u64,
    /// Worst static per-level bank peak/mean ratio fgcheck observed, in
    /// thousandths (pass 3's FG301 bound). Zero for structural
    /// certificates.
    pub bank_bound_milli: u64,
    /// Self-digest over every field above: any post-issue edit (including
    /// to the witness or the bound) fails [`Certificate::verify_static`]
    /// with [`CertError::Tampered`].
    pub seal: u64,
}

impl Certificate {
    /// Assemble and seal a certificate from already-computed digests (the
    /// issuing checker's entry point).
    pub fn new(schedule: u64, tables: u64, hb_witness: u64, bank_bound_milli: u64) -> Self {
        let mut cert = Self {
            workload_rev: WORKLOAD_REVISION,
            schedule,
            tables,
            hb_witness,
            bank_bound_milli,
            seal: 0,
        };
        cert.seal = cert.compute_seal();
        cert
    }

    /// Structural certificate for a built plan: digests only, no pass-1–3
    /// evidence (`hb_witness`/`bank_bound_milli` zero). Sufficient for the
    /// planner's integrity checks; `fgcheck`'s `certify` issues the full
    /// version.
    pub fn for_plan(plan: &Plan) -> Result<Self, CertError> {
        let schedule = schedule_digest(plan.key(), plan.tuning())?;
        Ok(Self::new(schedule, table_digest(plan), 0, 0))
    }

    fn compute_seal(&self) -> u64 {
        let mut d = Digest::new_tagged(0x5345_414c); // "SEAL"
        d.write_u64(self.workload_rev);
        d.write_u64(self.schedule);
        d.write_u64(self.tables);
        d.write_u64(self.hb_witness);
        d.write_u64(self.bank_bound_milli);
        d.finish()
    }

    /// Cheap checks that need no plan build: seal, workload revision, and
    /// the schedule digest against `(key, tuning)`. `O(pool)`.
    pub fn verify_static(
        &self,
        key: PlanKey,
        tuning: Option<&ScheduleTuning>,
    ) -> Result<(), CertError> {
        if self.seal != self.compute_seal() {
            return Err(CertError::Tampered);
        }
        if self.workload_rev != WORKLOAD_REVISION {
            return Err(CertError::ForeignRevision {
                found: self.workload_rev,
                expected: WORKLOAD_REVISION,
            });
        }
        if schedule_digest(key, tuning)? != self.schedule {
            return Err(CertError::ScheduleMismatch);
        }
        Ok(())
    }

    /// Full verification against a built plan: [`Certificate::verify_static`]
    /// plus [`table_digest`] over the plan's independent table data — the
    /// planner runs this once per cold tuned build.
    pub fn verify_plan(&self, plan: &Plan) -> Result<(), CertError> {
        self.verify_static(plan.key(), plan.tuning())?;
        if table_digest(plan) != self.tables {
            return Err(CertError::TableMismatch);
        }
        Ok(())
    }

    /// JSON form for the wisdom file. Digests are hex strings: the hand-
    /// rolled JSON layer stores numbers as `f64`, which cannot hold a full
    /// `u64` digest exactly.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("workload_rev", Value::Num(self.workload_rev as f64)),
            ("schedule", Value::Str(format!("{:016x}", self.schedule))),
            ("tables", Value::Str(format!("{:016x}", self.tables))),
            (
                "hb_witness",
                Value::Str(format!("{:016x}", self.hb_witness)),
            ),
            ("bank_bound_milli", Value::Num(self.bank_bound_milli as f64)),
            ("seal", Value::Str(format!("{:016x}", self.seal))),
        ])
    }

    /// Inverse of [`Certificate::to_json`]. Errors name the first schema
    /// violation; a parsed certificate is *not* yet verified.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let hex = |field: &str| -> Result<u64, String> {
            let s = value
                .get(field)
                .and_then(Value::as_str)
                .ok_or(format!("missing cert {field}"))?;
            u64::from_str_radix(s, 16).map_err(|_| format!("bad cert {field} {s:?}"))
        };
        Ok(Self {
            workload_rev: value
                .get("workload_rev")
                .and_then(Value::as_u64)
                .ok_or("missing cert workload_rev")?,
            schedule: hex("schedule")?,
            tables: hex("tables")?,
            hb_witness: hex("hb_witness")?,
            bank_bound_milli: value
                .get("bank_bound_milli")
                .and_then(Value::as_u64)
                .ok_or("missing cert bank_bound_milli")?,
            seal: hex("seal")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{SeedOrder, Version};
    use fgsupport::json;

    fn sample_plan() -> Plan {
        let key = PlanKey::new(
            1 << 10,
            Version::Fine(SeedOrder::Natural),
            TwiddleLayout::Linear,
        );
        let tuning = ScheduleTuning {
            pool_order: Some((0..16).rev().collect()),
            last_early: None,
            transpose_block_log2: None,
        };
        Plan::build_tuned(key, Some(&tuning))
    }

    #[test]
    fn structural_certificate_round_trips_and_verifies() {
        let plan = sample_plan();
        let cert = Certificate::for_plan(&plan).unwrap();
        cert.verify_plan(&plan).unwrap();
        let text = cert.to_json().to_string_pretty();
        let back = Certificate::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, cert);
        back.verify_plan(&plan).unwrap();
    }

    #[test]
    fn certificates_cover_tables_for_all_backends() {
        // A backend never builds tables of its own — `prepare` binds the
        // same Arc'd plan — so one certificate over the plan covers its
        // prepared form under every backend. Pin that: the plan reachable
        // through each PreparedPlan verifies against the one certificate.
        let plan = std::sync::Arc::new(sample_plan());
        let cert = Certificate::for_plan(&plan).unwrap();
        for sel in [
            crate::backend::BackendSel::SCALAR,
            crate::backend::BackendSel::SIMD,
        ] {
            let prepared = sel.build().prepare(&plan);
            cert.verify_plan(prepared.plan())
                .unwrap_or_else(|e| panic!("{sel}: {e:?}"));
            assert!(
                std::sync::Arc::ptr_eq(prepared.plan(), &plan),
                "{sel}: prepare must bind the certified plan, not re-lower it"
            );
        }
    }

    #[test]
    fn every_field_edit_is_detected() {
        let plan = sample_plan();
        let cert = Certificate::for_plan(&plan).unwrap();
        for (name, edited) in [
            (
                "workload_rev",
                Certificate {
                    workload_rev: cert.workload_rev + 1,
                    ..cert
                },
            ),
            (
                "schedule",
                Certificate {
                    schedule: cert.schedule ^ 1,
                    ..cert
                },
            ),
            (
                "tables",
                Certificate {
                    tables: cert.tables ^ 1,
                    ..cert
                },
            ),
            (
                "hb_witness",
                Certificate {
                    hb_witness: cert.hb_witness ^ 1,
                    ..cert
                },
            ),
            (
                "bank_bound_milli",
                Certificate {
                    bank_bound_milli: cert.bank_bound_milli + 1,
                    ..cert
                },
            ),
            (
                "seal",
                Certificate {
                    seal: cert.seal ^ 1,
                    ..cert
                },
            ),
        ] {
            assert_eq!(
                edited.verify_plan(&plan),
                Err(CertError::Tampered),
                "edited {name} must break the seal"
            );
        }
    }

    #[test]
    fn foreign_revision_and_swapped_tuning_are_rejected() {
        let plan = sample_plan();
        let cert = Certificate::for_plan(&plan).unwrap();
        // Re-seal with a foreign revision: the seal passes, revision fails.
        let mut foreign = cert;
        foreign.workload_rev = WORKLOAD_REVISION + 7;
        foreign.seal = foreign.compute_seal();
        assert!(matches!(
            foreign.verify_plan(&plan),
            Err(CertError::ForeignRevision { .. })
        ));
        // Same key, different tuning: schedule digest must differ.
        let other = Plan::build_tuned(plan.key(), None);
        assert_eq!(cert.verify_plan(&other), Err(CertError::ScheduleMismatch));
    }

    #[test]
    fn schedule_digest_normalizes_identity_tuning() {
        let key = PlanKey::new(1 << 9, Version::FineGuided, TwiddleLayout::BitReversedHash);
        let identity = ScheduleTuning::identity();
        assert_eq!(
            schedule_digest(key, None).unwrap(),
            schedule_digest(key, Some(&identity)).unwrap()
        );
        let tuned = ScheduleTuning {
            pool_order: Some((0..8).rev().collect()),
            last_early: None,
            transpose_block_log2: None,
        };
        assert_ne!(
            schedule_digest(key, None).unwrap(),
            schedule_digest(key, Some(&tuned)).unwrap()
        );
    }

    #[test]
    fn kind_plans_carry_distinct_verifiable_certificates() {
        let n = 1 << 8;
        let keys = [
            PlanKey::with_kind(
                TransformKind::R2C,
                n,
                Version::FineGuided,
                TwiddleLayout::Linear,
                6,
            ),
            PlanKey::with_kind(
                TransformKind::C2R,
                n,
                Version::FineGuided,
                TwiddleLayout::Linear,
                6,
            ),
            PlanKey::with_kind(
                TransformKind::C2C2D {
                    rows_log2: 4,
                    cols_log2: 4,
                },
                n,
                Version::FineGuided,
                TwiddleLayout::Linear,
                6,
            ),
        ];
        let mut seen = std::collections::HashSet::new();
        for key in keys {
            let plan = Plan::build(key);
            let cert = Certificate::for_plan(&plan).unwrap();
            cert.verify_plan(&plan).unwrap();
            // R2C and C2R build byte-identical tables (same inner plan and
            // untangle values) — the *schedule* digest is what separates
            // kinds, so that is what must be collision-free.
            assert!(
                seen.insert(cert.schedule),
                "{:?} schedule digest collides",
                key.kind
            );
        }
        let c2c = Plan::build(PlanKey::new(n, Version::FineGuided, TwiddleLayout::Linear));
        let base = Certificate::for_plan(&c2c).unwrap();
        assert!(
            seen.insert(base.schedule),
            "C2C digest must differ from every composite kind"
        );
    }

    #[test]
    fn transpose_block_tuning_changes_schedule_digest() {
        let key = PlanKey::with_kind(
            TransformKind::C2C2D {
                rows_log2: 5,
                cols_log2: 5,
            },
            1 << 10,
            Version::FineGuided,
            TwiddleLayout::Linear,
            6,
        );
        let tuned = ScheduleTuning {
            pool_order: None,
            last_early: None,
            transpose_block_log2: Some(3),
        };
        assert_ne!(
            schedule_digest(key, None).unwrap(),
            schedule_digest(key, Some(&tuned)).unwrap(),
            "transpose block size is a certified degree of freedom"
        );
    }

    #[test]
    fn invalid_tuning_is_an_error_not_a_panic() {
        let key = PlanKey::new(1 << 10, Version::FineGuided, TwiddleLayout::Linear);
        let bad = ScheduleTuning {
            pool_order: Some(vec![0, 1, 2]), // wrong length for cps = 16
            last_early: None,
            transpose_block_log2: None,
        };
        assert!(matches!(
            schedule_digest(key, Some(&bad)),
            Err(CertError::InvalidTuning(_))
        ));
    }
}
