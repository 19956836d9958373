//! Randomized schedule fuzzing for fgcheck pass 4 and the certificate
//! layer: mutated flattened tables and certificates (bit flips,
//! truncations, off-by-one indices) must every one be rejected with a
//! specific FG code or `CertError` — never undefined behavior, never a
//! panic — while unmodified plans pass across 5 versions × 2 layouts (no
//! false positives).

use fgcheck::{check_plan, check_plan_tables};
use fgfft::cert::{CertError, Certificate};
use fgfft::exec::{SeedOrder, Version};
use fgfft::planner::{PlanKey, StageTableView};
use fgfft::wisdom::{Wisdom, WisdomEntry, WisdomStatus};
use fgfft::{Complex64, Plan, ScheduleTuning, TwiddleLayout};
use fgsupport::rng::Rng64;

const VERSIONS: [Version; 5] = [
    Version::Coarse,
    Version::CoarseHash,
    Version::Fine(SeedOrder::Natural),
    Version::FineHash(SeedOrder::Natural),
    Version::FineGuided,
];

const LAYOUTS: [TwiddleLayout; 2] = [TwiddleLayout::Linear, TwiddleLayout::MultiplicativeHash];

fn tuned_plan(n_log2: u32, version: Version, layout: TwiddleLayout, rng: &mut Rng64) -> Plan {
    let cps = 1usize << (n_log2 - 6);
    // A random (valid) pool permutation: Fisher–Yates.
    let mut order: Vec<usize> = (0..cps).collect();
    for i in (1..cps).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    let tuning = ScheduleTuning {
        pool_order: Some(order),
        last_early: None,
        transpose_block_log2: None,
    };
    Plan::build_tuned(PlanKey::new(1 << n_log2, version, layout), Some(&tuning))
}

/// Every unmodified plan — all versions, both layouts, random tunings —
/// passes pass 4 and verifies its own certificate: zero false positives.
#[test]
fn unmutated_plans_have_no_false_positives() {
    let mut rng = Rng64::seed_from_u64(0xFACE);
    for &version in &VERSIONS {
        for &layout in &LAYOUTS {
            let plan = tuned_plan(9, version, layout, &mut rng);
            let diags = check_plan(&plan);
            assert!(diags.is_empty(), "{version:?}/{layout:?}: {diags:?}");
            let cert = Certificate::for_plan(&plan).expect("tuning valid");
            cert.verify_plan(&plan)
                .unwrap_or_else(|e| panic!("{version:?}/{layout:?}: {e}"));
        }
    }
}

/// One stage's tables, owned.
struct OwnedStage {
    gather: Vec<u32>,
    pairs: Vec<(u32, u32)>,
    slots: Vec<u8>,
    classes: usize,
    twiddles: Vec<Complex64>,
}

/// Owned, mutable copy of a plan's tables that can be lent back to the
/// checker as `StageTableView`s.
struct OwnedTables {
    stages: Vec<OwnedStage>,
    swaps: Vec<(u32, u32)>,
}

impl OwnedTables {
    fn of(plan: &Plan) -> Self {
        let stages = (0..plan.fft_plan().stages())
            .map(|s| {
                let t = plan.stage_table(s);
                OwnedStage {
                    gather: t.gather.to_vec(),
                    pairs: t.pairs.to_vec(),
                    slots: t.slots.to_vec(),
                    classes: t.classes,
                    twiddles: t.twiddles.to_vec(),
                }
            })
            .collect();
        Self {
            stages,
            swaps: plan.bitrev_swaps().to_vec(),
        }
    }

    fn check(&self, plan: &Plan) -> Vec<codelet::verify::Diagnostic> {
        let views: Vec<StageTableView<'_>> = self
            .stages
            .iter()
            .map(|t| StageTableView {
                gather: &t.gather,
                pairs: &t.pairs,
                slots: &t.slots,
                classes: t.classes,
                twiddles: &t.twiddles,
            })
            .collect();
        check_plan_tables(plan.fft_plan(), plan.twiddles(), &views, &self.swaps)
    }

    /// Apply one random mutation; returns a label for failure messages.
    fn mutate(&mut self, rng: &mut Rng64) -> String {
        let stage = rng.gen_range(0..self.stages.len());
        let OwnedStage {
            gather,
            pairs,
            slots,
            classes,
            twiddles,
        } = &mut self.stages[stage];
        match rng.gen_below(10) {
            0 => {
                // Bit flip in a gather index.
                let i = rng.gen_range(0..gather.len());
                let bit = rng.gen_below(16) as u32;
                gather[i] ^= 1 << bit;
                format!("stage {stage}: gather[{i}] ^= 1<<{bit}")
            }
            1 => {
                // Off-by-one gather index.
                let i = rng.gen_range(0..gather.len());
                gather[i] = gather[i].wrapping_add(1);
                format!("stage {stage}: gather[{i}] += 1")
            }
            2 => {
                // Duplicate another codelet's element: aliasing.
                let i = rng.gen_range(0..gather.len());
                let j = rng.gen_range(0..gather.len());
                if gather[i] == gather[j] {
                    gather[i] = gather[j].wrapping_add(1); // still a change
                } else {
                    gather[i] = gather[j];
                }
                format!("stage {stage}: gather[{i}] = gather[{j}]")
            }
            3 => {
                // Truncate the gather table.
                gather.pop();
                format!("stage {stage}: gather truncated")
            }
            4 => {
                // Corrupt a butterfly pair.
                let i = rng.gen_range(0..pairs.len());
                if rng.gen_bool() {
                    pairs[i].1 = pairs[i].0; // degenerate lo == hi
                } else {
                    pairs[i].1 += 64; // out of the codelet buffer
                }
                format!("stage {stage}: pair[{i}] corrupted")
            }
            5 => {
                // Flip one mantissa bit of a class-run value.
                let i = rng.gen_range(0..twiddles.len());
                let re = twiddles[i].re.to_bits() ^ (1 << rng.gen_below(52));
                twiddles[i].re = f64::from_bits(re);
                format!("stage {stage}: twiddle[{i}] bit-flipped")
            }
            6 => {
                // Truncate the class runs.
                twiddles.pop();
                format!("stage {stage}: twiddles truncated")
            }
            7 => {
                // Point a butterfly at another run position (or past it).
                let i = rng.gen_range(0..slots.len());
                slots[i] = slots[i].wrapping_add(1 + rng.gen_below(200) as u8);
                format!("stage {stage}: slot[{i}] moved")
            }
            8 => {
                // Class count off by one.
                if rng.gen_bool() || *classes == 0 {
                    *classes += 1;
                } else {
                    *classes -= 1;
                }
                format!("stage {stage}: classes = {classes}")
            }
            _ => {
                // Corrupt the bit-reversal swap list.
                if rng.gen_bool() && !self.swaps.is_empty() {
                    let i = rng.gen_range(0..self.swaps.len());
                    self.swaps[i].1 = self.swaps[i].1.wrapping_add(1);
                    format!("swaps[{i}] += 1")
                } else {
                    self.swaps.push((0, 1));
                    "swaps: spurious entry appended".to_string()
                }
            }
        }
    }
}

/// Every randomly mutated table draws at least one FG4xx error — across
/// all five versions and both layouts, many mutations each — and the
/// checker never panics on corrupted input.
#[test]
fn every_mutated_table_is_rejected() {
    let mut rng = Rng64::seed_from_u64(0xBAD_5EED);
    for &version in &VERSIONS {
        for &layout in &LAYOUTS {
            let plan = tuned_plan(8, version, layout, &mut rng);
            for round in 0..20 {
                let mut tables = OwnedTables::of(&plan);
                let label = tables.mutate(&mut rng);
                let diags = tables.check(&plan);
                assert!(
                    diags.iter().any(|d| d.code.starts_with("FG4")),
                    "{version:?}/{layout:?} round {round}: mutant not rejected ({label}): \
                     {diags:?}"
                );
            }
        }
    }
}

/// Certificates with random single-bit corruption in any field are
/// rejected — with `Tampered` unless the flip lands in a re-sealed field —
/// and multi-field forgeries still fail the digest checks.
#[test]
fn every_mutated_certificate_is_rejected() {
    let mut rng = Rng64::seed_from_u64(0xC0FFEE);
    let plan = tuned_plan(9, Version::FineGuided, TwiddleLayout::Linear, &mut rng);
    let cert = Certificate::for_plan(&plan).expect("tuning valid");
    for round in 0..64 {
        let mut bad = cert;
        let bit = 1u64 << rng.gen_below(64);
        match rng.gen_below(6) {
            0 => bad.workload_rev ^= bit,
            1 => bad.schedule ^= bit,
            2 => bad.tables ^= bit,
            3 => bad.hb_witness ^= bit,
            4 => bad.bank_bound_milli ^= bit,
            _ => bad.seal ^= bit,
        }
        let err = bad
            .verify_plan(&plan)
            .expect_err(&format!("round {round}: corrupted cert accepted"));
        assert!(
            matches!(
                err,
                CertError::Tampered
                    | CertError::ForeignRevision { .. }
                    | CertError::ScheduleMismatch
                    | CertError::TableMismatch
            ),
            "round {round}: unexpected error {err:?}"
        );
    }
    // A forged certificate (consistent seal over wrong digests) still fails
    // on the digests themselves.
    let mut forged = cert;
    forged.schedule ^= 0xDEAD;
    forged.tables ^= 0xBEEF;
    forged = Certificate::new(
        forged.schedule,
        forged.tables,
        forged.hb_witness,
        forged.bank_bound_milli,
    );
    assert_eq!(forged.verify_plan(&plan), Err(CertError::ScheduleMismatch));
}

/// Wisdom-file-level fuzzing: byte-level corruption of a saved, certified
/// wisdom file never loads as `Loaded` with different content and never
/// panics — every outcome is a specific `WisdomStatus`.
#[test]
fn corrupted_wisdom_files_never_load_silently() {
    let dir = std::env::temp_dir().join(format!("fgfft-certfuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("wisdom.json");

    let key = PlanKey::new(1 << 9, Version::FineGuided, TwiddleLayout::Linear);
    let tuning = ScheduleTuning {
        pool_order: Some((0..8).rev().collect()),
        last_early: None,
        transpose_block_log2: None,
    };
    let cert = Certificate::for_plan(&Plan::build_tuned(key, Some(&tuning))).unwrap();
    let mut wisdom = Wisdom::new();
    wisdom.insert(WisdomEntry {
        key,
        tuning,
        workers: 2,
        batch: 4,
        backend: Default::default(),
        median_ns: 10,
        seed_median_ns: 20,
        cert: Some(cert),
    });
    wisdom.save(&path).expect("save");
    let pristine = std::fs::read_to_string(&path).expect("read back");
    assert!(Wisdom::load(&path).1.is_loaded(), "pristine file loads");

    let mut rng = Rng64::seed_from_u64(7);
    let mut rejected = 0usize;
    for _ in 0..60 {
        let mut bytes = pristine.clone().into_bytes();
        match rng.gen_below(3) {
            0 => {
                // Flip one character.
                let i = rng.gen_range(0..bytes.len());
                bytes[i] = bytes[i].wrapping_add(1 + rng.gen_below(9) as u8);
            }
            1 => {
                // Truncate.
                bytes.truncate(rng.gen_range(0..bytes.len()));
            }
            _ => {
                // Digit nudge somewhere (hits lengths, indices, digests).
                if let Some(i) = (0..bytes.len())
                    .map(|_| rng.gen_range(0..bytes.len()))
                    .find(|&i| bytes[i].is_ascii_digit())
                {
                    bytes[i] = b'0' + ((bytes[i] - b'0' + 1) % 10);
                }
            }
        }
        std::fs::write(&path, &bytes).expect("write mutant");
        let (loaded, status) = Wisdom::load(&path);
        match status {
            WisdomStatus::Loaded { .. } => {
                // Mutation must have been semantically neutral (e.g. inside
                // an ignored digit of a measurement): content equal is the
                // only acceptable way to still load... but digests make
                // near-all content non-neutral. Accept only exact re-parse
                // of an equivalent store.
                assert_eq!(loaded.entries().len(), 1);
                assert!(
                    loaded.entries()[0]
                        .cert
                        .as_ref()
                        .expect("certified")
                        .verify_static(loaded.entries()[0].key, Some(&loaded.entries()[0].tuning))
                        .is_ok(),
                    "a loaded mutant must still verify"
                );
            }
            _ => rejected += 1,
        }
    }
    assert!(
        rejected > 30,
        "fuzzing should reject most mutants, rejected only {rejected}/60"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The composite kinds through the same gauntlet, clean side: every
/// unmodified r2c/c2r/2D plan — all versions, both layouts — passes pass 4
/// plus the FG409 kind extension and verifies its own certificate.
#[test]
fn unmutated_composite_plans_have_no_false_positives() {
    use fgfft::workload::TransformKind;
    let kinds = [
        TransformKind::R2C,
        TransformKind::C2R,
        TransformKind::C2C2D {
            rows_log2: 4,
            cols_log2: 5,
        },
    ];
    for kind in kinds {
        for &version in &VERSIONS {
            for &layout in &LAYOUTS {
                let plan = Plan::build(PlanKey::with_kind(kind, 1 << 9, version, layout, 6));
                let mut diags = check_plan(&plan);
                diags.extend(fgcheck::check_kind_extensions(&plan));
                assert!(
                    diags.is_empty(),
                    "{kind:?}/{version:?}/{layout:?}: {diags:?}"
                );
                let cert = Certificate::for_plan(&plan).expect("untuned plan");
                cert.verify_plan(&plan)
                    .unwrap_or_else(|e| panic!("{kind:?}/{version:?}/{layout:?}: {e}"));
            }
        }
    }
}

/// A certificate sealed for one transform kind never verifies another
/// kind's plan of the same size/version/layout: the schedule digest binds
/// the kind (and the transpose tiling), so kind confusion is caught before
/// any table comparison — r2c vs c2r included, whose table digests collide
/// by design.
#[test]
fn composite_certificates_do_not_transfer_across_kinds() {
    use fgfft::workload::TransformKind;
    let version = Version::CoarseHash;
    let layout = TwiddleLayout::Linear;
    let kinds = [
        TransformKind::C2C,
        TransformKind::R2C,
        TransformKind::C2R,
        TransformKind::C2C2D {
            rows_log2: 4,
            cols_log2: 5,
        },
        TransformKind::C2C2D {
            rows_log2: 5,
            cols_log2: 4,
        },
    ];
    let plans: Vec<Plan> = kinds
        .iter()
        .map(|&kind| Plan::build(PlanKey::with_kind(kind, 1 << 9, version, layout, 6)))
        .collect();
    let certs: Vec<Certificate> = plans
        .iter()
        .map(|p| Certificate::for_plan(p).expect("clean plan"))
        .collect();
    for (i, cert) in certs.iter().enumerate() {
        for (j, plan) in plans.iter().enumerate() {
            if i == j {
                cert.verify_plan(plan).expect("own plan verifies");
            } else {
                assert_eq!(
                    cert.verify_plan(plan),
                    Err(CertError::ScheduleMismatch),
                    "cert of {:?} accepted by plan of {:?}",
                    kinds[i],
                    kinds[j]
                );
            }
        }
    }

    // A tuned transpose tiling re-seals the 2D schedule: the default-block
    // certificate must not verify the retiled plan.
    let key2d = PlanKey::with_kind(
        TransformKind::C2C2D {
            rows_log2: 4,
            cols_log2: 5,
        },
        1 << 9,
        version,
        layout,
        6,
    );
    let tuning = ScheduleTuning {
        pool_order: None,
        last_early: None,
        transpose_block_log2: Some(3),
    };
    let retiled = Plan::build_tuned(key2d, Some(&tuning));
    let cert = Certificate::for_plan(&retiled).expect("tuned 2D plan");
    cert.verify_plan(&retiled).expect("own plan verifies");
    assert_eq!(
        certs[3].verify_plan(&retiled),
        Err(CertError::ScheduleMismatch),
        "default-block certificate accepted a retiled plan"
    );
}

/// The 64-round certificate bit-flip campaign repeated over composite
/// plans: every corrupted field draws a specific `CertError`, never a
/// panic, for r2c and 2D alike.
#[test]
fn every_mutated_composite_certificate_is_rejected() {
    use fgfft::workload::TransformKind;
    let mut rng = Rng64::seed_from_u64(0x00FE_ED2D);
    for kind in [
        TransformKind::R2C,
        TransformKind::C2C2D {
            rows_log2: 4,
            cols_log2: 5,
        },
    ] {
        let plan = Plan::build(PlanKey::with_kind(
            kind,
            1 << 9,
            Version::FineGuided,
            TwiddleLayout::Linear,
            6,
        ));
        let cert = Certificate::for_plan(&plan).expect("clean plan");
        for round in 0..64 {
            let mut bad = cert;
            let bit = 1u64 << rng.gen_below(64);
            match rng.gen_below(6) {
                0 => bad.workload_rev ^= bit,
                1 => bad.schedule ^= bit,
                2 => bad.tables ^= bit,
                3 => bad.hb_witness ^= bit,
                4 => bad.bank_bound_milli ^= bit,
                _ => bad.seal ^= bit,
            }
            let err = bad
                .verify_plan(&plan)
                .expect_err(&format!("{kind:?} round {round}: corrupted cert accepted"));
            assert!(
                matches!(
                    err,
                    CertError::Tampered
                        | CertError::ForeignRevision { .. }
                        | CertError::ScheduleMismatch
                        | CertError::TableMismatch
                ),
                "{kind:?} round {round}: unexpected error {err:?}"
            );
        }
    }
}
