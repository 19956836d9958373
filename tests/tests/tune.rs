//! Cross-crate autotuning tests: the wisdom lifecycle (round-trip,
//! corruption tolerance, fingerprint scoping, concurrent planner readers),
//! the guarantee that tuned schedules pass every fgcheck pass, and an
//! end-to-end tuner smoke run whose wisdom a second planner loads.

use fgcheck::{check_fft_tuned, FftCheckOptions};
use fgfft::exec::{SeedOrder, Version};
use fgfft::planner::{PlanKey, Planner};
use fgfft::wisdom::{machine_fingerprint, Wisdom, WisdomEntry, WisdomStatus};
use fgfft::{Complex64, ScheduleTuning, TwiddleLayout};
use fgtune::{tune, TuneConfig, TuningSpace};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Fresh per-test scratch dir (process id + test name keeps parallel test
/// binaries and threads apart).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fgfft-tune-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn entry(n_log2: u32, version: Version) -> WisdomEntry {
    let cps = 1usize << (n_log2 - 6);
    let key = PlanKey::new(1 << n_log2, version, version.layout());
    let tuning = ScheduleTuning {
        pool_order: Some((0..cps).rev().collect()),
        last_early: None,
        transpose_block_log2: None,
    };
    // Certified, as on-disk wisdom must be to load.
    let cert = fgfft::cert::Certificate::for_plan(&fgfft::Plan::build_tuned(key, Some(&tuning)))
        .expect("tuning is valid");
    WisdomEntry {
        key,
        tuning,
        workers: 2,
        batch: 4,
        backend: Default::default(),
        median_ns: 1_000,
        seed_median_ns: 2_000,
        cert: Some(cert),
    }
}

#[test]
fn wisdom_round_trips_through_a_file() {
    let dir = scratch("roundtrip");
    let path = dir.join("wisdom.json");
    let mut wisdom = Wisdom::new();
    wisdom.insert(entry(12, Version::FineGuided));
    wisdom.insert(entry(13, Version::FineHash(SeedOrder::Natural)));
    wisdom.save(&path).expect("save");
    let (loaded, status) = Wisdom::load(&path);
    assert_eq!(status, WisdomStatus::Loaded { entries: 2 });
    assert_eq!(loaded, wisdom);
    // Reload → re-save is a fixed point: bit-identical bytes.
    let original = std::fs::read_to_string(&path).unwrap();
    loaded.save(&path).expect("re-save");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), original);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_and_truncated_wisdom_fall_back_without_panic() {
    let dir = scratch("corrupt");
    for (name, bytes) in [
        ("garbage.json", b"\x00\x01not json at all".to_vec()),
        ("empty.json", Vec::new()),
        ("wrong-shape.json", b"[1, 2, 3]".to_vec()),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        let (wisdom, status) = Wisdom::load(&path);
        assert_eq!(status, WisdomStatus::Corrupt, "{name}");
        assert!(wisdom.is_empty(), "{name}: fell back to empty");
    }
    // Truncation mid-entry: same graceful fallback.
    let mut full = Wisdom::new();
    full.insert(entry(12, Version::FineGuided));
    let text = full.to_json().to_string_pretty();
    let path = dir.join("truncated.json");
    std::fs::write(&path, &text[..text.len() * 2 / 3]).unwrap();
    assert_eq!(Wisdom::load(&path).1, WisdomStatus::Corrupt);
    // And a planner pointed at any of these keeps serving seed plans.
    let planner = Planner::new();
    assert_eq!(planner.load_wisdom(&path), WisdomStatus::Corrupt);
    let plan = planner.plan(1 << 12, Version::FineGuided, TwiddleLayout::Linear);
    assert!(plan.tuning().is_none());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_fingerprint_is_ignored_wholesale() {
    let dir = scratch("fingerprint");
    let path = dir.join("foreign.json");
    let mut foreign = Wisdom::with_fingerprint("decommissioned-box-64t".to_string());
    foreign.insert(entry(12, Version::FineGuided));
    foreign.save(&path).expect("save");
    assert_ne!(foreign.fingerprint(), machine_fingerprint());
    let (loaded, status) = Wisdom::load(&path);
    assert_eq!(status, WisdomStatus::FingerprintMismatch);
    assert!(
        loaded.is_empty(),
        "foreign measurements must not be trusted"
    );
    let planner = Planner::new();
    assert_eq!(
        planner.load_wisdom(&path),
        WisdomStatus::FingerprintMismatch
    );
    assert!(planner.wisdom().is_none());
    std::fs::remove_dir_all(&dir).ok();
}

/// Many planners in many threads load the same wisdom file concurrently
/// while one thread atomically re-saves it: every load must see a
/// complete document (old or new — never torn), and tuned plan execution
/// must stay bit-identical to untuned.
#[test]
fn concurrent_planner_readers_of_one_wisdom_file() {
    const READERS: usize = 8;
    let dir = scratch("concurrent");
    let path = dir.join("wisdom.json");
    let mut wisdom = Wisdom::new();
    wisdom.insert(entry(10, Version::FineGuided));
    wisdom.save(&path).expect("save");

    let barrier = Arc::new(Barrier::new(READERS + 1));
    let path = Arc::new(path);
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let path = Arc::clone(&path);
            std::thread::spawn(move || {
                barrier.wait();
                let mut statuses = Vec::new();
                for _ in 0..20 {
                    let planner = Planner::new();
                    statuses.push(planner.load_wisdom(&path));
                    let plan = planner.plan(1 << 10, Version::FineGuided, TwiddleLayout::Linear);
                    // Whether this load raced the writer into old or new
                    // wisdom, the plan must carry *a* valid tuning.
                    assert!(plan.tuning().is_some());
                }
                statuses
            })
        })
        .collect();
    let writer = {
        let barrier = Arc::clone(&barrier);
        let path = Arc::clone(&path);
        std::thread::spawn(move || {
            barrier.wait();
            for i in 0..20 {
                let mut w = Wisdom::new();
                let mut e = entry(10, Version::FineGuided);
                e.median_ns = 1_000 + i;
                w.insert(e);
                w.save(&path).expect("atomic re-save");
            }
        })
    };
    writer.join().expect("writer");
    for reader in readers {
        for status in reader.join().expect("reader") {
            assert!(
                matches!(status, WisdomStatus::Loaded { entries: 1 }),
                "a concurrent load saw a torn file: {status:?}"
            );
        }
    }
    std::fs::remove_dir_all(
        std::env::temp_dir().join(format!("fgfft-tune-{}-concurrent", std::process::id())),
    )
    .ok();
}

/// A tuned pool-order permutation — the schedule the tuner would emit —
/// passes all three fgcheck passes for every fine-grain version, and so
/// does a tuned guided split.
#[test]
fn tuned_schedules_pass_all_three_fgcheck_passes() {
    let n_log2 = 12;
    let cps = 1usize << (n_log2 - 6);
    // A deliberately scrambled (but valid) permutation.
    let scrambled: Vec<usize> = SeedOrder::Random(0xBADC0DE).order(cps);
    for version in [
        Version::Fine(SeedOrder::Natural),
        Version::FineHash(SeedOrder::Natural),
        Version::FineGuided,
        Version::Coarse,
        Version::CoarseHash,
    ] {
        let tuning = ScheduleTuning {
            pool_order: Some(scrambled.clone()),
            last_early: if version == Version::FineGuided {
                Some(0)
            } else {
                None
            },
            transpose_block_log2: None,
        };
        let report = check_fft_tuned(&FftCheckOptions::new(n_log2, version), Some(&tuning));
        assert!(
            !report.has_errors(),
            "{version:?} with tuned schedule fails static checks:\n{}",
            report.render_text()
        );
    }
}

/// End-to-end: a short tuner run writes wisdom; a *second* planner (as a
/// separate process would) loads it, builds tuned plans, and executes
/// bit-identically to the seed schedule.
#[test]
fn tuner_smoke_wisdom_reloads_into_a_fresh_planner() {
    let dir = scratch("smoke");
    let path = dir.join("wisdom.json");

    let space = TuningSpace::new(9, 6);
    let outcome = tune(
        &space,
        &TuneConfig {
            budget: Duration::from_millis(300),
            seed: 5,
            reps: 2,
            max_candidates: 48,
        },
    );
    assert!(!outcome.wisdom.is_empty());
    assert!(outcome.report.best.median_ns <= outcome.report.seed_median_ns());
    outcome.wisdom.save(&path).expect("save wisdom");

    // Fresh planner, as a new process would start.
    let planner = Planner::new();
    let status = planner.load_wisdom(&path);
    assert!(matches!(status, WisdomStatus::Loaded { .. }), "{status:?}");
    for entry in outcome.wisdom.entries() {
        let tuned = planner.plan_key(entry.key);
        assert_eq!(
            tuned.tuning(),
            Some(&entry.tuning),
            "plan carries the wisdom tuning"
        );
        // Tuned execution is bit-identical to a fresh untuned build.
        let n = entry.key.n();
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.13).sin(), (i as f64 * 0.19).cos()))
            .collect();
        let rt = codelet::runtime::Runtime::with_workers(entry.workers.max(1));
        let mut tuned_out = input.clone();
        tuned.execute(&mut tuned_out, &rt);
        let mut seed_out = input;
        fgfft::Plan::build(entry.key).execute(&mut seed_out, &rt);
        assert_eq!(
            tuned_out, seed_out,
            "{:?}: tuning changed results",
            entry.key
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
