//! Crash-consistency matrix for the sharded wisdom store.
//!
//! The store's contract (`wht_search::store` docs): committed shards are
//! always intact and readable, uncommitted writes never surface, damaged
//! shards are quarantined with the right diagnostic, and the planner
//! degrades to cold search — never a panic, never poisoned tuning. This
//! harness replays hundreds of injected fault schedules (ENOSPC, short
//! write, fsync/rename failure, kill-at-any-byte truncation) through the
//! `failpoints` layer and asserts the invariant after every one.
//!
//! The first test is the CI gate (mirroring `exec_gate.rs`): the `faults`
//! CI leg runs with `WHT_FAILPOINTS` armed, and the gate asserts the
//! armed environment actually injects — a disarmed harness fails loudly
//! instead of silently passing a matrix that exercised nothing.

use std::fs;
use std::path::PathBuf;
use wht_core::{max_abs_diff, naive_wht, Plan, WhtError};
use wht_search::failpoints::{self, Fault};
use wht_search::store::{
    atomic_write, decode_shard, encode_shard, ShardedStore, StoreDiagnostic, SHARD_HEADER_LEN,
};
use wht_search::{InstructionCost, Planner, Wisdom};

/// Fresh per-test scratch directory (parallel-test and rerun safe).
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wht_fault_matrix_{}_{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn rm(dir: &PathBuf) {
    let _ = fs::remove_dir_all(dir);
}

/// CI gate: when the harness is supposed to be armed (`WHT_FAILPOINTS`
/// set), the environment spec must have parsed non-empty AND an armed
/// `atomic::*` site must actually inject end-to-end. A typo'd or dropped
/// env var fails here, loudly, instead of green-lighting a matrix that
/// exercised nothing. (Like `exec_gate.rs`, the raw environment is the
/// source of truth the derived state is checked against.)
#[test]
fn gate_env_armed_matches_environment() {
    let raw = std::env::var("WHT_FAILPOINTS").unwrap_or_default();
    let expect_armed = !failpoints::parse_spec(&raw)
        .expect("spec must parse")
        .is_empty();
    assert_eq!(
        failpoints::env_armed(),
        expect_armed,
        "failpoints arming must match the raw WHT_FAILPOINTS environment {raw:?}"
    );
    let dir = temp_dir("gate");
    let probe = dir.join("probe.bin");
    let armed_atomic_site = failpoints::env_spec()
        .iter()
        .any(|(site, _)| site.starts_with("atomic::"));
    // Outside any scope, env faults apply: an armed atomic site must make
    // the probe write fail; a disarmed harness must let it succeed.
    let result = atomic_write(&probe, b"gate probe");
    if armed_atomic_site {
        assert!(
            result.is_err(),
            "WHT_FAILPOINTS={raw:?} armed an atomic site but atomic_write succeeded — \
             the injection layer is not wired through this build"
        );
    } else {
        result.expect("disarmed atomic_write must succeed");
        assert_eq!(fs::read(&probe).unwrap(), b"gate probe");
    }
    rm(&dir);
}

/// One committed generation of wisdom: entry A for (3, backend) at stamp
/// 1 with no evidence.
fn wisdom_a() -> Wisdom {
    let mut w = Wisdom::new();
    let plan: Plan = "small[3]".parse().unwrap();
    w.insert(3, "matrix-backend", plan).unwrap();
    w
}

/// The would-be second generation: a different plan for the same key at
/// stamp 2, carrying measured evidence.
fn wisdom_b() -> Wisdom {
    let mut w = Wisdom::new();
    let plan: Plan = "split[small[1],small[2]]".parse().unwrap();
    w.insert(3, "matrix-backend", plan).unwrap();
    w.record_measurement(3, "matrix-backend", 777).unwrap();
    w
}

fn plan_a() -> Plan {
    "small[3]".parse().unwrap()
}

fn plan_b() -> Plan {
    "split[small[1],small[2]]".parse().unwrap()
}

/// The invariant checked after every schedule: the store must load
/// cleanly (no diagnostics — committed shards intact, uncommitted temp
/// files invisible) and the surviving entry must be exactly generation A
/// or exactly generation B, never a mixture, never absent.
fn assert_invariant(store: &ShardedStore, schedule: &str, must_be_a: bool) {
    let loaded = store.load();
    assert!(
        loaded.diagnostics.is_empty(),
        "[{schedule}] a fault schedule must never corrupt the committed store: {:?}",
        loaded.diagnostics
    );
    assert_eq!(loaded.quarantined, 0, "[{schedule}]");
    let got = loaded
        .wisdom
        .get(3, "matrix-backend")
        .unwrap_or_else(|| panic!("[{schedule}] committed entry lost"))
        .clone();
    let evidence = loaded.wisdom.measured_ns(3, "matrix-backend");
    if got == plan_a() {
        assert_eq!(evidence, None, "[{schedule}] A carries no evidence");
    } else if got == plan_b() {
        assert_eq!(evidence, Some(777), "[{schedule}] B carries its evidence");
    } else {
        panic!("[{schedule}] surviving entry is neither generation: {got}");
    }
    if must_be_a {
        assert_eq!(
            got,
            plan_a(),
            "[{schedule}] a fault before the rename commit point must leave generation A"
        );
    }
}

/// The crash-consistency matrix: ≥200 injected fault schedules against a
/// store holding one committed generation, each attempting to commit the
/// next generation under a different failure.
#[test]
fn crash_consistency_matrix_holds_across_all_schedules() {
    // Hermetic: the CI leg's env-armed faults must not perturb the
    // matrix's own deterministic schedules.
    let _isolate = failpoints::scope();
    let dir = temp_dir("matrix");
    let store = ShardedStore::open(&dir).unwrap().with_host("matrix-host");

    // Measure the exact on-disk size of a generation-B shard so the
    // kill-at-byte sweep covers every byte boundary of the real file.
    store.save_with_stamp(&wisdom_b(), 2).unwrap();
    let shard_path = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "shard"))
        .expect("one shard written");
    let shard_len = fs::read(&shard_path).unwrap().len();
    assert!(shard_len > SHARD_HEADER_LEN);

    let mut schedules = 0usize;

    // Reset to the committed baseline: generation A at stamp 1.
    let reset = |store: &ShardedStore| {
        let _quiet = failpoints::scope();
        // Remove every shard and stray temp, then commit A cleanly.
        for entry in fs::read_dir(store.root()).unwrap().filter_map(|e| e.ok()) {
            if entry.path().is_file() {
                let _ = fs::remove_file(entry.path());
            }
        }
        store.save_with_stamp(&wisdom_a(), 1).unwrap();
    };

    // Part 1: Err and Kill at every named site of the atomic-write path.
    let sites = [
        "atomic::create",
        "atomic::write",
        "atomic::fsync",
        "atomic::rename",
        "atomic::dir_fsync",
    ];
    for site in sites {
        for fault in [Fault::Err, Fault::Kill] {
            reset(&store);
            let schedule = format!("{site}={fault:?}");
            let result = {
                let _armed = failpoints::arm(site, fault);
                store.save_with_stamp(&wisdom_b(), 2)
            };
            assert!(
                matches!(result, Err(WhtError::Io { .. })),
                "[{schedule}] injected fault must surface as WhtError::Io, got {result:?}"
            );
            // dir_fsync faults fire after the rename committed; every
            // earlier site must leave generation A untouched.
            let committed = site == "atomic::dir_fsync";
            assert_invariant(&store, &schedule, !committed);
            schedules += 1;
        }
    }

    // Part 2: short writes and kill-at-byte truncation at every byte
    // boundary of the real shard (step 1 over the whole file, plus a
    // couple of past-the-end points exercising the clamp).
    for b in (0..=shard_len + 2).step_by(1) {
        for kill in [false, true] {
            reset(&store);
            let fault = if kill {
                Fault::KillAtByte(b)
            } else {
                Fault::ShortWrite(b)
            };
            let schedule = format!("atomic::write={fault:?}");
            let result = {
                let _armed = failpoints::arm("atomic::write", fault);
                store.save_with_stamp(&wisdom_b(), 2)
            };
            assert!(
                matches!(result, Err(WhtError::Io { .. })),
                "[{schedule}] injected fault must surface as WhtError::Io"
            );
            if kill {
                // A killed write leaves its truncated temp file behind —
                // exactly what a dead process leaves — and the loader
                // must still never surface it.
                let temps = fs::read_dir(&dir)
                    .unwrap()
                    .filter_map(|e| e.ok())
                    .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
                    .count();
                assert!(temps > 0, "[{schedule}] kill must leave the temp file");
            }
            assert_invariant(&store, &schedule, true);
            schedules += 1;
        }
    }

    assert!(
        schedules >= 200,
        "matrix must replay at least 200 schedules, got {schedules}"
    );
    rm(&dir);
}

/// Damage committed shards in every classifiable way and assert load
/// quarantines each with the right diagnostic while intact shards in the
/// same directory keep loading.
#[test]
fn corrupt_shards_are_quarantined_with_typed_diagnostics() {
    let _isolate = failpoints::scope();
    let dir = temp_dir("quarantine");
    let store = ShardedStore::open(&dir).unwrap().with_host("qhost");

    // Two committed shards: one stays good, one gets damaged per case.
    let mut good = Wisdom::new();
    good.insert(4, "qb", "split[small[2],small[2]]".parse().unwrap())
        .unwrap();
    let mut victim = Wisdom::new();
    victim.insert(3, "qb", "small[3]".parse().unwrap()).unwrap();

    type Damage = Box<dyn Fn(&mut Vec<u8>)>;
    let cases: Vec<(&str, Damage, &str)> = vec![
        (
            "magic-flip",
            Box::new(|b: &mut Vec<u8>| b[0] ^= 0xff),
            "corrupt",
        ),
        (
            "truncate-header",
            Box::new(|b: &mut Vec<u8>| b.truncate(SHARD_HEADER_LEN / 2)),
            "truncated",
        ),
        (
            "truncate-payload",
            Box::new(|b: &mut Vec<u8>| {
                let l = b.len();
                b.truncate(l - 3);
            }),
            "truncated",
        ),
        (
            "payload-bitflip",
            Box::new(|b: &mut Vec<u8>| {
                let l = b.len();
                b[l - 2] ^= 0x20;
            }),
            "checksum-mismatch",
        ),
        (
            "future-container-version",
            Box::new(|b: &mut Vec<u8>| b[8..12].copy_from_slice(&77u32.to_le_bytes())),
            "version-unknown",
        ),
    ];

    for (tag, damage, want_kind) in cases {
        // Fresh directory state per case.
        for entry in fs::read_dir(&dir).unwrap().filter_map(|e| e.ok()) {
            if entry.path().is_dir() {
                let _ = fs::remove_dir_all(entry.path());
            } else {
                let _ = fs::remove_file(entry.path());
            }
        }
        store.save_with_stamp(&good, 1).unwrap();
        store.save_with_stamp(&victim, 1).unwrap();
        let victim_path = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| {
                p.file_name()
                    .is_some_and(|f| f.to_string_lossy().starts_with("n03"))
            })
            .expect("victim shard on disk");
        let mut bytes = fs::read(&victim_path).unwrap();
        damage(&mut bytes);
        fs::write(&victim_path, &bytes).unwrap();

        let loaded = store.load();
        assert_eq!(loaded.shards_loaded, 1, "[{tag}] the good shard loads");
        assert!(
            loaded.wisdom.get(4, "qb").is_some(),
            "[{tag}] intact entries survive a bad neighbor"
        );
        assert!(
            loaded.wisdom.get(3, "qb").is_none(),
            "[{tag}] a damaged shard must never be partially applied"
        );
        assert_eq!(loaded.diagnostics.len(), 1, "[{tag}]");
        assert_eq!(
            loaded.diagnostics[0].kind(),
            want_kind,
            "[{tag}] got {}",
            loaded.diagnostics[0]
        );
        assert_eq!(loaded.quarantined, 1, "[{tag}]");
        assert!(
            !victim_path.exists(),
            "[{tag}] the damaged shard must move into quarantine/"
        );
        assert!(dir.join("quarantine").is_dir(), "[{tag}]");
        // A second load is clean: quarantine is not a recurring error.
        let again = store.load();
        assert!(
            again.diagnostics.is_empty(),
            "[{tag}] {:?}",
            again.diagnostics
        );
        assert_eq!(again.shards_loaded, 1, "[{tag}]");
    }
    rm(&dir);
}

/// A directory entry named `*.shard` that cannot be read as a file is an
/// IoFailed diagnostic, not a panic.
#[test]
fn unreadable_shard_entry_is_io_failed() {
    let _isolate = failpoints::scope();
    let dir = temp_dir("iofail");
    let store = ShardedStore::open(&dir).unwrap();
    fs::create_dir_all(dir.join("imposter.shard")).unwrap();
    let loaded = store.load();
    assert_eq!(loaded.diagnostics.len(), 1);
    assert_eq!(loaded.diagnostics[0].kind(), "io-failed");
    rm(&dir);
}

/// The degradation contract end-to-end: a store whose shards are 100%
/// corrupt still yields a working planner that serves bit-identical
/// transforms via cold search and reports the damage through explain.
#[test]
fn planner_degrades_to_cold_search_on_total_store_loss() {
    let _isolate = failpoints::scope();
    let dir = temp_dir("degrade");
    let store = ShardedStore::open(&dir).unwrap().with_host("dhost");

    // Commit real wisdom, then corrupt every shard on disk.
    let mut seeder = Planner::new(InstructionCost::default());
    seeder.plan(6).unwrap();
    seeder.save_store(&store).unwrap();
    let mut shard_count = 0usize;
    for entry in fs::read_dir(&dir).unwrap().filter_map(|e| e.ok()) {
        if entry.path().extension().is_some_and(|x| x == "shard") {
            let mut bytes = fs::read(entry.path()).unwrap();
            for b in bytes.iter_mut() {
                *b ^= 0xa5;
            }
            fs::write(entry.path(), &bytes).unwrap();
            shard_count += 1;
        }
    }
    assert!(shard_count >= 6, "seeded one shard per size");

    // with_store must not panic, must not error, must quarantine all.
    let mut planner = Planner::new(InstructionCost::default()).with_store(&store);
    assert_eq!(planner.store_diagnostics().len(), shard_count);
    assert!(planner.wisdom().is_empty(), "no poisoned tuning adopted");

    // ...and transforms still serve, bit-identical to the reference.
    let input: Vec<f64> = (0..64).map(|j| ((j * 13 + 3) % 17) as f64 - 8.0).collect();
    let want = naive_wht(&input);
    let mut x = input.clone();
    planner.transform(&mut x).unwrap();
    assert!(max_abs_diff(&x, &want) < 1e-12);
    assert!(
        planner.evaluations() > 0,
        "total store loss degrades to a cold search, not a silent no-op"
    );
    let line = planner.explain(6).expect("searched after degradation");
    assert!(
        line.contains("store:") && line.contains("quarantined"),
        "explain must surface the store damage: {line}"
    );
    rm(&dir);
}

/// Merge semantics across a simulated fleet: evidence beats recency,
/// recency breaks no-evidence ties, and two hosts pool without
/// clobbering each other's shard files.
#[test]
fn fleet_merge_keeps_best_evidence_per_key() {
    let _isolate = failpoints::scope();
    let dir = temp_dir("fleet");
    let store = ShardedStore::open(&dir).unwrap();

    // Host 1: newest, no evidence. Host 2: older, measured.
    let mut newest = Wisdom::new();
    newest.insert(3, "fb", plan_a()).unwrap();
    ShardedStore::open(&dir)
        .unwrap()
        .with_host("fleet-1")
        .save_with_stamp(&newest, 500)
        .unwrap();
    let mut measured = Wisdom::new();
    measured.insert(3, "fb", plan_b()).unwrap();
    measured.record_measurement(3, "fb", 1200).unwrap();
    ShardedStore::open(&dir)
        .unwrap()
        .with_host("fleet-2")
        .save_with_stamp(&measured, 100)
        .unwrap();

    let loaded = store.load();
    assert_eq!(loaded.shards_loaded, 2, "one shard file per host");
    assert_eq!(
        loaded.wisdom.get(3, "fb"),
        Some(&plan_b()),
        "measured evidence beats a newer unmeasured entry"
    );

    // A faster measurement from a third host takes over.
    let mut faster = Wisdom::new();
    faster.insert(3, "fb", plan_a()).unwrap();
    faster.record_measurement(3, "fb", 800).unwrap();
    ShardedStore::open(&dir)
        .unwrap()
        .with_host("fleet-3")
        .save_with_stamp(&faster, 50)
        .unwrap();
    let loaded = store.load();
    assert_eq!(loaded.wisdom.get(3, "fb"), Some(&plan_a()));
    assert_eq!(loaded.wisdom.measured_ns(3, "fb"), Some(800));
    rm(&dir);
}

/// Satellite 4 end-to-end: winner provenance persists through the store,
/// so a restarted process explains its wisdom-served plans without
/// re-searching.
#[test]
fn explain_survives_a_process_restart_through_the_store() {
    let _isolate = failpoints::scope();
    let dir = temp_dir("provenance");
    let store = ShardedStore::open(&dir).unwrap().with_host("phost");

    let mut original = Planner::new(InstructionCost::default());
    original.plan(8).unwrap();
    let live_line = original.explain(8).expect("searched live");
    original.save_store(&store).unwrap();

    // "Restart": a fresh planner, warmed only from disk.
    let mut restarted = Planner::new(InstructionCost::default()).with_store(&store);
    restarted.plan(8).unwrap();
    assert_eq!(restarted.evaluations(), 0, "served warm from the store");
    let replayed = restarted.explain(8).expect("provenance survived restart");
    assert!(replayed.contains("[replayed from wisdom]"), "{replayed}");
    // Same winning account as the live search (modulo the replay marker
    // and any verifier/store suffixes).
    let live_head = live_line.split(';').next().unwrap();
    assert!(
        replayed.starts_with(live_head),
        "replayed account must match the live one:\n  live: {live_line}\n  replay: {replayed}"
    );
    rm(&dir);
}

/// Shard container decode classifies damage without touching a
/// filesystem (pure-function matrix rider covering the clamp edges).
#[test]
fn shard_codec_classification_is_exact() {
    let payload = br#"{"version":8,"entries":[]}"#;
    let bytes = encode_shard(9, payload);
    let (stamp, back) = decode_shard("x", &bytes).unwrap();
    assert_eq!((stamp, back), (9, payload.as_slice()));
    for cut in 0..bytes.len() {
        let diag = decode_shard("x", &bytes[..cut]).unwrap_err();
        assert!(
            matches!(
                diag,
                StoreDiagnostic::Truncated { .. } | StoreDiagnostic::Corrupt { .. }
            ),
            "cut at {cut}: {diag}"
        );
    }
}
