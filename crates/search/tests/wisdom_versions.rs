//! Version and corruption coverage for wisdom documents on the shard
//! path. Wisdom reads format version 8 only: a shard whose payload is
//! truncated, bit-flipped, of any other version, partly bad, or names a
//! size past `MAX_N` must be refused with the right `StoreDiagnostic`,
//! quarantined, and never partially applied — and a store of version-7
//! shards leaves a planner to cold-search, bit-identically. Version-8
//! entries that still carry the dropped `objective` column load clean
//! and serve warm.

use std::fs;
use std::path::{Path, PathBuf};
use wht_core::{Plan, WhtError};
use wht_search::{
    encode_shard, failpoints, InstructionCost, Planner, ShardedStore, StoreDiagnostic, StoreLoad,
    Wisdom,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("wht_wisdom_versions_{}_{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The cost backend every corpus entry is keyed under, so a plain
/// `Planner::new(InstructionCost::default())` can serve it.
const BACKEND: &str = "instruction-model";

/// One handcrafted, valid version-8 payload per optional column, plus the
/// `objective` column that entries no longer carry.
fn corpus() -> Vec<(&'static str, String)> {
    vec![
        (
            "bare",
            "{\"version\":8,\"entries\":[{\"n\":4,\"backend\":\"instruction-model\",\
             \"plan\":\"split[small[2],small[2]]\"}]}"
                .to_string(),
        ),
        (
            "objective",
            "{\"version\":8,\"entries\":[{\"n\":4,\"backend\":\"instruction-model\",\
             \"plan\":\"split[small[2],small[2]]\",\"objective\":\"Latency\"}]}"
                .to_string(),
        ),
        (
            "provenance",
            "{\"version\":8,\"entries\":[{\"n\":4,\"backend\":\"instruction-model\",\
             \"plan\":\"split[small[2],small[2]]\",\"objective\":null,\
             \"provenance\":{\"composition\":[2,2],\"candidates\":8,\"evaluated\":5,\
             \"pruned\":3,\"cost\":42.5},\"measured_ns\":910}]}"
                .to_string(),
        ),
    ]
}

/// Commit `payload` as the only shard of a fresh store under `dir`, then
/// load that store. Returns the shard's path and the load.
fn load_as_shard(dir: &Path, tag: &str, payload: &str) -> (PathBuf, StoreLoad) {
    let root = dir.join(tag);
    fs::create_dir_all(&root).unwrap();
    let shard = root.join(format!("n04-{BACKEND}-00000000-host.shard"));
    fs::write(&shard, encode_shard(1, payload.as_bytes())).unwrap();
    let loaded = ShardedStore::open(&root).unwrap().load();
    (shard, loaded)
}

/// The refusal contract: one diagnostic of class `kind`, the shard moved
/// into `quarantine/`, nothing applied.
fn assert_refused(tag: &str, shard: &Path, loaded: &StoreLoad, kind: &str) {
    assert!(loaded.wisdom.is_empty(), "[{tag}] nothing applied");
    assert_eq!(loaded.diagnostics.len(), 1, "[{tag}]");
    let diag = &loaded.diagnostics[0];
    assert_eq!(diag.kind(), kind, "[{tag}] got {diag}");
    assert_eq!(loaded.quarantined, 1, "[{tag}]");
    assert!(!shard.exists(), "[{tag}] refused shard left the store");
    let kept = shard
        .with_file_name("quarantine")
        .join(shard.file_name().unwrap());
    assert!(kept.exists(), "[{tag}] refused shard kept in quarantine/");
}

#[test]
fn every_corpus_blob_loads_clean_as_a_control() {
    let _isolate = failpoints::scope();
    let dir = temp_dir("control");
    for (tag, payload) in corpus() {
        let (shard, loaded) = load_as_shard(&dir, tag, &payload);
        assert!(
            loaded.diagnostics.is_empty(),
            "[{tag}] {:?}",
            loaded.diagnostics
        );
        assert_eq!(
            (loaded.shards_loaded, loaded.quarantined),
            (1, 0),
            "[{tag}]"
        );
        assert!(shard.exists(), "[{tag}] intact shard stays");
        assert!(loaded.wisdom.get(4, BACKEND).is_some(), "[{tag}]");
        let json = loaded.wisdom.to_json();
        assert!(
            !json.contains("objective"),
            "[{tag}] not written back: {json}"
        );
        let back = Wisdom::from_json(&json).unwrap();
        assert_eq!(back, loaded.wisdom, "[{tag}] round trip");
        // A plain planner serves the loaded entry without searching.
        let mut planner = Planner::new(InstructionCost::default()).with_wisdom(loaded.wisdom);
        assert_eq!(planner.backend_name(), BACKEND);
        let mut x: Vec<f64> = (0..16).map(|j| ((j * 7) % 5) as f64 - 2.0).collect();
        let want = wht_core::naive_wht(&x);
        planner.transform(&mut x).unwrap();
        assert_eq!(x, want, "[{tag}]");
        assert_eq!(planner.evaluations(), 0, "[{tag}] served warm");
    }
    // The optional columns are restored.
    let (_, full) = load_as_shard(&dir, "provenance-again", &corpus()[2].1);
    assert_eq!(full.wisdom.measured_ns(4, BACKEND), Some(910));
    let p = full
        .wisdom
        .provenance(4, BACKEND)
        .expect("provenance restored");
    assert_eq!(p.composition.as_deref(), Some(&[2u32, 2][..]));
    assert_eq!((p.candidates, p.evaluated, p.pruned), (8, 5, 3));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_blobs_of_every_version_classify_as_truncated() {
    let _isolate = failpoints::scope();
    let dir = temp_dir("trunc");
    for (tag, payload) in corpus() {
        // The header is intact and vouches for the cut payload, so the
        // JSON layer has to notice the truncation itself.
        let (shard, loaded) = load_as_shard(&dir, tag, &payload[..payload.len() / 2]);
        assert_refused(tag, &shard, &loaded, "truncated");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bitflipped_blobs_of_every_version_classify_as_corrupt() {
    let _isolate = failpoints::scope();
    let dir = temp_dir("flip");
    for (tag, payload) in corpus() {
        // Flip a structural character: the first '{' of the entries
        // array becomes garbage, breaking JSON without shortening it.
        let flipped = payload.replacen("[{", "[?", 1);
        let (shard, loaded) = load_as_shard(&dir, tag, &flipped);
        assert_refused(tag, &shard, &loaded, "corrupt");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn future_versions_classify_as_version_unknown() {
    let _isolate = failpoints::scope();
    let dir = temp_dir("future");
    for (tag, payload) in corpus() {
        for version in [9u32, 99] {
            let future = payload.replacen("\"version\":8", &format!("\"version\":{version}"), 1);
            let tag = format!("{tag}-v{version}");
            let (shard, loaded) = load_as_shard(&dir, &tag, &future);
            assert_refused(&tag, &shard, &loaded, "version-unknown");
            match &loaded.diagnostics[0] {
                StoreDiagnostic::VersionUnknown { version: got, .. } => {
                    assert_eq!(*got, version, "[{tag}]")
                }
                other => panic!("[{tag}] expected VersionUnknown, got {other}"),
            }
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_blob_with_one_bad_entry_is_never_partially_applied() {
    // Two entries, the second carrying an invalid plan: from_json must
    // fail as a whole, and the store must refuse the whole shard.
    let _isolate = failpoints::scope();
    let payload = "{\"version\":8,\"entries\":[\
                   {\"n\":4,\"backend\":\"x\",\"plan\":\"split[small[2],small[2]]\"},\
                   {\"n\":3,\"backend\":\"x\",\"plan\":\"small[\"}]}";
    assert!(Wisdom::from_json(payload).is_err());
    let dir = temp_dir("partial");
    let (shard, loaded) = load_as_shard(&dir, "two-entry", payload);
    assert!(
        loaded.wisdom.get(4, "x").is_none(),
        "the good first entry must not survive a bad shard"
    );
    assert_refused("two-entry", &shard, &loaded, "corrupt");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn an_entry_past_max_n_is_a_typed_diagnostic_not_a_panic() {
    // `n` comes straight from the file; 70 is past MAX_N and past the
    // width of a shift, so deriving the entry's length from it must not
    // happen before the range check.
    let _isolate = failpoints::scope();
    let payload = "{\"version\":8,\"entries\":[{\"n\":70,\"backend\":\"x\",\
                   \"plan\":\"split[small[2],small[2]]\"}]}";
    assert_eq!(
        Wisdom::from_json(payload).unwrap_err(),
        WhtError::SizeTooLarge { n: 70 }
    );
    let dir = temp_dir("oversized");
    let (shard, loaded) = load_as_shard(&dir, "n70", payload);
    assert_refused("n70", &shard, &loaded, "corrupt");
    let _ = fs::remove_dir_all(&dir);
}

/// Write the store a version-7 build left behind: one shard per size
/// `1..=8`, each entry carrying the executor `tuning` record that version
/// 8 dropped. Returns the shard count.
fn write_version_7_store(root: &Path) -> usize {
    fs::create_dir_all(root).unwrap();
    for n in 1..=8u32 {
        let payload = format!(
            "{{\"version\":7,\"entries\":[{{\"n\":{n},\"backend\":\"instruction-model\",\
             \"plan\":\"{}\",\"tuning\":{{\"fuse_budget\":0,\"simd\":false,\"relayout\":0,\
             \"recodelet\":false,\"batch\":0,\"stream\":false}},\"provenance\":null,\
             \"measured_ns\":null}}]}}",
            Plan::iterative(n).unwrap()
        );
        let name = format!("n{n:02}-instruction-model-00000000-v7host.shard");
        fs::write(root.join(name), encode_shard(1, payload.as_bytes())).unwrap();
    }
    8
}

fn is_version_7(diag: &StoreDiagnostic) -> bool {
    matches!(diag, StoreDiagnostic::VersionUnknown { version: 7, .. })
}

#[test]
fn version_7_shards_are_version_unknown_and_their_sizes_cold_search() {
    let _isolate = failpoints::scope();
    let dir = temp_dir("v7");

    // Every shard is refused as VersionUnknown { version: 7 } and
    // quarantined; nothing loads.
    let root = dir.join("store");
    let shards = write_version_7_store(&root);
    let loaded = ShardedStore::open(&root).unwrap().load();
    assert!(loaded.wisdom.is_empty());
    assert_eq!(loaded.diagnostics.len(), shards);
    assert!(
        loaded.diagnostics.iter().all(is_version_7),
        "{:?}",
        loaded.diagnostics
    );
    assert_eq!(loaded.quarantined, shards);

    // A planner warmed from such a store reports the same refusals,
    // searches cold, and serves a fresh planner's exact output.
    let root = dir.join("planner-store");
    write_version_7_store(&root);
    let store = ShardedStore::open(&root).unwrap();
    let mut planner = Planner::new(InstructionCost::default()).with_store(&store);
    assert_eq!(planner.store_diagnostics().len(), shards);
    assert!(planner.store_diagnostics().iter().all(is_version_7));
    let input: Vec<f64> = (0..1 << 8).map(|j| ((j * 37) % 29) as f64 - 14.0).collect();
    let mut served = input.clone();
    planner.transform(&mut served).unwrap();
    assert!(planner.evaluations() > 0, "the refused sizes cold-search");
    let mut fresh = Planner::new(InstructionCost::default());
    let mut searched = input;
    fresh.transform(&mut searched).unwrap();
    assert_eq!(served, searched, "bit-identical to a fresh planner");
    assert_eq!(planner.plan(8).unwrap(), fresh.plan(8).unwrap());
    let _ = fs::remove_dir_all(&dir);
}
