//! Corruption coverage for the full wisdom version corpus (satellite 3):
//! every historical blob format (v1–v6, plus current v7) in truncated,
//! bit-flipped, and future-version form must be rejected with the right
//! `StoreDiagnostic` through `Wisdom::load_or_default`, a damaged blob
//! must never be partially applied, and an entry whose size is out of
//! range is a typed diagnostic rather than a panic.

use std::fs;
use std::path::PathBuf;
use wht_core::WhtError;
use wht_search::{encode_shard, failpoints, ShardedStore, StoreDiagnostic, Wisdom};

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("wht_wisdom_versions_{}_{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// One handcrafted, valid blob per historical format.
fn corpus() -> Vec<(&'static str, String)> {
    vec![
        (
            "v1-flat",
            "{\"version\":1,\"entries\":[{\"n\":4,\"backend\":\"x\",\
             \"plan\":\"split[small[2],small[2]]\",\"fuse_budget\":512,\"simd\":true}]}"
                .to_string(),
        ),
        (
            "v2-flat-relayout",
            "{\"version\":2,\"entries\":[{\"n\":4,\"backend\":\"x\",\
             \"plan\":\"split[small[2],small[2]]\",\"fuse_budget\":64,\"simd\":true,\
             \"relayout\":512}]}"
                .to_string(),
        ),
        (
            "v3-nested-tuning",
            "{\"version\":3,\"entries\":[{\"n\":4,\"backend\":\"x\",\
             \"plan\":\"split[small[2],small[2]]\",\"tuning\":{\"fuse_budget\":4096,\
             \"simd\":true,\"relayout\":0,\"recodelet\":true}}]}"
                .to_string(),
        ),
        (
            "v4-batch",
            "{\"version\":4,\"entries\":[{\"n\":4,\"backend\":\"x\",\
             \"plan\":\"split[small[2],small[2]]\",\"tuning\":{\"fuse_budget\":4096,\
             \"simd\":true,\"relayout\":0,\"recodelet\":true,\"batch\":16}}]}"
                .to_string(),
        ),
        (
            "v5-objective",
            "{\"version\":5,\"entries\":[{\"n\":4,\"backend\":\"x\",\
             \"plan\":\"split[small[2],small[2]]\",\"tuning\":{\"fuse_budget\":4096,\
             \"simd\":true,\"relayout\":0,\"recodelet\":true,\"batch\":0,\
             \"objective\":\"Latency\"}}]}"
                .to_string(),
        ),
        (
            "v6-provenance",
            "{\"version\":6,\"entries\":[{\"n\":4,\"backend\":\"x\",\
             \"plan\":\"split[small[2],small[2]]\",\"tuning\":{\"fuse_budget\":4096,\
             \"simd\":true},\"provenance\":{\"composition\":[2,2],\"candidates\":8,\
             \"evaluated\":5,\"pruned\":3,\"cost\":42.5},\"measured_ns\":910}]}"
                .to_string(),
        ),
        (
            "v7-stream",
            "{\"version\":7,\"entries\":[{\"n\":4,\"backend\":\"x\",\
             \"plan\":\"split[small[2],small[2]]\",\"tuning\":{\"fuse_budget\":4096,\
             \"simd\":true,\"stream\":true},\"measured_ns\":880}]}"
                .to_string(),
        ),
    ]
}

#[test]
fn every_corpus_blob_loads_clean_as_a_control() {
    for (tag, blob) in corpus() {
        let w = Wisdom::from_json(&blob).unwrap_or_else(|e| panic!("[{tag}] control: {e}"));
        assert!(w.get(4, "x").is_some(), "[{tag}]");
    }
    // The v6 blob restores its extras.
    let (_, v6) = corpus()
        .into_iter()
        .find(|(tag, _)| *tag == "v6-provenance")
        .unwrap();
    let w = Wisdom::from_json(&v6).unwrap();
    assert_eq!(w.measured_ns(4, "x"), Some(910));
    let p = w.provenance(4, "x").expect("provenance restored");
    assert_eq!(p.composition.as_deref(), Some(&[2u32, 2][..]));
    assert_eq!((p.candidates, p.evaluated, p.pruned), (8, 5, 3));
    // And the v7 blob restores its stream choice.
    let (_, v7) = corpus()
        .into_iter()
        .find(|(tag, _)| *tag == "v7-stream")
        .unwrap();
    let w = Wisdom::from_json(&v7).unwrap();
    assert_eq!(w.tuning(4, "x").unwrap().stream, Some(true));
    assert_eq!(w.measured_ns(4, "x"), Some(880));
}

#[test]
fn truncated_blobs_of_every_version_classify_as_truncated() {
    let _isolate = failpoints::scope();
    let dir = temp_dir("trunc");
    for (tag, blob) in corpus() {
        let path = dir.join(format!("{tag}.json"));
        fs::write(&path, &blob[..blob.len() / 2]).unwrap();
        let (w, diags) = Wisdom::load_or_default(&path);
        assert!(w.is_empty(), "[{tag}] nothing partially applied");
        assert_eq!(diags.len(), 1, "[{tag}]");
        assert!(
            matches!(diags[0], StoreDiagnostic::Truncated { .. }),
            "[{tag}] got {}",
            diags[0]
        );
        assert!(!path.exists(), "[{tag}] damaged blob quarantined");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bitflipped_blobs_of_every_version_classify_as_corrupt() {
    let _isolate = failpoints::scope();
    let dir = temp_dir("flip");
    for (tag, blob) in corpus() {
        // Flip a structural character: the first '{' of the entries
        // array becomes garbage, breaking JSON without shortening it.
        let flipped = blob.replacen("[{", "[?", 1);
        let path = dir.join(format!("{tag}.json"));
        fs::write(&path, &flipped).unwrap();
        let (w, diags) = Wisdom::load_or_default(&path);
        assert!(w.is_empty(), "[{tag}] nothing partially applied");
        assert_eq!(diags.len(), 1, "[{tag}]");
        assert!(
            matches!(diags[0], StoreDiagnostic::Corrupt { .. }),
            "[{tag}] got {}",
            diags[0]
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn future_versions_classify_as_version_unknown() {
    let _isolate = failpoints::scope();
    let dir = temp_dir("future");
    for (tag, blob) in corpus() {
        let future = blob.replacen(
            &format!("\"version\":{}", &blob[11..12]),
            "\"version\":99",
            1,
        );
        assert!(future.contains("\"version\":99"), "[{tag}] rewrite applied");
        let path = dir.join(format!("{tag}.json"));
        fs::write(&path, &future).unwrap();
        let (w, diags) = Wisdom::load_or_default(&path);
        assert!(w.is_empty(), "[{tag}]");
        assert_eq!(diags.len(), 1, "[{tag}]");
        match &diags[0] {
            StoreDiagnostic::VersionUnknown { version, .. } => {
                assert_eq!(*version, 99, "[{tag}]")
            }
            other => panic!("[{tag}] expected VersionUnknown, got {other}"),
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_blob_with_one_bad_entry_is_never_partially_applied() {
    // Two entries, the second carrying an invalid plan: from_json must
    // fail as a whole (no partial application), and load_or_default must
    // degrade to empty.
    let _isolate = failpoints::scope();
    let blob = "{\"version\":1,\"entries\":[\
                 {\"n\":4,\"backend\":\"x\",\"plan\":\"split[small[2],small[2]]\"},\
                 {\"n\":3,\"backend\":\"x\",\"plan\":\"small[\"}]}";
    assert!(Wisdom::from_json(blob).is_err());
    let dir = temp_dir("partial");
    let path = dir.join("two-entry.json");
    fs::write(&path, blob).unwrap();
    let (w, diags) = Wisdom::load_or_default(&path);
    assert!(
        w.get(4, "x").is_none(),
        "the good first entry must not survive a bad blob"
    );
    assert!(w.is_empty());
    assert_eq!(diags.len(), 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn an_entry_past_max_n_is_a_typed_diagnostic_not_a_panic() {
    // `n` comes straight from the file; 70 is past MAX_N and past the
    // width of a shift, so deriving the entry's length from it must not
    // happen before the range check.
    let _isolate = failpoints::scope();
    let blob = "{\"version\":7,\"entries\":[{\"n\":70,\"backend\":\"x\",\
                \"plan\":\"split[small[2],small[2]]\"}]}";
    assert_eq!(
        Wisdom::from_json(blob).unwrap_err(),
        WhtError::SizeTooLarge { n: 70 }
    );
    let dir = temp_dir("oversized");
    // The legacy blob loader degrades to empty wisdom plus a diagnostic.
    let path = dir.join("oversized.json");
    fs::write(&path, blob).unwrap();
    let (w, diags) = Wisdom::load_or_default(&path);
    assert!(w.is_empty());
    assert_eq!(diags.len(), 1);
    assert!(
        matches!(diags[0], StoreDiagnostic::Corrupt { .. }),
        "got {}",
        diags[0]
    );
    // So does the sharded store's payload path.
    let root = dir.join("store");
    fs::create_dir_all(&root).unwrap();
    fs::write(root.join("n70-x.shard"), encode_shard(1, blob.as_bytes())).unwrap();
    let loaded = ShardedStore::open(&root).unwrap().load();
    assert!(loaded.wisdom.is_empty());
    assert_eq!(loaded.diagnostics.len(), 1);
    assert!(
        matches!(loaded.diagnostics[0], StoreDiagnostic::Corrupt { .. }),
        "got {}",
        loaded.diagnostics[0]
    );
    let _ = fs::remove_dir_all(&dir);
}
