//! `wht-wisdom` — operate a sharded wisdom store from the command line.
//!
//! ```text
//! wht-wisdom inspect <store-dir>              list every intact shard's entries
//! wht-wisdom fsck <store-dir>                 verify all shards, report damage (read-only)
//! wht-wisdom fsck <store-dir> --quarantine    ...and move damaged shards into quarantine/
//! wht-wisdom merge <out-dir> <in-dir>...      pool several stores into one
//! ```
//!
//! `inspect` and `fsck` never modify the store unless `--quarantine` is
//! passed; `merge` applies the store's keep-best rule (measured-fastest
//! per `(n, backend)` key when evidence exists, else newest write stamp)
//! and commits the merged result into `<out-dir>` as atomically written
//! shards under this host's fingerprint. Damaged input shards are
//! reported and skipped, never merged and never deleted. A store that
//! is only read — `inspect`'s and `fsck`'s `<store-dir>`, every merge
//! `<in-dir>` — must be an existing directory: a missing one is an error
//! naming the path, and nothing is created (only `<out-dir>` is). Exit
//! status is nonzero when `fsck` finds damage or any command cannot run.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use wht_search::{ShardedStore, StoreDiagnostic};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  wht-wisdom inspect <store-dir>\n  wht-wisdom fsck <store-dir> [--quarantine]\n  wht-wisdom merge <out-dir> <in-dir>..."
    );
    ExitCode::from(2)
}

fn report_damage(diagnostics: &[StoreDiagnostic]) {
    for diag in diagnostics {
        eprintln!("  BAD  {diag}");
    }
}

/// `Err` naming `dir` unless it is an existing directory. Stores that are
/// only read go through this before `ShardedStore::open`, which creates
/// missing directories for writers.
fn existing(dir: &str) -> Result<(), ExitCode> {
    if Path::new(dir).is_dir() {
        Ok(())
    } else {
        eprintln!("wht-wisdom: no store directory at {dir}");
        Err(ExitCode::FAILURE)
    }
}

fn cmd_inspect(dir: &str) -> ExitCode {
    if let Err(code) = existing(dir) {
        return code;
    }
    let store = match ShardedStore::open(dir) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("wht-wisdom: cannot open {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let loaded = store.fsck();
    println!(
        "store {dir}: {} intact shard(s), {} damaged, host fingerprint {}",
        loaded.shards_loaded,
        loaded.diagnostics.len(),
        store.host()
    );
    let mut keys = loaded.wisdom.entry_keys();
    keys.sort();
    for (n, backend) in keys {
        let plan = loaded
            .wisdom
            .get(n, &backend)
            .expect("listed key is present")
            .to_string();
        let evidence = match loaded.wisdom.measured_ns(n, &backend) {
            Some(ns) => format!("{ns} ns measured"),
            None => "no measurement".to_string(),
        };
        let provenance = match loaded.wisdom.provenance(n, &backend) {
            Some(p) => format!("; {}", p.explain(n)),
            None => String::new(),
        };
        println!("  n={n:<2} backend={backend}: {plan} ({evidence}){provenance}");
    }
    report_damage(&loaded.diagnostics);
    ExitCode::SUCCESS
}

fn cmd_fsck(dir: &str, quarantine: bool) -> ExitCode {
    if let Err(code) = existing(dir) {
        return code;
    }
    let store = match ShardedStore::open(dir) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("wht-wisdom: cannot open {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let loaded = if quarantine {
        let loaded = store.load();
        println!(
            "store {dir}: {} damaged shard(s) moved to quarantine/",
            loaded.quarantined
        );
        loaded
    } else {
        store.fsck()
    };
    println!(
        "store {dir}: {} intact shard(s), {} damaged",
        loaded.shards_loaded,
        loaded.diagnostics.len()
    );
    report_damage(&loaded.diagnostics);
    if loaded.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_merge(out_dir: &str, in_dirs: &[String]) -> ExitCode {
    if let Err(code) = in_dirs.iter().try_for_each(|dir| existing(dir)) {
        return code;
    }
    let store = match ShardedStore::open(out_dir) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("wht-wisdom: cannot open {out_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let extras: Vec<PathBuf> = in_dirs.iter().map(PathBuf::from).collect();
    let loaded = store.load_with(&extras);
    report_damage(&loaded.diagnostics);
    match store.save(&loaded.wisdom) {
        Ok(written) => {
            println!(
                "merged {} input store(s): {} shard(s) read, {} entr(ies) kept, {written} shard(s) committed to {out_dir}",
                in_dirs.len() + 1,
                loaded.shards_loaded,
                loaded.wisdom.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wht-wisdom: merge commit failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("inspect") if args.len() == 2 => cmd_inspect(&args[1]),
        Some("fsck") if args.len() == 2 => cmd_fsck(&args[1], false),
        Some("fsck") if args.len() == 3 && args[2] == "--quarantine" => cmd_fsck(&args[1], true),
        Some("merge") if args.len() >= 3 => cmd_merge(&args[1], &args[2..]),
        _ => usage(),
    }
}
