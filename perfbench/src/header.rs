//! The run header: what was built, on which host, and what was served.

use std::path::Path;

use wht_core::CompiledPlan;

/// The commit checked out in the working directory, read from `.git`
/// without running git (the benchmark may run from a plain export).
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown (no .git in the working directory)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference} unresolved)"))
}

pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (rustc not on PATH)".into())
}

/// `(L2, last-level cache)` sizes of cpu0 from sysfs.
pub fn cache_sizes() -> (String, String) {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut levels: Vec<(u32, String)> = Vec::new();
    for i in 0..8 {
        let dir = base.join(format!("index{i}"));
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).map(|s| s.trim().to_string());
        let (Ok(level), Ok(size), Ok(kind)) = (read("level"), read("size"), read("type")) else {
            continue;
        };
        if kind == "Instruction" {
            continue;
        }
        if let Ok(level) = level.parse() {
            levels.push((level, size));
        }
    }
    let l2 = levels
        .iter()
        .find(|(l, _)| *l == 2)
        .map_or("unknown".into(), |(_, s)| s.clone());
    let llc = levels
        .iter()
        .max_by_key(|(l, _)| *l)
        .map_or("unknown".into(), |(l, s)| format!("{s} (L{l})"));
    (l2, llc)
}

/// Which lowering stages engaged in a schedule.
pub fn stage_flags(c: &CompiledPlan) -> String {
    let f = |b: bool| u8::from(b);
    format!(
        "fused={} relayout={} recodeleted={} simd={} batched={} streamed={} sweeps={}",
        f(c.is_fused()),
        f(c.has_relayout()),
        f(c.has_recodeleted()),
        f(c.is_simd()),
        f(c.is_batched()),
        f(c.has_streamed()),
        c.super_passes().len()
    )
}
