//! Facts about this process and its build: memory, CPU time, revision.

use std::path::{Path, PathBuf};

/// Clock ticks per second of `/proc/self/stat` CPU times (`USER_HZ`, 100 on
/// every mainstream Linux build).
pub const TICKS_PER_SEC: u64 = 100;

/// User plus system CPU time of the whole process, in clock ticks.
pub fn cpu_ticks() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name: state is the first,
    // utime the 12th and stime the 13th.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    field(11) + field(12)
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The repository root (the benchmark package's parent directory).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// The commit checked out in the repository, read from its `.git`
/// directory (no `git` process, nothing outside the checkout); `None`
/// outside a git checkout.
pub fn git_rev() -> Option<String> {
    let git = repo_root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    // A packed ref: lines of "<rev> <name>".
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)?
            .strip_suffix(' ')
            .map(str::to_string)
    })
}

/// FNV-1a digest of the sources the benchmark builds from (every crate,
/// shim and manifest, and the benchmark itself), so a record identifies
/// the code it measured even where there is no git revision.
pub fn source_digest() -> String {
    let root = repo_root();
    let mut files = Vec::new();
    for top in ["crates", "shims", "perfbench/src"] {
        collect_files(&root.join(top), &mut files);
    }
    for top in [
        "Cargo.toml",
        "Cargo.lock",
        "perfbench/Cargo.toml",
        "perfbench/Cargo.lock",
    ] {
        files.push(root.join(top));
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for b in bytes {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            feed(
                f.strip_prefix(&root)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            feed(&bytes);
        }
    }
    format!("{h:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() && e.file_name() != "target" => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// Filesystem type of the mount holding `path` (from
/// `/proc/self/mountinfo`), e.g. `ext4` or `tmpfs`.
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let Some((pre, post)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fs)) = (pre.split(' ').nth(4), post.split(' ').next()) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), fs.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}
