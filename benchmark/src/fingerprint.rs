//! The box a result was measured on. `compare` refuses two result files
//! whose fingerprints differ: a number from another machine, governor,
//! filesystem or compiler is not a baseline.

use std::path::Path;
use std::process::Command;

use crate::json::{Json, JsonExt};

/// Keys `compare` requires to be equal. The git commit is recorded but not
/// compared: two commits are exactly what one compares.
pub const COMPARED_KEYS: [&str; 5] = ["nproc", "cpu_model", "governor", "work_dir_fs", "rustc"];

fn first_line(text: &str) -> String {
    text.lines().next().unwrap_or("").trim().to_string()
}

/// Standard output of a command, or "unknown" when it cannot run (the
/// driver's checkout is not a git repository, for one).
fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| first_line(&String::from_utf8_lossy(&out.stdout)))
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn governor() -> String {
    std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .map(|g| first_line(&g))
        .unwrap_or_else(|_| "unreadable".into())
}

/// Filesystem type of the mount holding `dir` (longest mount-point prefix
/// in `/proc/mounts`).
pub fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".into())
}

/// The fingerprint object written at the top of every result file.
pub fn fingerprint(work_dir: &Path) -> Json {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::str(cpu_model())),
        ("governor", Json::str(governor())),
        ("work_dir_fs", Json::str(filesystem_of(work_dir))),
        (
            "rustc",
            Json::str(command_line("rustc", &["-V"], manifest_dir)),
        ),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"], manifest_dir)),
        ),
    ])
}
