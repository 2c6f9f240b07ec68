//! The environment block: what the numbers were measured on.
//!
//! Latencies that include an fsync or a loopback round trip are this
//! sandbox's, not a device's or a network's; the block records enough
//! to tell two sandboxes apart.

use std::path::Path;
use std::process::Command;

use moma_server::Json;

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// File-system type of the mount holding `path`: the longest mount
/// point in `/proc/mounts` that is a prefix of it.
pub fn fs_type_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    fs_type_in(&mounts, &path)
}

fn fs_type_in(mounts: &str, path: &Path) -> String {
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), ty))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, ty)| ty.to_owned())
}

/// The environment block of one invocation.
pub fn block(seed: u64, seconds: f64) -> Json {
    let out = crate::common::out_dir();
    let _ = std::fs::create_dir_all(&out);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("nproc", Json::Uint(nproc as u64)),
        ("cpu_model", Json::Str(cpu_model())),
        ("rustc", Json::Str(first_line_of("rustc", &["--version"]))),
        (
            "git_commit",
            Json::Str(first_line_of(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            )),
        ),
        ("wal_fs_type", Json::Str(fs_type_of(&out))),
        ("threads", Json::Uint(crate::common::THREADS as u64)),
        ("seed", Json::Uint(seed)),
        ("seconds_per_workload", Json::Num(seconds)),
        (
            "note",
            Json::Str(
                "fsync and loopback latencies are this sandbox's, not a device's or a network's"
                    .into(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_mount_prefix_wins() {
        let mounts = "overlay / overlay rw 0 0\n\
                      /dev/vdb /root ext4 rw 0 0\n\
                      tmpfs /root/repo/benchmark/out tmpfs rw 0 0\n";
        let ty = |p: &str| fs_type_in(mounts, Path::new(p));
        assert_eq!(ty("/root/repo/benchmark/out/wal"), "tmpfs");
        assert_eq!(ty("/root/repo"), "ext4");
        assert_eq!(ty("/tmp/x"), "overlay");
        assert_eq!(fs_type_in("", Path::new("/x")), "unknown");
    }

    #[test]
    fn block_names_the_machine() {
        let b = block(7, 12.0);
        assert!(b.get("nproc").and_then(Json::as_u64).unwrap() >= 1);
        assert_eq!(b.get("seed").and_then(Json::as_u64), Some(7));
        assert!(b.str_field("wal_fs_type").is_some());
    }
}
