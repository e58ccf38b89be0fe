//! Host measurements (process CPU time, peak RSS) and run provenance.

use std::path::Path;

use gps_types::Json;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process, all threads included (ended
/// threads too). `None` where `/proc/self/stat` is unavailable.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MiB; `None` when unreadable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Host threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The 1-minute load average, when readable.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The commit checked out in `root`, read from its `.git` directory;
/// `None` when `root` is not a git checkout.
pub fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_owned())
    })
}

/// Where a run came from and on what host it ran.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// `--trace`.
    pub trace: bool,
    /// Host threads available.
    pub nproc: usize,
    /// 1-minute load average when the run started.
    pub load_average: Option<f64>,
    /// Git commit of the checkout, if it is one.
    pub git_commit: Option<String>,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Whether `VmHWM` could be read.
    pub vmhwm_readable: bool,
    /// Untimed warm-up batches before the timed ones.
    pub warmup_reps: u32,
    /// Timed set-up passes.
    pub setup_reps: u32,
}

impl Provenance {
    /// Collects the host facts for a run of `workload` from `root`, with
    /// the load average read when the run started.
    pub fn collect(
        root: &Path,
        workload: &str,
        seed: u64,
        seconds: u64,
        trace: bool,
        load_at_start: Option<f64>,
    ) -> Provenance {
        Provenance {
            workload: workload.to_owned(),
            seed,
            seconds,
            trace,
            nproc: nproc(),
            load_average: load_at_start,
            git_commit: git_commit(root),
            rustc: env!("BENCH_RUSTC_VERSION"),
            vmhwm_readable: peak_rss_mb().is_some(),
            warmup_reps: 0,
            setup_reps: 0,
        }
    }

    /// As a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("seconds".into(), Json::Num(self.seconds as f64)),
            ("trace".into(), Json::Bool(self.trace)),
            ("nproc".into(), Json::Num(self.nproc as f64)),
            (
                "load_average".into(),
                self.load_average.map_or(Json::Null, Json::Num),
            ),
            (
                "git_commit".into(),
                self.git_commit.clone().map_or(Json::Null, Json::Str),
            ),
            ("rustc".into(), Json::Str(self.rustc.into())),
            ("vmhwm_readable".into(), Json::Bool(self.vmhwm_readable)),
            ("warmup_reps".into(), Json::Num(f64::from(self.warmup_reps))),
            ("setup_reps".into(), Json::Num(f64::from(self.setup_reps))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_are_readable_on_linux() {
        let before = cpu_seconds().unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(cpu_seconds().unwrap() >= before);
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(nproc() >= 1);
    }

    #[test]
    fn no_commit_outside_a_git_checkout() {
        assert_eq!(git_commit(Path::new("src")), None);
    }
}
