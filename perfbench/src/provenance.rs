//! Where and how a result was measured.

use std::fmt::Write as _;

/// The hardware, build and input identity of one run.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `model name` of the first CPU.
    pub cpu_model: String,
    /// Size of the last-level cache, as the kernel reports it.
    pub llc: String,
    /// `rustc --version` of the build.
    pub rustc: String,
    /// Cargo build profile.
    pub profile: String,
    /// Source revision, when the runner knows it.
    pub git_rev: String,
    /// UTC time of the run, ISO 8601.
    pub date: String,
    /// Slave ranks of the run.
    pub slaves: usize,
    /// Input seed.
    pub seed: u64,
    /// Workload name.
    pub workload: String,
    /// Mean serialized problem size times the distinct problems shipped.
    pub working_set_bytes: u64,
}

impl Provenance {
    /// Collect the host facts for a run.
    pub fn collect(workload: &str, seed: u64, slaves: usize, working_set_bytes: u64) -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Provenance {
            nproc: nproc(),
            cpu_model,
            llc: llc_size(),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            profile: env!("PERFBENCH_PROFILE").to_string(),
            git_rev: std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into()),
            date: utc_now(),
            slaves,
            seed,
            workload: workload.to_string(),
            working_set_bytes,
        }
    }

    /// One JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let strings = [
            ("workload", &self.workload),
            ("cpu_model", &self.cpu_model),
            ("llc", &self.llc),
            ("rustc", &self.rustc),
            ("profile", &self.profile),
            ("git_rev", &self.git_rev),
            ("date", &self.date),
        ];
        for (k, v) in strings {
            let _ = write!(out, "\"{k}\": \"{}\", ", escape(v));
        }
        let _ = write!(
            out,
            "\"nproc\": {}, \"slaves\": {}, \"seed\": {}, \"working_set_bytes\": {}}}",
            self.nproc, self.slaves, self.seed, self.working_set_bytes
        );
        out
    }
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The size of the highest-level cache of CPU 0.
fn llc_size() -> String {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let mut best: Option<(u32, String)> = None;
    for index in 0..8 {
        let dir = format!("{base}/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().unwrap_or(0);
        if best.as_ref().is_none_or(|(l, _)| level > *l) {
            best = Some((level, format!("L{level} {}", size.trim())));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, s)| s)
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    let (y, m, d) = civil_from_days(days as i64);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

/// Days since 1970-01-01 to a proleptic Gregorian date (H. Hinnant's
/// algorithm).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let y = yoe + era * 400 + i64::from(m <= 2);
    (y, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        assert_eq!(civil_from_days(19_782), (2024, 2, 29));
    }

    #[test]
    fn json_escapes_quotes() {
        let mut p = Provenance::collect("w", 1, 1, 0);
        p.cpu_model = "a \"b\"".into();
        assert!(p.to_json().contains("\"cpu_model\": \"a \\\"b\\\"\""));
    }
}
