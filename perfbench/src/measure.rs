//! Measurement helpers: the benchmark's one wall-clock source, order
//! statistics, peak RSS, outcome digests and the line protocol between the
//! benchmark process and the fresh child processes it runs workloads in.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The only wall-clock read in the benchmark. Every timing goes through
/// here, so the lint escape is in one place.
pub fn now() -> Instant {
    // detlint::allow(wall_clock): host time is the quantity this benchmark
    // measures; it never feeds a simulated result or an outcome digest.
    Instant::now()
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = now();
    let out = f();
    (out, secs(t0))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(quantile, value)`. Below twenty samples no percentile above the
/// median qualifies, so the maximum is reported with quantile 1.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (1.0, f64::NAN);
    }
    if n < 20 {
        return (1.0, v[n - 1]);
    }
    let idx = n - 11;
    ((idx + 1) as f64 / n as f64, v[idx])
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a over the exact bits of a simulated outcome. Floats are
/// hashed by bit pattern, so any drift in a result changes the digest.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.bytes(&x.to_le_bytes());
        self
    }

    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.u64(x.to_bits())
    }

    pub fn opt_f64(&mut self, x: Option<f64>) -> &mut Self {
        match x {
            Some(v) => self.u64(1).f64(v),
            None => self.u64(0),
        }
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
        self
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One child-process record: `@key value value ...` lines on stdout.
/// Floats print in Rust's shortest round-trip form, so nothing is lost.
#[derive(Default)]
pub struct Record(BTreeMap<String, Vec<String>>);

impl Record {
    pub fn put(&mut self, key: &str, values: impl IntoIterator<Item = impl ToString>) {
        self.0
            .entry(key.to_string())
            .or_default()
            .extend(values.into_iter().map(|v| v.to_string()));
    }

    pub fn put1(&mut self, key: &str, value: impl ToString) {
        self.put(key, [value]);
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, vs) in &self.0 {
            let _ = writeln!(out, "@{k} {}", vs.join(" "));
        }
        out
    }

    pub fn parse(stdout: &str) -> Record {
        let mut rec = Record::default();
        for line in stdout.lines() {
            if let Some(rest) = line.strip_prefix('@') {
                let mut parts = rest.split_whitespace();
                if let Some(key) = parts.next() {
                    rec.put(key, parts);
                }
            }
        }
        rec
    }

    pub fn strs(&self, key: &str) -> &[String] {
        self.0.get(key).map_or(&[], Vec::as_slice)
    }

    pub fn f64s(&self, key: &str) -> Vec<f64> {
        self.strs(key)
            .iter()
            .filter_map(|s| s.parse().ok())
            .collect()
    }

    pub fn f64(&self, key: &str) -> f64 {
        self.f64s(key).first().copied().unwrap_or(f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (0.9, 90.0));
        assert_eq!(tail(&v[..10]), (1.0, 10.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn records_round_trip() {
        let mut r = Record::default();
        r.put("wall", [0.1_f64, 1e-9]);
        r.put1("digest", "00ff");
        let back = Record::parse(&format!("noise\n{}", r.render()));
        assert_eq!(back.f64s("wall"), vec![0.1, 1e-9]);
        assert_eq!(back.strs("digest"), ["00ff"]);
    }
}
