//! A criterion-free micro-benchmark harness: warmup to calibrate batch
//! size, then a median-of-N timer, emitting both human-readable lines and
//! a machine-readable `results/BENCH_<name>.json`.
//!
//! The API mirrors the slice of `criterion` the four bench files use
//! (`benchmark_group`, `bench_with_input`, `bench_function`,
//! `sample_size`, `BenchmarkId`), so a bench target is a plain binary
//! with `harness = false` and zero external dependencies.
//!
//! Pass `--smoke` (or set `EM_BENCH_SMOKE=1`) to shrink warmup and
//! sample counts to a seconds-scale sanity run.

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    pub group: String,
    pub id: String,
    pub median_ns: f64,
    pub samples: usize,
    pub iterations_per_sample: u64,
}

/// A set of results destined for one `BENCH_<name>.json` file.
#[derive(Debug, Clone)]
pub struct BenchReport {
    pub name: String,
    pub smoke: bool,
    pub results: Vec<BenchResult>,
}

impl BenchReport {
    pub fn new(name: &str, smoke: bool) -> Self {
        BenchReport {
            name: name.to_string(),
            smoke,
            results: Vec::new(),
        }
    }

    /// Serialise to JSON (hand-rolled: the schema is flat and the
    /// workspace is dependency-free).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"name\": {},\n", json_string(&self.name)));
        out.push_str(&format!("  \"smoke\": {},\n", self.smoke));
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"group\": {}, \"id\": {}, \"median_ns\": {:.1}, \
                 \"samples\": {}, \"iterations_per_sample\": {}}}{}\n",
                json_string(&r.group),
                json_string(&r.id),
                r.median_ns,
                r.samples,
                r.iterations_per_sample,
                if i + 1 == self.results.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write `results/BENCH_<name>.json` under the *workspace* root,
    /// creating the directory. Resolved from this crate's manifest dir
    /// rather than the CWD: `cargo bench` runs targets with the package
    /// directory as CWD, which would otherwise scatter JSONs under
    /// `crates/bench/results/`.
    pub fn write(&self) -> std::io::Result<std::path::PathBuf> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
            .join("results");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Timing knobs; smoke mode trades precision for wall-clock.
#[derive(Debug, Clone, Copy)]
struct Timing {
    warmup: Duration,
    target_sample: Duration,
    sample_size: usize,
}

impl Timing {
    fn standard(smoke: bool) -> Timing {
        if smoke {
            Timing {
                warmup: Duration::from_millis(10),
                target_sample: Duration::from_millis(2),
                sample_size: 5,
            }
        } else {
            Timing {
                warmup: Duration::from_millis(200),
                target_sample: Duration::from_millis(25),
                sample_size: 15,
            }
        }
    }
}

/// Entry point object; the `criterion_main!` expansion owns one per run.
pub struct Criterion {
    report: BenchReport,
    timing: Timing,
    filter: Option<String>,
}

/// `--smoke` on the command line or `EM_BENCH_SMOKE=1`.
pub fn smoke_requested() -> bool {
    std::env::args().any(|a| a == "--smoke" || a == "smoke")
        || std::env::var_os("EM_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// `--filter <name>` / `--filter=<name>` on the command line: run only
/// the benchmark groups whose name contains `<name>` (substring match),
/// e.g. `cargo bench --bench kernels -- --filter cosine`.
pub fn filter_requested() -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--filter" {
            return args.next();
        }
        if let Some(f) = a.strip_prefix("--filter=") {
            return Some(f.to_string());
        }
    }
    None
}

impl Criterion {
    pub fn new(name: &str) -> Self {
        // Smoke runs get their own report file (`BENCH_<name>_smoke.json`)
        // so a CI sanity pass never clobbers a full-precision baseline.
        let (name, smoke) = crate::run_name(name);
        Criterion {
            report: BenchReport::new(&name, smoke),
            timing: Timing::standard(smoke),
            filter: filter_requested(),
        }
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        let active = match &self.filter {
            Some(f) => name.contains(f.as_str()),
            None => true,
        };
        if active {
            eprintln!("group {name}");
        } else {
            eprintln!("group {name} (skipped by --filter)");
        }
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: None,
            active,
        }
    }

    /// Print the table and persist the JSON; called by `criterion_main!`.
    /// Filtered runs never write JSON — a partial result set must not
    /// clobber a committed full baseline.
    pub fn finalize(self) {
        if self.filter.is_some() {
            eprintln!("filtered run: JSON not written");
            return;
        }
        match self.report.write() {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write bench JSON: {e}"),
        }
    }
}

/// Identifier for one benchmark within a group.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
    active: bool,
}

impl BenchmarkGroup<'_> {
    /// Override the number of timed samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(3));
        self
    }

    pub fn bench_function<F>(&mut self, id: &str, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        self.run(id.to_string(), |b| f(b));
    }

    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(id.id, |b| f(b, input));
    }

    fn run<F>(&mut self, id: String, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        if !self.active {
            return;
        }
        let mut timing = self.criterion.timing;
        if let Some(n) = self.sample_size {
            if !self.criterion.report.smoke {
                timing.sample_size = n;
            }
        }
        let mut bencher = Bencher {
            timing,
            measurement: None,
        };
        f(&mut bencher);
        let Some((median_ns, iters)) = bencher.measurement else {
            eprintln!("  {id}: no measurement (b.iter never called)");
            return;
        };
        eprintln!("  {:<28} median {}", id, format_ns(median_ns));
        self.criterion.report.results.push(BenchResult {
            group: self.name.clone(),
            id,
            median_ns,
            samples: timing.sample_size,
            iterations_per_sample: iters,
        });
    }

    /// Kept for criterion API parity; results are flushed by `finalize`.
    pub fn finish(self) {}
}

pub struct Bencher {
    timing: Timing,
    /// `(median_ns_per_iter, iterations_per_sample)`.
    measurement: Option<(f64, u64)>,
}

impl Bencher {
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        // Warmup: run until the warmup budget elapses, estimating cost.
        let warmup_start = Instant::now();
        let mut warmup_iters: u64 = 0;
        while warmup_start.elapsed() < self.timing.warmup || warmup_iters == 0 {
            black_box(f());
            warmup_iters += 1;
        }
        let per_iter = warmup_start.elapsed().as_secs_f64() / warmup_iters as f64;

        // Batch size targeting `target_sample` per measurement.
        let iters = ((self.timing.target_sample.as_secs_f64() / per_iter).ceil() as u64).max(1);

        let mut samples: Vec<f64> = Vec::with_capacity(self.timing.sample_size);
        for _ in 0..self.timing.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            samples.push(start.elapsed().as_secs_f64() * 1e9 / iters as f64);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = if samples.len() % 2 == 1 {
            samples[samples.len() / 2]
        } else {
            (samples[samples.len() / 2 - 1] + samples[samples.len() / 2]) / 2.0
        };
        self.measurement = Some((median, iters));
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.1} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

/// Declares a group function running each benchmark function in order.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group(c: &mut $crate::harness::Criterion) {
            $($target(c);)+
        }
    };
}

/// Declares `main`: runs every group, then writes `BENCH_<target>.json`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::harness::Criterion::new(env!("CARGO_CRATE_NAME"));
            $($group(&mut c);)+
            c.finalize();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something_positive() {
        let mut b = Bencher {
            timing: Timing {
                warmup: Duration::from_micros(100),
                target_sample: Duration::from_micros(50),
                sample_size: 5,
            },
            measurement: None,
        };
        b.iter(|| (0..100u64).sum::<u64>());
        let (median, iters) = b.measurement.unwrap();
        assert!(median > 0.0);
        assert!(iters >= 1);
    }

    #[test]
    fn report_json_is_well_formed() {
        let mut report = BenchReport::new("unit \"test\"", true);
        report.results.push(BenchResult {
            group: "g".into(),
            id: "f/20".into(),
            median_ns: 1234.5,
            samples: 5,
            iterations_per_sample: 10,
        });
        let json = report.to_json();
        assert!(json.contains("\"name\": \"unit \\\"test\\\"\""));
        assert!(json.contains("\"median_ns\": 1234.5"));
        assert!(json.contains("\"smoke\": true"));
        // Balanced braces/brackets as a cheap structural check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn benchmark_ids_render_like_criterion() {
        assert_eq!(BenchmarkId::new("uniform", 80).id, "uniform/80");
        assert_eq!(BenchmarkId::from_parameter("logistic").id, "logistic");
    }
}
