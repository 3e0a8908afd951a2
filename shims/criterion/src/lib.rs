//! Offline shim for `criterion`.
//!
//! Provides the `Criterion`/`BenchmarkGroup`/`Bencher` surface the workspace's
//! benches use, timing each benchmark with `std::time::Instant` over a bounded
//! number of iterations and printing one line per benchmark:
//!
//! ```text
//! bench <group>/<id>: mean 1.234ms over 10 iters (thrpt 8104.2 elem/s)
//! ```
//!
//! No statistical analysis or plots — this exists so `cargo bench` runs offline
//! and produces comparable wall-clock numbers. When `BENCH_JSON_DIR` is set,
//! each group additionally writes `BENCH_<group>.json` there so successive runs
//! can track a trajectory.

use std::fmt;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Re-export matching `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Throughput annotation for a group.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Identifier for one benchmark within a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `name/parameter` form.
    pub fn new(name: impl fmt::Display, parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId { id: format!("{name}/{parameter}") }
    }

    /// Parameter-only form.
    pub fn from_parameter(parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId { id: parameter.to_string() }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id)
    }
}

/// Passed to the closure under test; `iter` runs and times the payload.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Run `routine` for the configured iterations, recording total elapsed time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// A named collection of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: u64,
    throughput: Option<Throughput>,
    results: Vec<BenchResult>,
}

/// One benchmark's measurement, kept for the JSON trajectory file.
struct BenchResult {
    id: String,
    mean_secs: f64,
    iters: u64,
    throughput_per_sec: Option<f64>,
}

impl BenchmarkGroup<'_> {
    /// Set the iteration count per benchmark (criterion's sample count analogue).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n as u64;
        self
    }

    /// Set measurement time; accepted and ignored by the shim.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Annotate throughput for the following benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Run a benchmark.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(&id.to_string(), |b| f(b));
        self
    }

    /// Run a benchmark with an input reference.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(&id.to_string(), |b| f(b, input));
        self
    }

    fn run(&mut self, id: &str, mut f: impl FnMut(&mut Bencher)) {
        // `BENCH_ITERS` forces the iteration count, overriding both the
        // group's `sample_size` and the driver cap: single-shot 10-iter means
        // on millisecond cells carry several percent of scheduler noise.
        let iters = match std::env::var("BENCH_ITERS").ok().and_then(|s| s.parse::<u64>().ok()) {
            Some(n) => n.max(1),
            None => self.sample_size.clamp(1, self.criterion.max_iters),
        };
        // `BENCH_BEST_OF=k` repeats the whole sample k times and keeps the
        // fastest mean. Background load only ever slows a run down, so the
        // minimum is the noise-robust estimate of the true cost.
        let best_of = std::env::var("BENCH_BEST_OF")
            .ok()
            .and_then(|s| s.parse::<u32>().ok())
            .unwrap_or(1)
            .max(1);
        let mut mean = f64::INFINITY;
        for _ in 0..best_of {
            let mut bencher = Bencher { iters, elapsed: Duration::ZERO };
            f(&mut bencher);
            mean = mean.min(bencher.elapsed.as_secs_f64() / iters as f64);
        }
        let per_sec = match self.throughput {
            Some(Throughput::Elements(n)) | Some(Throughput::Bytes(n)) if mean > 0.0 => {
                Some(n as f64 / mean)
            }
            _ => None,
        };
        let thrpt = match (self.throughput, per_sec) {
            (Some(Throughput::Elements(_)), Some(r)) => format!(" (thrpt {r:.1} elem/s)"),
            (Some(Throughput::Bytes(_)), Some(r)) => {
                format!(" (thrpt {:.1} MiB/s)", r / (1024.0 * 1024.0))
            }
            _ => String::new(),
        };
        println!("bench {}/{id}: mean {:.6}s over {iters} iters{thrpt}", self.name, mean);
        self.results.push(BenchResult {
            id: id.to_string(),
            mean_secs: mean,
            iters,
            throughput_per_sec: per_sec,
        });
    }

    /// Finish the group. With `BENCH_JSON_DIR` set, write the group's results to
    /// `BENCH_<group>.json` in that directory (best effort; benches never fail
    /// on trajectory I/O).
    ///
    /// With `BENCH_KEEP_MIN=1` the write merges with an existing file instead of
    /// replacing it: each id keeps the faster of the old and new mean. `BENCH_BEST_OF`
    /// already takes a min *within* one process, but its samples are adjacent in
    /// time, so a load transient (or CPU-frequency drift) spanning one group's
    /// measurement window still skews cross-group comparisons. Re-running the
    /// whole binary several times minutes apart and min-merging decorrelates
    /// that — each id's min converges on its true cost independently of when
    /// its group happened to run.
    pub fn finish(mut self) {
        let Ok(dir) = std::env::var("BENCH_JSON_DIR") else { return };
        if dir.is_empty() || self.results.is_empty() {
            return;
        }
        let slug: String = self
            .name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
            .collect();
        let path = std::path::Path::new(&dir).join(format!("BENCH_{slug}.json"));
        if std::env::var("BENCH_KEEP_MIN").is_ok_and(|v| v == "1") {
            if let Ok(existing) = std::fs::read_to_string(&path) {
                for r in &mut self.results {
                    if let Some(old) = extract_mean_secs(&existing, &r.id) {
                        if old < r.mean_secs {
                            // Throughput is n/mean with n fixed, so it rescales.
                            if let Some(t) = &mut r.throughput_per_sec {
                                *t *= r.mean_secs / old;
                            }
                            r.mean_secs = old;
                        }
                    }
                }
            }
        }
        let mut json = format!("{{\"group\":{:?},\"results\":[", self.name);
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "{{\"id\":{:?},\"mean_secs\":{:.9},\"iters\":{}",
                r.id, r.mean_secs, r.iters
            );
            if let Some(t) = r.throughput_per_sec {
                let _ = write!(json, ",\"throughput_per_sec\":{t:.3}");
            }
            json.push('}');
        }
        json.push_str("]}\n");
        let _ = std::fs::create_dir_all(&dir);
        let _ = std::fs::write(path, json);
    }
}

/// Pull `"mean_secs":<x>` for `"id":<id>` out of a `BENCH_*.json` file this shim
/// wrote earlier. Fixed-format scan, not a JSON parser: keys appear in the order
/// `finish` emits them, and ids never contain escapes.
fn extract_mean_secs(json: &str, id: &str) -> Option<f64> {
    let needle = format!("{{\"id\":{id:?},\"mean_secs\":");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].parse().ok()
}

/// The benchmark driver.
pub struct Criterion {
    max_iters: u64,
}

impl Default for Criterion {
    fn default() -> Self {
        // Keep offline benches bounded: honoring criterion's default 100 samples
        // on multi-second fixtures would take hours.
        Criterion { max_iters: 10 }
    }
}

impl Criterion {
    /// Open a benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        BenchmarkGroup {
            sample_size: self.max_iters,
            criterion: self,
            name,
            throughput: None,
            results: Vec::new(),
        }
    }

    /// Run a standalone benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut group = self.benchmark_group("bench");
        group.bench_function(id, &mut f);
        group.finish();
        self
    }

    /// Mirror of criterion's config hook; accepted and ignored.
    pub fn configure_from_args(self) -> Self {
        self
    }
}

/// Define a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $(
                $target(&mut criterion);
            )+
        }
    };
}

/// Define `main` from group-runner functions.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $(
                $group();
            )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_times_and_prints() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        group.throughput(Throughput::Elements(100));
        let mut calls = 0u64;
        group.bench_function("counting", |b| {
            b.iter(|| {
                calls += 1;
                calls
            })
        });
        group.bench_with_input(BenchmarkId::from_parameter(7), &7u64, |b, &x| {
            b.iter(|| x * 2)
        });
        group.finish();
        assert_eq!(calls, 3, "sample_size(3) must run exactly 3 iterations");
    }

    #[test]
    fn mean_extraction_matches_emitted_format() {
        let json = "{\"group\":\"g\",\"results\":[{\"id\":\"a/30\",\"mean_secs\":0.015000000,\"iters\":20,\"throughput_per_sec\":2000.000},{\"id\":\"a/120\",\"mean_secs\":0.061000000,\"iters\":20}]}\n";
        assert_eq!(extract_mean_secs(json, "a/30"), Some(0.015));
        assert_eq!(extract_mean_secs(json, "a/120"), Some(0.061));
        assert_eq!(extract_mean_secs(json, "a/7"), None);
    }

    #[test]
    fn id_forms() {
        assert_eq!(BenchmarkId::new("a", 5).to_string(), "a/5");
        assert_eq!(BenchmarkId::from_parameter("x").to_string(), "x");
    }
}
