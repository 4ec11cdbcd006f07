//! Case execution: deterministic seeding, panic capture, stream-level
//! shrinking, and persisted regression streams.

use crate::source::ChoiceSource;
use crate::strategy::Strategy;
use em_rngs::splitmix64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Why a single case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// A `prop_assert*` failed or the body panicked.
    Fail(String),
    /// A `prop_assume!` rejected the inputs; the case is not counted.
    Reject,
}

impl TestCaseError {
    pub fn fail(message: String) -> Self {
        TestCaseError::Fail(message)
    }

    pub fn reject() -> Self {
        TestCaseError::Reject
    }
}

/// Per-property configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of successful cases required (default 64; env
    /// `PROPCHECK_CASES` overrides).
    pub cases: u32,
    /// Abort if this many cases are rejected before `cases` pass.
    pub max_rejects: u32,
    /// Maximum number of candidate replays during shrinking.
    pub shrink_budget: u32,
    /// Persist shrunk counterexamples to `propcheck-regressions/` (also
    /// disabled by env `PROPCHECK_NO_PERSIST=1`).
    pub persist: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config::with_cases(64)
    }
}

impl Config {
    pub fn with_cases(cases: u32) -> Self {
        Config {
            cases,
            max_rejects: cases * 8 + 100,
            shrink_budget: 1024,
            persist: true,
        }
    }
}

enum CaseOutcome {
    Pass,
    Reject,
    Fail {
        message: String,
        value_debug: String,
    },
}

fn run_case<S, F>(strategy: &S, f: &F, source: &mut ChoiceSource) -> CaseOutcome
where
    S: Strategy,
    F: Fn(S::Value) -> Result<(), TestCaseError>,
{
    // Generation is inside the unwind guard too: a panicking prop_map
    // closure is a failing case to shrink, not a harness abort.
    match catch_unwind(AssertUnwindSafe(|| {
        let value = strategy.generate(source);
        let value_debug = format!("{value:?}");
        (f(value), value_debug)
    })) {
        Ok((Ok(()), _)) => CaseOutcome::Pass,
        Ok((Err(TestCaseError::Reject), _)) => CaseOutcome::Reject,
        Ok((Err(TestCaseError::Fail(message)), value_debug)) => CaseOutcome::Fail {
            message,
            value_debug,
        },
        Err(payload) => {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "test body panicked".to_string());
            CaseOutcome::Fail {
                message: format!("panic: {message}"),
                value_debug: "<unavailable: panicked during generation or run>".to_string(),
            }
        }
    }
}

/// Execute a property. Called by the [`crate::proptest!`] macro; panics
/// (failing the enclosing `#[test]`) on the first shrunk counterexample.
pub fn run<S, F>(config: Config, test_name: &str, manifest_dir: &str, strategy: &S, f: F)
where
    S: Strategy,
    F: Fn(S::Value) -> Result<(), TestCaseError>,
{
    let cases = std::env::var("PROPCHECK_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(config.cases);
    let base_seed = std::env::var("PROPCHECK_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| fnv1a(test_name));
    let regressions = RegressionFile::for_test(manifest_dir, test_name);

    // Replay persisted failures before generating anything new.
    for stream in regressions.load() {
        let mut source = ChoiceSource::replay(stream);
        if let CaseOutcome::Fail {
            message,
            value_debug,
        } = run_case(strategy, &f, &mut source)
        {
            panic!(
                "[propcheck] {test_name}: persisted regression still fails\n\
                 minimal input: {value_debug}\n{message}\n(file: {})",
                regressions.path.display()
            );
        }
    }

    let mut passed = 0u32;
    let mut rejected = 0u32;
    let mut case_index = 0u64;
    while passed < cases {
        let mut seed_state = base_seed ^ case_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let seed = splitmix64(&mut seed_state);
        case_index += 1;
        let mut source = ChoiceSource::random(seed);
        match run_case(strategy, &f, &mut source) {
            CaseOutcome::Pass => passed += 1,
            CaseOutcome::Reject => {
                rejected += 1;
                if rejected > config.max_rejects {
                    panic!(
                        "[propcheck] {test_name}: {rejected} cases rejected by prop_assume! \
                         before {cases} passed — generator and assumptions disagree"
                    );
                }
            }
            CaseOutcome::Fail { message, .. } => {
                let recorded = source.recorded().to_vec();
                let (stream, value_debug, message) =
                    shrink(&config, strategy, &f, recorded, message);
                let persisted = if config.persist {
                    regressions.persist(&stream)
                } else {
                    String::new()
                };
                panic!(
                    "[propcheck] {test_name} failed (seed {seed}, case {case_index})\n\
                     minimal input: {value_debug}\n{message}{persisted}"
                );
            }
        }
    }
}

/// Stream-level shrinking: delete draw blocks, zero blocks, then reduce
/// individual draws, keeping any candidate that still fails. Returns the
/// best stream with its regenerated value rendering and failure message.
fn shrink<S, F>(
    config: &Config,
    strategy: &S,
    f: &F,
    initial: Vec<u64>,
    initial_message: String,
) -> (Vec<u64>, String, String)
where
    S: Strategy,
    F: Fn(S::Value) -> Result<(), TestCaseError>,
{
    let mut best = initial;
    let mut best_message = initial_message;
    let mut best_debug = None; // lazily re-rendered at the end
    let mut budget = config.shrink_budget;

    // Returns Some((trimmed_stream, message)) if the candidate still fails.
    let mut attempt = |candidate: &[u64], budget: &mut u32| -> Option<(Vec<u64>, String)> {
        if *budget == 0 {
            return None;
        }
        *budget -= 1;
        let mut source = ChoiceSource::replay(candidate.to_vec());
        match run_case(strategy, f, &mut source) {
            // Keep only the draws generation actually consumed, so the
            // persisted stream carries no dead tail.
            CaseOutcome::Fail {
                message,
                value_debug,
            } => {
                best_debug = Some(value_debug);
                Some((source.recorded().to_vec(), message))
            }
            _ => None,
        }
    };

    loop {
        let mut improved = false;

        // Pass 1: delete blocks of draws (shortens collections/strings).
        for block in [32usize, 8, 4, 2, 1] {
            let mut start = 0;
            while start < best.len() {
                let end = (start + block).min(best.len());
                let candidate: Vec<u64> =
                    best[..start].iter().chain(&best[end..]).copied().collect();
                match attempt(&candidate, &mut budget) {
                    Some((stream, message)) => {
                        best = stream;
                        best_message = message;
                        improved = true;
                        // Do not advance: the next block slid into `start`.
                    }
                    None => start += block,
                }
            }
        }

        // Pass 2: zero blocks (drives values to range minimums).
        for block in [8usize, 4, 1] {
            let mut start = 0;
            while start < best.len() {
                let end = (start + block).min(best.len());
                if best[start..end].iter().all(|&v| v == 0) {
                    start += block;
                    continue;
                }
                let mut candidate = best.clone();
                candidate[start..end].fill(0);
                if let Some((stream, message)) = attempt(&candidate, &mut budget) {
                    best = stream;
                    best_message = message;
                    improved = true;
                }
                start += block;
            }
        }

        // Pass 3: halve individual draws, falling back to a single
        // decrement when halving overshoots past the failure boundary.
        let mut i = 0;
        while i < best.len() {
            while best[i] > 0 && budget > 0 {
                let halved = best[i] / 2;
                let mut candidate = best.clone();
                candidate[i] = halved;
                if let Some((stream, message)) = attempt(&candidate, &mut budget) {
                    best = stream;
                    best_message = message;
                    improved = true;
                } else if best[i] > halved + 1 {
                    let mut candidate = best.clone();
                    candidate[i] = best[i] - 1;
                    match attempt(&candidate, &mut budget) {
                        Some((stream, message)) => {
                            best = stream;
                            best_message = message;
                            improved = true;
                        }
                        None => break,
                    }
                } else {
                    break;
                }
                if i >= best.len() {
                    // A successful attempt trimmed the stream below i.
                    break;
                }
            }
            i += 1;
        }

        if !improved || budget == 0 {
            break;
        }
    }

    // Re-render the minimal value if no shrink attempt succeeded.
    let debug = best_debug.unwrap_or_else(|| {
        let mut source = ChoiceSource::replay(best.clone());
        format!("{:?}", strategy.generate(&mut source))
    });
    (best, debug, best_message)
}

/// Persisted regression streams for one property, one file per test under
/// `<crate>/propcheck-regressions/`.
struct RegressionFile {
    path: PathBuf,
}

impl RegressionFile {
    fn for_test(manifest_dir: &str, test_name: &str) -> Self {
        let file: String = test_name
            .chars()
            .map(|c| {
                if c.is_alphanumeric() || c == '_' {
                    c
                } else {
                    '-'
                }
            })
            .collect();
        RegressionFile {
            path: PathBuf::from(manifest_dir)
                .join("propcheck-regressions")
                .join(format!("{file}.txt")),
        }
    }

    fn load(&self) -> Vec<Vec<u64>> {
        let Ok(text) = std::fs::read_to_string(&self.path) else {
            return Vec::new();
        };
        text.lines()
            .filter_map(|line| {
                let rest = line.trim().strip_prefix("cc ")?;
                rest.split(',')
                    .map(|v| v.trim().parse::<u64>().ok())
                    .collect()
            })
            .collect()
    }

    /// Append the stream (deduplicated); returns a note for the panic
    /// message. Set `PROPCHECK_NO_PERSIST=1` to disable.
    fn persist(&self, stream: &[u64]) -> String {
        if std::env::var_os("PROPCHECK_NO_PERSIST").is_some() {
            return String::new();
        }
        let line = format!(
            "cc {}",
            stream
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        let existing = std::fs::read_to_string(&self.path).unwrap_or_default();
        if existing.lines().any(|l| l.trim() == line) {
            return format!(
                "\n(regression already persisted in {})",
                self.path.display()
            );
        }
        let header = if existing.is_empty() {
            "# propcheck regression streams: shrunk choice streams of past\n\
             # failures, replayed before new cases on every run. Check in.\n"
        } else {
            ""
        };
        if let Some(dir) = self.path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&self.path, format!("{existing}{header}{line}\n")) {
            Ok(()) => format!("\n(regression persisted to {})", self.path.display()),
            Err(e) => format!("\n(could not persist regression: {e})"),
        }
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_to_completion() {
        run(
            Config::with_cases(64),
            "runner::always_passes",
            env!("CARGO_MANIFEST_DIR"),
            &(0u64..100),
            |n| {
                assert!(n < 100);
                Ok(())
            },
        );
    }

    #[test]
    fn failing_property_panics_with_minimal_case() {
        let result = catch_unwind(|| {
            run(
                Config {
                    persist: false,
                    ..Config::with_cases(64)
                },
                "runner::fails_above_ten",
                env!("CARGO_MANIFEST_DIR"),
                &(0u64..1000),
                |n| {
                    if n > 10 {
                        Err(TestCaseError::fail(format!("{n} too big")))
                    } else {
                        Ok(())
                    }
                },
            );
        });
        let message = match result {
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default(),
            Ok(()) => panic!("property should have failed"),
        };
        // The unique minimal failing case is 11.
        assert!(message.contains("minimal input: 11"), "got: {message}");
    }

    #[test]
    fn shrinking_reduces_vectors_to_the_boundary() {
        let strategy = (crate::collection::vec(0u64..1000, 0..20),);
        let result = catch_unwind(|| {
            run(
                Config {
                    persist: false,
                    ..Config::with_cases(200)
                },
                "runner::sum_overflows",
                env!("CARGO_MANIFEST_DIR"),
                &strategy,
                |(v,)| {
                    if v.iter().sum::<u64>() >= 1000 {
                        Err(TestCaseError::fail("sum too big".into()))
                    } else {
                        Ok(())
                    }
                },
            );
        });
        let message = match result {
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default(),
            Ok(()) => panic!("property should have failed"),
        };
        // A minimal-ish counterexample is a short vector with sum just
        // over the boundary — shrinking must get below 3 elements.
        let open = message.find('[').expect("vector in message");
        let close = message.find(']').unwrap();
        let elements: Vec<&str> = message[open + 1..close]
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .collect();
        assert!(elements.len() <= 2, "poorly shrunk: {message}");
    }

    #[test]
    fn rejects_are_not_counted_as_passes() {
        let counter = std::cell::Cell::new(0u32);
        run(
            Config::with_cases(32),
            "runner::rejects_half",
            env!("CARGO_MANIFEST_DIR"),
            &(0u64..100),
            |n| {
                if n % 2 == 0 {
                    Err(TestCaseError::reject())
                } else {
                    counter.set(counter.get() + 1);
                    Ok(())
                }
            },
        );
        assert_eq!(counter.get(), 32);
    }

    #[test]
    fn panics_in_the_body_are_failures_not_aborts() {
        let result = catch_unwind(|| {
            run(
                Config {
                    persist: false,
                    ..Config::with_cases(16)
                },
                "runner::body_panics",
                env!("CARGO_MANIFEST_DIR"),
                &(0u64..10),
                |n| {
                    assert!(n >= 100, "boom {n}");
                    Ok(())
                },
            );
        });
        let message = match result {
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default(),
            Ok(()) => panic!("property should have failed"),
        };
        assert!(message.contains("panic: boom"), "got: {message}");
    }

    #[test]
    fn regression_file_round_trips() {
        let dir = std::env::temp_dir().join("propcheck-test-regressions");
        let _ = std::fs::remove_dir_all(&dir);
        let file = RegressionFile::for_test(dir.to_str().unwrap(), "mod::case");
        assert!(file.load().is_empty());
        file.persist(&[1, 2, 3]);
        file.persist(&[1, 2, 3]); // duplicate ignored
        file.persist(&[9]);
        assert_eq!(file.load(), vec![vec![1, 2, 3], vec![9]]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
