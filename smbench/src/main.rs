//! End-to-end benchmark of StreamMine-RS.
//!
//! ```text
//! smbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run starts fresh systems one trial after another (see `trial.rs`):
//! each trial paces an open-loop stream generated from the seed, injects
//! the workload's fault at a seeded event, waits for every event to become
//! final and checks the outputs against a failure-free in-process
//! reference. With `--trace 0` the last line of stdout is a JSON object
//! with the end-to-end metrics; with `--trace 1` the trials alternate
//! between traced and untraced, the per-layer probes run, and the JSON
//! holds the per-layer metrics. A human-readable report goes to stderr.

mod layers;
mod overload;
mod probes;
mod spans;
mod stats;
mod system;
mod trial;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use streammine::common::rng::DetRng;

use spans::{Spans, NO_EVENT};
use stats::{median, percentile, trimmed_mean};
use trial::TrialOut;
use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Prints `msg` and exits non-zero without a result line.
pub fn fail(msg: &str) -> ! {
    eprintln!("smbench: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .unwrap_or_else(|| fail(&format!("missing {flag}")))
    };
    let workload = Workload::parse(get("--workload"))
        .unwrap_or_else(|| fail(&format!("unknown workload {}", get("--workload"))));
    let seed = get("--seed").parse().unwrap_or_else(|_| fail("--seed must be an integer"));
    let seconds: f64 =
        get("--seconds").parse().unwrap_or_else(|_| fail("--seconds must be a number"));
    let trace = match get("--trace").as_str() {
        "0" => false,
        "1" => true,
        other => fail(&format!("--trace must be 0 or 1, got {other}")),
    };
    Args { workload, seed, seconds, trace }
}

/// The worker binary built next to this one.
pub fn worker_bin() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("current_exe: {e}")));
    let bin = exe.with_file_name("smbench_worker");
    if !bin.exists() {
        fail(&format!("worker binary missing at {}", bin.display()));
    }
    bin
}

/// Share of chunks or trials dropped at each end before averaging: the
/// interquartile mean. Trials here fall into regimes ~25% apart (thread
/// placement on two cores, host load), and a median flips between them
/// when they are about equally common; the interquartile mean moves
/// smoothly with the regime mix and ignores a quarter of outliers on
/// either side.
const TRIM: f64 = 0.25;

/// Chunks with at most this share of CPU time stolen by the host count as
/// undisturbed: one clock tick of two CPUs over ~100 ms.
const STEAL_SPARED: f64 = 0.05;

/// The items whose share of stolen CPU time is at most the 10th
/// percentile of `items`, or at most [`STEAL_SPARED`].
fn least_stolen<T>(items: &[T], steal: impl Fn(&T) -> f64) -> impl Iterator<Item = &T> {
    let cutoff = percentile(&items.iter().map(&steal).collect::<Vec<_>>(), 0.1).max(STEAL_SPARED);
    items.iter().filter(move |i| steal(i) <= cutoff)
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Results pooled over a run's trials.
#[derive(Default)]
pub struct Pooled {
    pub trials: Vec<TrialOut>,
    /// Set-up times (s) of systems started only to time their set-up.
    pub extra_setups: Vec<f64>,
}

impl Pooled {
    pub fn attempted(&self) -> usize {
        self.trials.iter().map(|t| t.attempted).sum()
    }

    pub fn failed(&self) -> usize {
        self.trials.iter().map(|t| t.failed).sum()
    }

    /// Interquartile mean of one chunk quantile over the run's chunks with
    /// the least host CPU steal: those at or below the run's 10th
    /// percentile of steal, or below [`STEAL_SPARED`]. When the hypervisor
    /// takes CPU time from this machine, latency grows with the share it
    /// takes (fig6-skew at 24% mean steal: p50 3.0 ms in the least-stolen
    /// tenth of chunks, 12 ms in the most-stolen), for reasons outside the
    /// program.
    pub fn over_chunks(&self, f: impl Fn(&trial::Chunk) -> f64) -> f64 {
        let chunks: Vec<&trial::Chunk> = self.trials.iter().flat_map(|t| t.chunks.iter()).collect();
        let kept: Vec<f64> = least_stolen(&chunks, |c| c.steal).map(|c| f(c)).collect();
        trimmed_mean(&kept, TRIM)
    }

    /// Share of CPU time the host stole over the run's chunks.
    pub fn steal_ratio(&self) -> f64 {
        let steal: Vec<f64> =
            self.trials.iter().flat_map(|t| t.chunks.iter().map(|c| c.steal)).collect();
        steal.iter().sum::<f64>() / steal.len().max(1) as f64
    }

    /// Interquartile mean of one recovery figure over the trials with the
    /// least host CPU steal around their fault, by the rule of
    /// [`Pooled::over_chunks`].
    fn over_trials(&self, f: impl Fn(&TrialOut) -> f64) -> f64 {
        let kept: Vec<f64> = least_stolen(&self.trials, |t| t.recovery_steal).map(f).collect();
        trimmed_mean(&kept, TRIM)
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let setups: Vec<f64> = self
            .trials
            .iter()
            .map(|t| t.setup_s)
            .chain(self.extra_setups.iter().copied())
            .collect();
        vec![
            ("final_p50_us", self.over_chunks(|c| c.final_p50_us), "us"),
            ("first_arrival_p50_us", self.over_chunks(|c| c.first_p50_us), "us"),
            ("recovery_first_output_ms", self.over_trials(|t| t.recovery_first_ms), "ms"),
            ("recovery_complete_ms", self.over_trials(|t| t.recovery_complete_ms), "ms"),
            ("setup_s", median(&setups), "s"),
            ("peak_rss_mb", stats::peak_rss_mb(), "MB"),
        ]
    }
}

/// Runs `count` trials of `w` with inputs from `seed`; `traced(i)` says
/// which trials record spans. Returns the untraced and traced trials.
pub fn run_trials(
    w: Workload,
    seed: u64,
    count: usize,
    traced: impl Fn(usize) -> bool,
    spans: &mut Spans,
) -> (Pooled, Pooled) {
    let bin = worker_bin();
    let mut master = DetRng::seed_from(seed ^ 0x5eed_b3c4);
    let (mut plain, mut with_spans) = (Pooled::default(), Pooled::default());
    for i in 0..count {
        let mut rng = master.fork();
        let plan = w.plan(&mut rng, i, count);
        let inputs = w.inputs(&mut rng, plan.events());
        let reference = w.reference(&inputs);
        let on = traced(i);
        let mut no_spans = Spans::new(false);
        let rec: &mut Spans = if on { spans } else { &mut no_spans };
        let root = rec.open("trial", NO_EVENT, None);
        let out = trial::run(
            i as u64,
            plan.clone(),
            &inputs,
            w.check(&reference),
            &|| w.build(&bin),
            rec,
            root,
        );
        rec.close(root);
        let stolen = out.chunks.iter().filter(|c| c.steal > 0.0).count();
        eprintln!(
            "  trial {i}{}: {} events, fault at {}, setup {:.1} ms, final p50 {:.0} us \
             ({stolen} of {} chunks with host steal), recovery first {:.1} ms / complete \
             {:.1} ms ({:.0}% stolen), failed {}",
            if on { " (traced)" } else { "" },
            plan.events(),
            plan.fault_at,
            out.setup_s * 1e3,
            median(&out.final_us),
            out.chunks.len(),
            out.recovery_first_ms,
            out.recovery_complete_ms,
            100.0 * out.recovery_steal,
            out.failed
        );
        if on {
            with_spans.trials.push(out);
        } else {
            plain.trials.push(out);
        }
    }
    (plain, with_spans)
}

/// Set-up times (s) of `reps` systems started and stopped at once.
fn setup_only(w: Workload, reps: usize) -> Vec<f64> {
    let bin = worker_bin();
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            let system = w.build(&bin);
            let setup = t.elapsed().as_secs_f64();
            system.shutdown();
            setup
        })
        .collect()
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let value = if value.is_finite() { format!("{value}") } else { "null".into() };
        let _ = write!(m, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{m}}}}}"
    )
}

fn report(title: &str, metrics: &[Metric]) {
    eprintln!("{title}");
    for (name, value, unit) in metrics {
        eprintln!("  {name:<40} {value:>14.3} {unit}");
    }
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    let trials = w.trials(args.seconds);
    eprintln!(
        "smbench {} seed {} ({} trials, trace {})",
        w.name(),
        args.seed,
        trials,
        u8::from(args.trace)
    );

    let mut spans = Spans::new(args.trace);
    let (metrics, attempted, failed) = if args.trace {
        // Odd trials record spans, even ones do not: the overhead ratio
        // compares interleaved halves of the same run.
        let count = trials.max(4);
        let (plain, traced) = run_trials(w, args.seed, count, |i| i % 2 == 1, &mut spans);
        let metrics = layers::per_layer(w, args.seed, &plain, &traced, &mut spans);
        let attempted = plain.attempted() + traced.attempted();
        (metrics, attempted, plain.failed() + traced.failed())
    } else {
        let (mut plain, _) = run_trials(w, args.seed, trials, |_| false, &mut spans);
        plain.extra_setups = setup_only(w, w.setup_reps());
        (plain.end_to_end(), plain.attempted(), plain.failed())
    };

    report(
        &format!("{} ({})", w.name(), if args.trace { "per layer" } else { "end to end" }),
        &metrics,
    );
    eprintln!(
        "  {:<40} {:>14.6} ({failed} of {attempted} events)",
        "failed_ratio",
        failed as f64 / attempted.max(1) as f64
    );
    if args.trace {
        let dir = PathBuf::from("smbench/out");
        let path = dir.join(format!("spans-{}-{}.json", w.name(), args.seed));
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, spans.to_json())) {
            Ok(()) => eprintln!("wrote {} spans to {}", spans.len(), path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    let correct = failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    println!("{}", result_line(correct, attempted, failed, &metrics));
    // Threads of a wedged overload graph never return; exit without
    // joining them.
    std::process::exit(0);
}
