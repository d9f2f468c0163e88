//! `perf_ledger` — one seeded benchmark for CHOP's designer and service
//! paths, with per-layer attribution. See `README.md` next to this
//! package for the workloads, metrics, bounds and comparison rule.
//!
//! ```text
//! perf_ledger --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! perf_ledger --bless [--workload <name>]
//! ```
//!
//! With `--trace 0` a run prints its end-to-end metrics, with `--trace 1`
//! its per-layer metrics, each as `<workload> <metric> <value> <unit>`,
//! then a metadata line and, last, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod designer;
mod gen;
mod golden;
mod ledger;
mod service;

use std::path::{Path, PathBuf};
use std::process::Command;

use chop_service::json::{obj, Value};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;
/// Client connections (and threads) of the service workload, at most.
const CONNECTIONS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CliCold,
    Optimize,
    ServeExplore,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::CliCold, Workload::Optimize, Workload::ServeExplore];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CliCold => "cli_cold",
            Workload::Optimize => "optimize",
            Workload::ServeExplore => "serve_explore",
        }
    }

    fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

/// What a run needs to know.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The run's output directory (logs, corpus, server state).
    pub out: PathBuf,
    /// This executable, re-run as the designer child.
    pub exe: PathBuf,
    pub connections: usize,
}

/// What a run measured.
pub struct Report {
    pub setup_s: Vec<f64>,
    pub timed: ledger::Timed,
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer metrics of a traced run.
    pub layers: Option<Vec<(String, f64)>>,
    /// Extra metadata: op counts, log sizes, connection counts.
    pub notes: Vec<(String, String)>,
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
    /// `--child <workload>`: run as a designer workload's child.
    child: Option<Workload>,
    dir: Option<PathBuf>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 1991,
            seconds: 15.0,
            trace: false,
            bless: false,
            child: None,
            dir: None,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = Some(Workload::parse(value()?)?),
                "--seed" => {
                    args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?
                }
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                        return Err("--seconds must be in (0, 120]".to_owned());
                    }
                }
                "--trace" => args.trace = value()? == "1",
                "--bless" => args.bless = true,
                "--child" => args.child = Some(Workload::parse(value()?)?),
                "--dir" => args.dir = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(args)
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&argv) {
        eprintln!("perf_ledger: {e}");
        std::process::exit(1);
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv)?;
    if let Some(workload) = args.child {
        let dir = args.dir.ok_or("--child needs --dir")?;
        return designer::child(workload == Workload::Optimize, &dir, args.seconds, args.trace);
    }
    if args.bless {
        return bless(&args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]));
    }
    let workload = args.workload.ok_or("--workload is required")?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let ctx = Ctx {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out: out_dir(&exe, workload)?,
        exe,
        connections: CONNECTIONS.min(host_cpus),
    };
    assert!(ctx.connections <= host_cpus, "the client may use at most one thread per CPU");
    let report = measure(&ctx)?;
    print_report(&ctx, &report, host_cpus)
}

fn measure(ctx: &Ctx) -> Result<Report, String> {
    match ctx.workload {
        Workload::CliCold => designer::run(ctx, false),
        Workload::Optimize => designer::run(ctx, true),
        Workload::ServeExplore => service::run(ctx),
    }
}

/// `<target dir>/perf_ledger/<workload>`, emptied: inside the build
/// directory, so a run writes nothing a commit could pick up.
fn out_dir(exe: &Path, workload: Workload) -> Result<PathBuf, String> {
    let target =
        exe.parent().and_then(Path::parent).ok_or("cannot place the output directory")?;
    let out = target.join("perf_ledger").join(workload.name());
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(out)
}

/// The metrics a run prints: end-to-end without `--trace`, per-layer
/// with it (a layer that did no work on this workload reads 0).
fn metrics(ctx: &Ctx, report: &Report) -> Vec<(String, f64, &'static str)> {
    match &report.layers {
        Some(layers) if ctx.trace => ledger::per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let value = layers.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
                (name, value, unit)
            })
            .collect(),
        _ => ledger::END_TO_END
            .iter()
            .zip(ledger::end_to_end(&report.setup_s, &report.timed))
            .map(|(&(name, unit), value)| (name.to_owned(), value, unit))
            .collect(),
    }
}

fn print_report(ctx: &Ctx, report: &Report, host_cpus: usize) -> Result<(), String> {
    let metrics = metrics(ctx, report);
    for (name, value, unit) in &metrics {
        println!("{} {name} {value} {unit}", ctx.workload.name());
    }
    let correct = report.failed == 0 && report.attempted > 0;
    let result = ledger::result_json(correct, report.attempted, report.failed, &metrics);
    let mut text = String::new();
    meta(ctx, report, host_cpus).write(&mut text);
    text.push('\n');
    text.push_str(&result);
    text.push('\n');
    std::fs::write(ctx.out.join("result.ndjson"), &text).map_err(|e| e.to_string())?;
    print!("{text}");
    Ok(())
}

/// Run metadata: host, toolchain, commit, seed, op counts, and the
/// workload's own notes (corpus size, or connections and server flags).
fn meta(ctx: &Ctx, report: &Report, host_cpus: usize) -> Value {
    let first_line = |text: String| text.lines().next().unwrap_or("").trim().to_owned();
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")?.split(':').nth(1).map(str::trim).map(String::from)
            })
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), first_line);
    let output = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_owned(),
                |o| first_line(String::from_utf8_lossy(&o.stdout).into_owned()),
            )
    };
    // Only a checkout that is itself a repository names its commit.
    let commit = if Path::new(".git").exists() {
        output("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_owned()
    };
    let mut pairs = vec![
        ("workload", Value::Str(ctx.workload.name().to_owned())),
        ("seed", Value::Num(ctx.seed as f64)),
        ("seconds", Value::Num(ctx.seconds)),
        ("trace", Value::Bool(ctx.trace)),
        ("host_cpus", Value::Num(host_cpus as f64)),
        ("cpu_model", Value::Str(cpu_model)),
        ("kernel", Value::Str(kernel)),
        ("rustc", Value::Str(output("rustc", &["-V"]))),
        ("commit", Value::Str(commit)),
        ("ops", Value::Num(report.timed.ops.len() as f64)),
        ("attempted", Value::Num(report.attempted as f64)),
        ("setup_s", Value::Arr(report.setup_s.iter().map(|&s| Value::Num(s)).collect())),
    ];
    pairs.extend(report.notes.iter().map(|(k, v)| (k.as_str(), Value::Str(v.clone()))));
    obj(vec![("meta", obj(pairs))])
}

/// Rewrites the golden digests of `workloads` under both golden seeds.
fn bless(workloads: &[Workload]) -> Result<(), String> {
    for &workload in workloads {
        for seed in golden::SEEDS {
            let hashes = match workload {
                Workload::CliCold => designer::reference(false, seed)?,
                Workload::Optimize => designer::reference(true, seed)?,
                Workload::ServeExplore => service::reference(&service::states(seed))?,
            };
            golden::bless(workload.name(), seed, &hashes)?;
            println!("blessed {} seed {seed}: {} states", workload.name(), hashes.len());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::path::{Path, PathBuf};

    use chop_service::json::{parse, Value};

    use super::*;

    /// The build directory this test binary lives in (`<target>/<profile>`).
    fn profile_dir() -> PathBuf {
        let exe = std::env::current_exe().expect("test binary path");
        exe.parent()
            .and_then(Path::parent)
            .expect("<target>/<profile>/deps/<test>")
            .to_path_buf()
    }

    /// A one-second run of `workload` under the default seed, so every
    /// reply is checked against the golden digests.
    fn ctx(workload: Workload, trace: bool) -> Ctx {
        let out =
            profile_dir().join("perf_ledger-test").join(format!("{}-{trace}", workload.name()));
        let _ = std::fs::remove_dir_all(&out);
        std::fs::create_dir_all(&out).expect("test output directory");
        Ctx {
            workload,
            seed: golden::SEEDS[0],
            seconds: 1.0,
            trace,
            out,
            exe: profile_dir().join("perf_ledger"),
            connections: CONNECTIONS,
        }
    }

    /// `(name, unit)` of every entry of one BENCHMARK.json metric list.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = parse(&text).expect("BENCHMARK.json parses");
        json.get(list)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k).and_then(Value::as_str).expect("name and unit").to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// Asserts a run failed nothing and prints exactly the declared metrics.
    fn check(ctx: &Ctx, report: &Report) {
        assert!(report.attempted > 0);
        assert_eq!(
            report.failed,
            0,
            "{}: {} of {} failed",
            ctx.workload.name(),
            report.failed,
            report.attempted
        );
        let printed: Vec<(String, String)> = metrics(ctx, report)
            .into_iter()
            .map(|(name, _, unit)| (name, unit.to_owned()))
            .collect();
        assert_eq!(printed, declared(if ctx.trace { "per_layer" } else { "end_to_end" }));
        let catalogue: Vec<String> =
            ledger::per_layer().into_iter().map(|(name, _)| name).collect();
        for (name, _) in report.layers.iter().flatten() {
            assert!(catalogue.contains(name), "{name} is computed but not in the catalogue");
        }
    }

    #[test]
    fn logs_are_reproducible_from_the_seed() {
        for seed in golden::SEEDS {
            let cases = gen::encode_cases(&gen::cli_cold_cases(seed));
            assert_eq!(cases, gen::encode_cases(&gen::cli_cold_cases(seed)));
            assert_eq!(gen::decode_cases(&cases).expect("decodes"), gen::cli_cold_cases(seed));
            assert_eq!(
                gen::encode_cases(&gen::optimize_cases(seed)),
                gen::encode_cases(&gen::optimize_cases(seed))
            );
            assert_eq!(
                gen::serve_explore_log(seed, 2).files(),
                gen::serve_explore_log(seed, 2).files()
            );
        }
        assert_ne!(
            gen::encode_cases(&gen::cli_cold_cases(1)),
            gen::encode_cases(&gen::cli_cold_cases(2))
        );
        assert_ne!(gen::serve_explore_log(1, 2).files(), gen::serve_explore_log(2, 2).files());
    }

    #[test]
    fn designer_workloads_run_clean() {
        for (workload, optimize) in [(Workload::CliCold, false), (Workload::Optimize, true)] {
            for trace in [false, true] {
                let ctx = ctx(workload, trace);
                let cases = designer::generate(optimize, ctx.seed);
                let measured =
                    designer::measure(optimize, &cases, 0.3, trace).expect("measures");
                check(
                    &ctx,
                    &designer::report(&ctx, optimize, &measured, vec![0.1]).expect("report"),
                );
            }
        }
    }

    /// Needs the release `chop` in the same target directory: run
    /// `cargo build --release -p chop-cli` there first.
    #[test]
    fn service_workload_runs_clean() {
        for trace in [false, true] {
            let ctx = ctx(Workload::ServeExplore, trace);
            check(&ctx, &service::run(&ctx).expect("service run"));
        }
    }
}
