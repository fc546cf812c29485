//! The healthmon benchmark: what concurrent test costs a user, per
//! checkup, per detection campaign and per fleet device-epoch, with a
//! traced run that attributes the time to layers. See `README.md` here.

mod calib;
mod drill;
mod layers;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use healthmon_serdes::Json;
use run::RunOpts;
use std::path::PathBuf;
use std::process::ExitCode;
use suite::SuiteOpts;
use workloads::{Scale, Workload};

const USAGE: &str = "\
usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]
      one run of one workload; the last stdout line is the JSON result
  benchmark [--seed <n>] [--seconds <s>] [--repeat <k>] [--trace <0|1>] [--smoke] [--out-dir <dir>]
      the suite: every workload at 1 and at nproc threads for 5 interleaved
      rounds, each in a fresh child process, k times over; writes
      <dir>/results.json
  benchmark --compare <parent.json> <change.json>
      per suite entry and metric, both sides' medians and the verdict
workloads: checkup_analog campaign_digital campaign_analog fleet_aging fleet_durable
defaults: --seed 2020 --seconds <run_seconds of BENCHMARK.json> --repeat 1 --trace 0 --out-dir bench-out";

/// Where runs, environment and sizes come from, printed before results.
pub struct Header {
    pub rev: String,
    pub nproc: usize,
    pub threads: usize,
    pub avx2: bool,
    pub seed: u64,
    pub scale: Scale,
}

impl Header {
    fn new(seed: u64, scale: Scale) -> Header {
        Header {
            rev: git_rev(),
            nproc: nproc(),
            threads: healthmon_tensor::pool::max_threads(),
            avx2: healthmon_tensor::intacc::avx2_available(),
            seed,
            scale,
        }
    }

    pub fn to_json(&self) -> Json {
        let sizes = Workload::ALL
            .iter()
            .map(|w| (w.name().to_owned(), Json::String(w.describe(self.scale))))
            .collect();
        Json::Object(vec![
            ("rev".into(), Json::String(self.rev.clone())),
            ("nproc".into(), Json::Number(self.nproc as f64)),
            (
                "healthmon_threads".into(),
                Json::Number(self.threads as f64),
            ),
            ("avx2".into(), Json::Bool(self.avx2)),
            ("seed".into(), Json::Number(self.seed as f64)),
            ("scale".into(), Json::String(self.scale.label().into())),
            ("sizes".into(), Json::Object(sizes)),
        ])
    }

    pub fn render(&self) -> String {
        format!(
            "rev: {}\nnproc: {}  HEALTHMON_THREADS: {}  avx2: {}\nseed: {}  scale: {}\n",
            self.rev,
            self.nproc,
            self.threads,
            self.avx2,
            self.seed,
            self.scale.label()
        )
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` without running git; a
/// checkout without history reports `unknown`.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(PathBuf::from(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(reference)
        .map(|s| s.trim().to_owned())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `--key value` pairs and bare flags.
struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let (mut pairs, mut flags) = (Vec::new(), Vec::new());
        let mut it = raw.iter().peekable();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    pairs.push((key.to_owned(), it.next().unwrap().clone()))
                }
                _ => flags.push(key.to_owned()),
            }
        }
        Ok(Args { pairs, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: Option<T>) -> Result<T, String> {
        match (self.get(key), default) {
            (Some(v), _) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse `{v}`")),
            (None, Some(d)) => Ok(d),
            (None, None) => Err(format!("--{key} is required")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

/// Rejects a `HEALTHMON_THREADS` above the host's cores: the benchmark
/// puts load on the host from one process with at most `nproc` threads.
fn check_threads() -> Result<(), String> {
    match std::env::var("HEALTHMON_THREADS") {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 && n <= nproc() => Ok(()),
            _ => Err(format!(
                "HEALTHMON_THREADS={raw} must be a whole number from 1 to nproc ({})",
                nproc()
            )),
        },
        Err(_) => Ok(()),
    }
}

/// The thread budget of a run when `HEALTHMON_THREADS` is unset. On the
/// 2-vCPU host the benchmark was tuned on, two threads ran the same lenet5
/// campaign call in 25 ms in some processes and 41 ms in others, while one
/// thread held 48-53 ms. The suite also runs every workload at `nproc`
/// threads and reports those runs as entries of their own; see README.md.
const DEFAULT_THREADS: &str = "1";

fn main() -> ExitCode {
    // Set before anything reads it: the worker pool sizes itself once.
    if std::env::var_os("HEALTHMON_THREADS").is_none() {
        std::env::set_var("HEALTHMON_THREADS", DEFAULT_THREADS);
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("benchmark: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(raw: &[String]) -> Result<ExitCode, String> {
    if raw.first().is_some_and(|a| a == "--compare") {
        let [_, parent, change] = raw else {
            return Err("--compare takes <parent.json> <change.json>".to_owned());
        };
        return suite::compare(parent, change);
    }
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    let args = Args::parse(raw)?;
    const KEYS: [&str; 6] = ["workload", "seed", "seconds", "trace", "repeat", "out-dir"];
    if let Some((key, _)) = args.pairs.iter().find(|(k, _)| !KEYS.contains(&k.as_str())) {
        return Err(format!("unknown option --{key}"));
    }
    if let Some(flag) = args.flags.iter().find(|f| *f != "smoke") {
        return Err(format!("unknown or incomplete option --{flag}"));
    }
    check_threads()?;
    let scale = if args.flag("smoke") {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let out_dir = PathBuf::from(args.get("out-dir").unwrap_or("bench-out"));
    let seed = args.num("seed", Some(run::EXPECTED_SEED))?;
    let run_seconds = suite::benchmark_json()
        .field("run_seconds")
        .and_then(Json::as_number);
    let seconds = args.num(
        "seconds",
        Some(run_seconds.expect("BENCHMARK.json sets run_seconds")),
    )?;
    let trace = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let header = Header::new(seed, scale);
    match args.get("workload") {
        Some(name) => {
            let workload =
                Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
            Ok(run::run(
                RunOpts {
                    workload,
                    seed,
                    seconds,
                    trace,
                    scale,
                    out_dir,
                },
                &header,
            ))
        }
        None => {
            let repeat = args.num("repeat", Some(1))?;
            suite::run(
                SuiteOpts {
                    seed,
                    seconds,
                    repeat,
                    trace,
                    scale,
                    out_dir,
                },
                &header,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(list: &str) -> Vec<(String, String)> {
        let spec = suite::benchmark_json();
        let field = |m: &Json, k: &str| m.field(k).and_then(Json::as_str).unwrap_or("").to_owned();
        let mut entries: Vec<(String, String)> = spec
            .field(list)
            .and_then(Json::as_array)
            .expect("BENCHMARK.json has the list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        entries.sort();
        entries
    }

    fn reported(metrics: Vec<layers::Metric>) -> Vec<(String, String)> {
        let mut entries: Vec<(String, String)> = metrics
            .into_iter()
            .map(|m| (m.name, m.unit.to_owned()))
            .collect();
        entries.sort();
        entries
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics, with their
    /// units, that the runs report.
    #[test]
    fn benchmark_json_matches_the_code() {
        let mut workloads: Vec<String> =
            declared("workloads").into_iter().map(|(n, _)| n).collect();
        workloads.sort();
        let mut ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        ours.sort();
        assert_eq!(workloads, ours);
        assert_eq!(
            declared("end_to_end"),
            reported(run::end_to_end(&[], f64::NAN, calib::Sample::at_reference))
        );
        assert_eq!(declared("per_layer"), reported(layers::per_layer_catalog()));
    }

    #[test]
    fn args_split_pairs_and_flags() {
        let raw: Vec<String> = ["--workload", "fleet_aging", "--smoke", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = Args::parse(&raw).unwrap();
        assert_eq!(args.get("workload"), Some("fleet_aging"));
        assert_eq!(args.num::<u64>("seed", None), Ok(7));
        assert_eq!(args.num::<usize>("repeat", Some(1)), Ok(1));
        assert!(args.flag("smoke"));
        assert!(Args::parse(&["stray".to_owned()]).is_err());
    }
}
