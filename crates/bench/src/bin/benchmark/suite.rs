//! The suite, `--repeat` and `--compare`.
//!
//! The suite runs every workload, at one thread and at `nproc` threads,
//! for several interleaved rounds: round r of every entry runs before
//! round r + 1 of any. Each round is a fresh child process of this binary
//! (one at a time, at most `nproc` threads), so every round pays its own
//! set-up and reports its own peak RSS. The results file it writes is what
//! `--compare` reads.

use crate::stats::Summary;
use crate::workloads::{Scale, Workload};
use crate::Header;
use healthmon_serdes::{FromJson, Json, JsonError, ToJson};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const RESULTS_FORMAT: &str = "healthmon-benchmark-results-v1";

/// One child run: its result line plus the digest it printed. The
/// results file stores it in the result line's shape.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub digest: String,
    pub metrics: Vec<(String, f64)>,
}

impl RunRecord {
    /// Reads a child's stdout: the `digest:` line and the JSON last line.
    fn from_output(stdout: &str) -> Result<RunRecord, String> {
        let last = stdout.lines().last().ok_or("child printed nothing")?;
        let digest = stdout
            .lines()
            .find_map(|l| l.strip_prefix("digest: "))
            .and_then(|l| l.split_whitespace().next())
            .unwrap_or("");
        let mut line = healthmon_serdes::parse(last).map_err(|e| format!("result line: {e}"))?;
        if let Json::Object(fields) = &mut line {
            fields.push(("digest".into(), digest.to_json()));
        }
        RunRecord::from_json(&line).map_err(|e| format!("result line: {e}"))
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

impl ToJson for RunRecord {
    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(n, v)| (n.clone(), Json::Object(vec![("value".into(), v.to_json())])))
            .collect();
        Json::Object(vec![
            ("correct".into(), self.correct.to_json()),
            ("attempted".into(), self.attempted.to_json()),
            ("failed".into(), self.failed.to_json()),
            ("digest".into(), self.digest.to_json()),
            ("metrics".into(), Json::Object(metrics)),
        ])
    }
}

impl FromJson for RunRecord {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(RunRecord {
            correct: bool::from_json(value.field("correct")?)?,
            attempted: u64::from_json(value.field("attempted")?)?,
            failed: u64::from_json(value.field("failed")?)?,
            digest: String::from_json(value.field("digest")?)?,
            metrics: value
                .field("metrics")?
                .as_object()?
                .iter()
                .map(|(n, m)| Ok((n.clone(), f64::from_json(m.field("value")?)?)))
                .collect::<Result<_, JsonError>>()?,
        })
    }
}

/// Runs of every workload: one list per set, in workload order.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    pub header: Json,
    pub sets: Vec<Set>,
}

impl ToJson for Results {
    fn to_json(&self) -> Json {
        let set = |s: &Set| {
            Json::Object(
                s.iter()
                    .map(|(w, runs)| (w.clone(), runs.to_json()))
                    .collect(),
            )
        };
        Json::Object(vec![
            ("format".into(), RESULTS_FORMAT.to_json()),
            ("header".into(), self.header.clone()),
            (
                "sets".into(),
                Json::Array(self.sets.iter().map(set).collect()),
            ),
        ])
    }
}

impl FromJson for Results {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let format = value.field("format")?.as_str()?;
        if format != RESULTS_FORMAT {
            return Err(JsonError::Invalid(format!(
                "format `{format}`, expected `{RESULTS_FORMAT}`"
            )));
        }
        let sets = value
            .field("sets")?
            .as_array()?
            .iter()
            .map(|set| {
                set.as_object()?
                    .iter()
                    .map(|(w, runs)| Ok((w.clone(), Vec::<RunRecord>::from_json(runs)?)))
                    .collect::<Result<Vec<_>, JsonError>>()
            })
            .collect::<Result<_, JsonError>>()?;
        Ok(Results {
            header: value.field("header")?.clone(),
            sets,
        })
    }
}

type Set = Vec<(String, Vec<RunRecord>)>;

/// Every run's value of `metric` on `workload`, across `sets`.
fn values(sets: &[Set], workload: &str, metric: &str) -> Vec<f64> {
    sets.iter()
        .flat_map(|set| set.iter().filter(|(w, _)| w == workload))
        .flat_map(|(_, runs)| runs.iter().filter_map(|r| r.metric(metric)))
        .collect()
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

pub fn benchmark_json() -> Json {
    healthmon_serdes::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON")
}

pub fn end_to_end_specs() -> Vec<MetricSpec> {
    let spec = benchmark_json();
    let list = spec
        .field("end_to_end")
        .and_then(Json::as_array)
        .expect("BENCHMARK.json lists end_to_end");
    list.iter()
        .map(|m| {
            let text = |k: &str| {
                m.field(k)
                    .and_then(Json::as_str)
                    .expect("metric fields are strings")
                    .to_owned()
            };
            MetricSpec {
                name: text("name"),
                unit: text("unit"),
                lower_is_better: text("better") == "lower",
                bound: m
                    .field("bound")
                    .and_then(Json::as_number)
                    .expect("metric has a bound"),
            }
        })
        .collect()
}

/// Interleaved rounds per set.
const ROUNDS: usize = 5;

pub struct SuiteOpts {
    pub seed: u64,
    pub seconds: f64,
    pub repeat: usize,
    pub trace: bool,
    pub scale: Scale,
    pub out_dir: PathBuf,
}

/// Runs one child and reads its result.
fn child(
    exe: &Path,
    workload: Workload,
    opts: &SuiteOpts,
    threads: usize,
    trace: bool,
) -> Result<RunRecord, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&opts.out_dir)
        .env("HEALTHMON_THREADS", threads.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if opts.scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let record = RunRecord::from_output(&String::from_utf8_lossy(&output.stdout))
        .map_err(|e| format!("{}: {e}", workload.name()))?;
    if output.status.success() != record.correct {
        return Err(format!(
            "{}: exit status {} disagrees with its result line",
            workload.name(),
            output.status
        ));
    }
    Ok(record)
}

fn print_workload(name: &str, runs: &[RunRecord], specs: &[MetricSpec]) {
    for spec in specs {
        let values: Vec<f64> = runs.iter().filter_map(|r| r.metric(&spec.name)).collect();
        let s = Summary::of(&values);
        println!(
            "  {:<14} {:>12.4} {:<4} [q1 {:.4}, q3 {:.4}] n={}",
            spec.name, s.median, spec.unit, s.q1, s.q3, s.n
        );
    }
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    println!(
        "  {:<14} {failed}/{attempted} operations in {} runs of {name}",
        "failed_ratio",
        runs.len()
    );
}

/// The suite's entries: every workload at one thread, the count
/// `BENCHMARK.json`'s command runs at, and at `nproc`, the program's
/// default pool size, where the worker pool runs jobs in parallel.
fn entries(nproc: usize) -> Vec<(Workload, usize, String)> {
    let mut counts = vec![1, nproc];
    counts.dedup();
    Workload::ALL
        .iter()
        .flat_map(|&w| {
            counts
                .iter()
                .map(move |&t| (w, t, format!("{}@{t}", w.name())))
        })
        .collect()
}

pub fn run(opts: SuiteOpts, header: &Header) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let specs = end_to_end_specs();
    let entries = entries(header.nproc);
    let rounds = if opts.scale == Scale::Smoke {
        1
    } else {
        ROUNDS
    };
    print!("{}", header.render());
    let length = match opts.scale {
        Scale::Smoke => "one round".to_owned(),
        Scale::Full => format!("{} s", opts.seconds),
    };
    println!(
        "runs: {} set(s) x {rounds} round(s) x {} entries (workload@HEALTHMON_THREADS), {length} each",
        opts.repeat,
        entries.len()
    );
    for w in Workload::ALL {
        println!("  {}: {}", w.name(), w.describe(opts.scale));
    }

    let mut ok = true;
    let mut sets = Vec::new();
    for set in 0..opts.repeat.max(1) {
        let mut runs: Set = entries
            .iter()
            .map(|(_, _, name)| (name.clone(), Vec::new()))
            .collect();
        for round in 0..rounds {
            for (i, (w, threads, name)) in entries.iter().enumerate() {
                eprintln!("set {} round {} {name}", set + 1, round + 1);
                let record = child(&exe, *w, &opts, *threads, false)?;
                ok &= record.correct;
                runs[i].1.push(record);
            }
        }
        println!("== set {} ==", set + 1);
        for (name, list) in &runs {
            println!("{name}");
            print_workload(name, list, &specs);
        }
        sets.push(runs);
    }

    // Every run of a workload, at every thread count, must report the same
    // simulated outputs, and so must its traced run.
    for w in Workload::ALL {
        let mut digests: Vec<String> = sets
            .iter()
            .flatten()
            .filter(|(name, _)| name.split('@').next() == Some(w.name()))
            .flat_map(|(_, runs)| runs.iter().map(|r| r.digest.clone()))
            .collect();
        if opts.trace {
            let traced = child(&exe, w, &opts, 1, true)?;
            ok &= traced.correct;
            digests.push(traced.digest.clone());
            println!(
                "{} traced: trace_overhead_pct {:.2}",
                w.name(),
                traced.metric("trace_overhead_pct").unwrap_or(f64::NAN)
            );
        }
        digests.sort();
        digests.dedup();
        match digests.as_slice() {
            [d] => println!(
                "{} digest {d}: identical in every run, at HEALTHMON_THREADS=1 and {}",
                w.name(),
                header.nproc
            ),
            _ => {
                ok = false;
                println!("{} digests differ: {}", w.name(), digests.join(" "));
            }
        }
    }

    if sets.len() >= 2 {
        println!("== spread between the first two sets: |median2 - median1| / median1 ==");
        for (_, _, name) in &entries {
            for spec in &specs {
                let (m1, m2) = (
                    Summary::of(&values(&sets[..1], name, &spec.name)).median,
                    Summary::of(&values(&sets[1..2], name, &spec.name)).median,
                );
                let spread = (m2 - m1).abs() / m1.abs();
                println!(
                    "  {:<20} {:<14} {:>7.2}%  bound {:>5.1}%  {}",
                    name,
                    spec.name,
                    spread * 100.0,
                    spec.bound * 100.0,
                    if spread < spec.bound {
                        "within"
                    } else {
                        "OUTSIDE"
                    }
                );
            }
        }
    }

    let results = Results {
        header: header.to_json(),
        sets,
    };
    let path = opts.out_dir.join("results.json");
    std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&path, results.to_json().render()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("results: {}", path.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// How a change compares with its parent on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    NoWorse,
    Regressed,
    Unresolved,
}

/// Applies the comparison rule to one metric's runs on both sides, run i
/// of one side paired with run i of the other:
///
/// * improved: the change wins at least 9 in 10 pairs and the medians
///   differ by more than the parent's interquartile distance;
/// * regressed: the change's median is worse than the parent's by more
///   than `bound` (a share of the parent's median), and either both
///   spreads are within the bound or every change run is worse than every
///   parent run;
/// * unresolved: a spread is wider than the bound, unless every change run
///   is better than every parent run;
/// * no worse: otherwise.
///
/// Returns the verdict and the pairs won out of the pairs compared.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    lower_is_better: bool,
    bound: f64,
) -> (Verdict, usize, usize) {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let (p, c) = (Summary::of(parent), Summary::of(change));
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let worse_share = if lower_is_better {
        c.median - p.median
    } else {
        p.median - c.median
    } / p.median.abs();
    let all_better = change.iter().all(|&x| parent.iter().all(|&y| better(x, y)));
    let all_worse = change.iter().all(|&x| parent.iter().all(|&y| better(y, x)));
    let wide = p.spread() > bound || c.spread() > bound;
    let v = if pairs > 0
        && wins * 10 >= pairs * 9
        && better(c.median, p.median)
        && (c.median - p.median).abs() > p.q3 - p.q1
    {
        Verdict::Improved
    } else if worse_share > bound && (!wide || all_worse) {
        Verdict::Regressed
    } else if wide && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::NoWorse
    };
    (v, wins, pairs)
}

fn load(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    healthmon_serdes::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints, per workload and end-to-end metric, both sides' median and
/// quartiles, the pairs the change won, and the verdict. Fails when any
/// metric regressed.
pub fn compare(parent_path: &str, change_path: &str) -> Result<ExitCode, String> {
    let (parent, change) = (load(parent_path)?, load(change_path)?);
    let mut regressed = false;
    println!(
        "{:<20} {:<14} {:>30} {:>30} {:>8}  verdict",
        "entry", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won"
    );
    let names: Vec<&str> = parent.sets.first().map_or(Vec::new(), |set| {
        set.iter().map(|(n, _)| n.as_str()).collect()
    });
    for name in names {
        for spec in end_to_end_specs() {
            let (p, c) = (
                values(&parent.sets, name, &spec.name),
                values(&change.sets, name, &spec.name),
            );
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let (v, wins, pairs) = verdict(&p, &c, spec.lower_is_better, spec.bound);
            regressed |= v == Verdict::Regressed;
            let (sp, sc) = (Summary::of(&p), Summary::of(&c));
            println!(
                "{:<20} {:<14} {:>12.4} [{:.4}, {:.4}] {:>12.4} [{:.4}, {:.4}] {:>4}/{:<3}  {:?} (bound {}%)",
                name,
                spec.name,
                sp.median,
                sp.q1,
                sp.q3,
                sc.median,
                sc.q1,
                sc.q3,
                wins,
                pairs,
                v,
                spec.bound * 100.0
            );
        }
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_rule() {
        let parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99];
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        let close: Vec<f64> = parent.iter().map(|v| v * 1.02).collect();
        assert_eq!(verdict(&parent, &faster, true, 0.1).0, Verdict::Improved);
        assert_eq!(verdict(&parent, &faster, true, 0.1).1, 10);
        assert_eq!(verdict(&parent, &slower, true, 0.1).0, Verdict::Regressed);
        assert_eq!(verdict(&parent, &close, true, 0.1).0, Verdict::NoWorse);
        // Higher is better: the same numbers swap meaning.
        assert_eq!(verdict(&parent, &slower, false, 0.1).0, Verdict::Improved);
        assert_eq!(verdict(&parent, &faster, false, 0.1).0, Verdict::Regressed);
        // Spread wider than the bound leaves a small change unresolved...
        let noisy = [5.0, 15.0, 10.0, 20.0, 8.0, 12.0];
        let noisy_change: Vec<f64> = noisy.iter().rev().copied().collect();
        assert_eq!(
            verdict(&noisy, &noisy_change, true, 0.1).0,
            Verdict::Unresolved
        );
        // ...but not a change whose every run beats every parent run.
        let far: Vec<f64> = noisy.iter().map(|v| v / 10.0).collect();
        assert_eq!(verdict(&noisy, &far, true, 0.1).0, Verdict::Improved);
        // A large slowdown with every run worse is a regression even when
        // the spread is wide.
        let far_worse: Vec<f64> = noisy.iter().map(|v| v * 10.0).collect();
        assert_eq!(verdict(&noisy, &far_worse, true, 0.1).0, Verdict::Regressed);
    }

    #[test]
    fn entries_run_each_workload_at_one_thread_and_nproc() {
        let names: Vec<String> = entries(2).into_iter().map(|(_, _, n)| n).collect();
        assert_eq!(names.len(), 2 * Workload::ALL.len());
        assert_eq!(names[..2], ["checkup_analog@1", "checkup_analog@2"]);
        assert_eq!(entries(1).len(), Workload::ALL.len());
    }

    #[test]
    fn results_round_trip_through_serdes() {
        let run = RunRecord {
            correct: true,
            attempted: 1200,
            failed: 0,
            digest: "a626b8a9970c9bf9".into(),
            metrics: vec![
                ("op_p50_ms".into(), 2.5484975),
                ("work_per_s".into(), 270.4012202828509),
            ],
        };
        let results = Results {
            header: Json::Object(vec![("seed".into(), Json::Number(2020.0))]),
            sets: vec![vec![("checkup_analog@1".into(), vec![run.clone(), run])]],
        };
        let text = healthmon_serdes::to_string(&results);
        let back: Results = healthmon_serdes::from_str(&text).unwrap();
        assert_eq!(back, results);
        assert!(healthmon_serdes::from_str::<Results>("{\"format\":\"other\"}").is_err());
    }

    #[test]
    fn reads_a_child_result() {
        let stdout = "rev: x\ndigest: 00ff00ff00ff00ff (matches the checked-in value)\n\
            {\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}\n";
        let r = RunRecord::from_output(stdout).unwrap();
        assert_eq!(r.digest, "00ff00ff00ff00ff");
        assert_eq!((r.correct, r.attempted, r.failed), (true, 3, 0));
        assert_eq!(r.metric("setup_s"), Some(0.5));
    }
}
