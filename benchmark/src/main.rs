//! `fsmon-benchmark`: run one workload, or every workload in a fresh
//! process each. `benchmark/run.sh` builds and launches it.
//!
//! ```text
//! run.sh --workload W --seed S --seconds N --trace 0|1   one run; last stdout line is the result JSON
//! run.sh [--seed S] [--trace]                            every workload (and its traced run with --trace)
//! run.sh --sets N                                        the whole benchmark N times; writes out/agreement.json
//! run.sh --survey N                                      N seeds per workload; spreads against bounds in out/survey.json
//! run.sh --smoke                                         every workload at 1/20 size, correctness only
//! ```

use fsmon_benchmark::host;
use fsmon_benchmark::json::{self, Value};
use fsmon_benchmark::report::{self_time_table, Report};
use fsmon_benchmark::run::{self, Options};
use fsmon_benchmark::spec::{self, END_TO_END};
use fsmon_benchmark::walk;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    survey: usize,
    smoke: bool,
    shrink: u64,
    out_dir: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--sets N] [--survey N] [--smoke] [--out DIR]\n\
         workloads: {}",
        spec::workloads().iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        sets: 1,
        survey: 0,
        smoke: false,
        shrink: 1,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| {
            argv.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")),
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value("--seconds").parse().unwrap_or_else(|_| usage());
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    usage();
                }
            }
            "--trace" => {
                // `--trace 0|1` from the driver, bare `--trace` by hand.
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                };
            }
            "--sets" => args.sets = value("--sets").parse().unwrap_or_else(|_| usage()),
            "--survey" => args.survey = value("--survey").parse().unwrap_or_else(|_| usage()),
            "--smoke" => args.smoke = true,
            "--shrink" => args.shrink = value("--shrink").parse().unwrap_or_else(|_| usage()),
            "--out" => args.out_dir = PathBuf::from(value("--out")),
            "--emit-benchmark-json" => {
                print!("{}", spec::benchmark_json().to_pretty());
                std::process::exit(0);
            }
            _ => usage(),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let code = match &args.workload {
        _ if args.survey > 0 => survey(&args),
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    };
    std::process::exit(code);
}

/// One workload in this process. Prints every metric by name with its
/// unit, then the result line.
fn run_one(name: &str, args: &Args) -> i32 {
    let Some(w) = spec::workload(name) else {
        eprintln!("unknown workload {name:?}");
        usage();
    };
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        shrink: args.shrink,
        out_dir: args.out_dir.clone(),
    };
    std::fs::create_dir_all(&opts.out_dir).expect("create out dir");
    let envelope = host::envelope(&opts.out_dir, args.seed);
    println!("workload {} — {}", w.name, w.why);
    println!("host {}", envelope.to_line());

    let measured = run::run(&w, &opts);
    let report = if args.trace {
        let scratch = run::scratch_dir(&opts.out_dir, w.name, usize::MAX);
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).expect("create walk scratch");
        let walked = walk::walk(&w, &opts, &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        let trace_path = opts.out_dir.join(format!("{}.trace.json", w.name));
        std::fs::write(&trace_path, walked.log.to_json().to_line()).expect("write trace");
        println!(
            "serial walk: {} records → {} events in {} batches, {} spans → {}",
            walked.records,
            walked.events,
            walked.batches,
            walked.log.spans().len(),
            trace_path.display()
        );
        println!("  self time per layer (ns/event, calls):");
        for (layer, ns, calls) in self_time_table(&walked) {
            println!("    {layer:<34} {ns:>10.1}  {calls}");
        }
        Report::per_layer(&measured, &walked)
    } else {
        Report::end_to_end(&measured)
    };

    for (name, value, unit, note) in &report.metrics {
        if note.is_empty() {
            println!("{name} = {value} {unit}");
        } else {
            println!("{name} = {value} {unit}  ({note})");
        }
    }
    println!(
        "failed_ratio = {} ratio  ({} failed of {} attempted)",
        measured.tally.failed_ratio(),
        measured.tally.failed,
        measured.tally.attempted
    );
    if !args.trace {
        println!(
            "gen.rep_spread_pct = {} %  (IQR ÷ median of {} drain repetitions)",
            run::rep_spread_pct(&measured),
            measured.events_per_s.len()
        );
    }
    for note in &measured.tally.notes {
        println!("FAILED CHECK: {note}");
    }

    let kind = if args.trace { "layers" } else { "result" };
    let doc = Value::obj(vec![
        ("workload", Value::str(w.name)),
        ("seconds", Value::Num(args.seconds)),
        ("host", envelope),
        ("metrics", report.metrics_json()),
        ("attempted", Value::Num(report.attempted as f64)),
        ("failed", Value::Num(report.failed as f64)),
    ]);
    std::fs::write(
        opts.out_dir.join(format!("{}.{kind}.json", w.name)),
        doc.to_pretty(),
    )
    .expect("write result file");

    println!("{}", report.result_line());
    0
}

/// Launch this binary for one workload and return its parsed result
/// line. The child's report is echoed as it arrives.
fn spawn_seed(
    workload: &str,
    args: &Args,
    seed: u64,
    seconds: f64,
    trace: bool,
    shrink: u64,
    echo: bool,
) -> Option<Value> {
    let exe = std::env::current_exe().expect("own path");
    let mut child = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--shrink", &shrink.to_string()])
        .arg("--out")
        .arg(&args.out_dir)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn workload run");
    let mut last = String::new();
    for line in BufReader::new(child.stdout.take().expect("piped stdout")).lines() {
        let line = line.expect("child stdout");
        if echo && !line.starts_with('{') {
            println!("  {line}");
        }
        last = line;
    }
    let status = child.wait().expect("wait for workload run");
    if !status.success() {
        eprintln!("{workload}: run exited with {status}");
        return None;
    }
    json::parse(&last)
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every workload, each in a fresh process (peak RSS is per process).
fn run_all(args: &Args) -> i32 {
    let (seconds, shrink) = if args.smoke {
        (1.0, 20)
    } else {
        (args.seconds, args.shrink)
    };
    let mut sets: Vec<Vec<(String, Value)>> = Vec::new();
    let mut ok = true;
    for set in 0..args.sets.max(1) {
        let mut results = Vec::new();
        for w in spec::workloads() {
            println!("== set {} · {} ==", set + 1, w.name);
            std::io::stdout().flush().expect("flush");
            // The smoke run traces one workload (the one with every
            // layer switched on): it checks the code path, not numbers.
            let mut modes = vec![false];
            if args.trace || (args.smoke && w.fanout) {
                modes.push(true);
            }
            for trace in modes {
                match spawn_seed(w.name, args, args.seed, seconds, trace, shrink, true) {
                    Some(result) => {
                        let correct = result.get("correct") == Some(&Value::Bool(true));
                        if !correct {
                            eprintln!("{}: correct = false", w.name);
                            ok = false;
                        }
                        if !trace {
                            results.push((w.name.to_string(), result));
                        }
                    }
                    None => ok = false,
                }
            }
        }
        sets.push(results);
    }
    if args.sets > 1 {
        ok &= agreement(&sets, &args.out_dir);
    }
    i32::from(!ok)
}

/// Compare every later set against the first: for each workload and
/// end-to-end metric, how much worse the later value is as a share of
/// the first, against the metric's bound. Writes `agreement.json`;
/// false if any pair disagrees by more than its bound.
fn agreement(sets: &[Vec<(String, Value)>], out_dir: &Path) -> bool {
    let mut rows = Vec::new();
    let mut ok = true;
    for (workload, first) in &sets[0] {
        for spec in END_TO_END {
            let Some(base) = metric_value(first, spec.name) else {
                continue;
            };
            let mut worst: f64 = 0.0;
            let mut values = vec![Value::Num(base)];
            for later in &sets[1..] {
                let Some(value) = later
                    .iter()
                    .find(|(w, _)| w == workload)
                    .and_then(|(_, r)| metric_value(r, spec.name))
                else {
                    continue;
                };
                values.push(Value::Num(value));
                let worse = if spec.better == "higher" {
                    base - value
                } else {
                    value - base
                };
                worst = worst.max(worse / base.abs());
            }
            let within = worst <= spec.bound;
            ok &= within;
            rows.push(Value::obj(vec![
                ("workload", Value::str(workload.as_str())),
                ("metric", Value::str(spec.name)),
                ("values", Value::Arr(values)),
                ("worse_by", Value::Num(worst)),
                ("bound", Value::Num(spec.bound)),
                ("within_bound", Value::Bool(within)),
            ]));
            if !within {
                eprintln!(
                    "agreement: {workload} {} worse by {:.1}% (bound {:.0}%)",
                    spec.name,
                    worst * 100.0,
                    spec.bound * 100.0
                );
            }
        }
    }
    let doc = Value::obj(vec![
        ("sets", Value::Num(sets.len() as f64)),
        ("agree", Value::Bool(ok)),
        ("rows", Value::Arr(rows)),
    ]);
    std::fs::create_dir_all(out_dir).expect("create out dir");
    std::fs::write(out_dir.join("agreement.json"), doc.to_pretty()).expect("write agreement.json");
    println!(
        "agreement over {} sets: {} → {}",
        sets.len(),
        if ok {
            "every metric within its bound"
        } else {
            "DISAGREE"
        },
        out_dir.join("agreement.json").display()
    );
    ok
}

/// `--survey N`: N runs of every workload, each with another seed, as
/// the acceptance rule does it. For every end-to-end metric: median,
/// quartiles, and the quartile spread as a share of the median against
/// the metric's bound (and a third of it, the target). One traced run
/// per workload supplies the per-layer figures. Writes `survey.json`;
/// exit 1 if a spread exceeds its bound.
fn survey(args: &Args) -> i32 {
    use fsmon_benchmark::stats::{median, quartiles};
    let mut ok = true;
    let mut workloads = Vec::new();
    for w in spec::workloads() {
        // `--workload W --survey N` surveys one workload.
        if args.workload.as_deref().is_some_and(|only| only != w.name) {
            continue;
        }
        println!("== {} · {} seeds ==", w.name, args.survey);
        let mut samples: Vec<(&str, Vec<f64>)> =
            END_TO_END.iter().map(|m| (m.name, Vec::new())).collect();
        for i in 0..args.survey as u64 {
            let Some(result) = spawn_seed(
                w.name,
                args,
                args.seed + i,
                args.seconds,
                false,
                args.shrink,
                false,
            ) else {
                return 1;
            };
            ok &= result.get("correct") == Some(&Value::Bool(true));
            for (name, values) in &mut samples {
                values.extend(metric_value(&result, name));
            }
        }
        let mut rows = Vec::new();
        for (spec, (_, values)) in END_TO_END.iter().zip(&samples) {
            let med = median(values);
            let (q1, q3) = if values.len() >= 2 {
                quartiles(values)
            } else {
                (med, med)
            };
            let spread = (q3 - q1) / med.abs();
            // setup_s is bounded on its median only, not on its spread.
            let within = spread <= spec.bound || spec.name == "setup_s";
            ok &= within;
            println!(
                "  {:<26} median {:>14.4} {:<9} spread {:>5.1}%  bound {:>2.0}%{}",
                spec.name,
                med,
                spec.unit,
                spread * 100.0,
                spec.bound * 100.0,
                if !within {
                    "  EXCEEDS BOUND"
                } else if spread > spec.bound / 3.0 {
                    "  (above a third of the bound)"
                } else {
                    ""
                }
            );
            rows.push((
                spec.name.to_string(),
                Value::obj(vec![
                    ("unit", Value::str(spec.unit)),
                    ("median", Value::Num(med)),
                    ("q1", Value::Num(q1)),
                    ("q3", Value::Num(q3)),
                    ("spread", Value::Num(spread)),
                    ("bound", Value::Num(spec.bound)),
                    ("runs", Value::Num(values.len() as f64)),
                ]),
            ));
        }
        let layers = spawn_seed(
            w.name,
            args,
            args.seed,
            args.seconds,
            true,
            args.shrink,
            false,
        )
        .and_then(|r| r.get("metrics").cloned())
        .unwrap_or(Value::Null);
        workloads.push((
            w.name.to_string(),
            Value::obj(vec![
                ("end_to_end", Value::Obj(rows)),
                ("per_layer", layers),
            ]),
        ));
    }
    let doc = Value::obj(vec![
        ("host", host::envelope(&args.out_dir, args.seed)),
        ("run_seconds", Value::Num(args.seconds)),
        ("runs_per_workload", Value::Num(args.survey as f64)),
        ("within_bounds", Value::Bool(ok)),
        ("workloads", Value::Obj(workloads)),
    ]);
    std::fs::create_dir_all(&args.out_dir).expect("create out dir");
    std::fs::write(args.out_dir.join("survey.json"), doc.to_pretty()).expect("write survey.json");
    println!("survey → {}", args.out_dir.join("survey.json").display());
    i32::from(!ok)
}
