//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! serves one workload and prints its metrics; the last line of standard
//! output is the JSON result. `perfbench summarize <span file>` prints the
//! per-layer metrics of a traced run's span file. `perfbench reps …` is
//! the fresh process a run starts to time its set-ups and recoveries.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use dsg_perfbench::workload::{service_config, Kind, Plan};
use dsg_perfbench::{e2e, report, run_traced, run_untraced, summarize, OUT_DIR};

const USAGE: &str = "usage: perfbench --workload <cold-durable|hot-durable|rack-batch> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench summarize <span file>\n       \
perfbench reps --workload <name> --seed <n> --peers <n> --warmup <n> --timed <n> \
--setups <n> --recoveries <n> --dir <d>";

/// The `--flag value` pairs of a command line.
struct Flags<'a>(BTreeMap<&'a str, &'a str>);

impl<'a> Flags<'a> {
    fn parse(args: &'a [String]) -> Result<Self, String> {
        let mut flags = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument {flag}"));
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            flags.insert(flag.as_str(), value.as_str());
        }
        Ok(Flags(flags))
    }

    fn get(&self, flag: &str) -> Result<&'a str, String> {
        self.0
            .get(flag)
            .copied()
            .ok_or(format!("{flag} is required"))
    }

    fn number(&self, flag: &str) -> Result<u64, String> {
        let value = self.get(flag)?;
        value.parse().map_err(|_| format!("bad {flag}: {value}"))
    }

    fn workload(&self) -> Result<Kind, String> {
        let name = self.get("--workload")?;
        Kind::parse(name).ok_or(format!("unknown workload {name}"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("summarize") => summarize_file(&args[1..]),
        Some("reps") => reps(&args[1..]),
        _ => bench(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn summarize_file(args: &[String]) -> Result<ExitCode, String> {
    let [file] = args else {
        return Err("summarize takes one span file".to_string());
    };
    print!("{}", report::table(&summarize(Path::new(file))?));
    Ok(ExitCode::SUCCESS)
}

/// Times the set-ups and recoveries of a run's stores and prints one
/// `setup <ns>` or `recover <store> <ns>` line per sample.
fn reps(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    let mut plan = Plan::new(flags.workload()?, flags.number("--seed")?, 1);
    plan.peers = flags.number("--peers")?;
    plan.warmup = flags.number("--warmup")? as usize;
    plan.timed = flags.number("--timed")? as usize;
    plan.setups = flags.number("--setups")? as usize;
    plan.recoveries = flags.number("--recoveries")? as usize;
    let (setups, recoveries) = e2e::repetitions(&plan, Path::new(flags.get("--dir")?))?;
    for sample in setups {
        println!("setup {}", sample.as_nanos());
    }
    for (store, samples) in recoveries.iter().enumerate() {
        for sample in samples {
            println!("recover {store} {}", sample.as_nanos());
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn bench(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    let trace = flags.number("--trace")? != 0;
    let seconds = flags.number("--seconds")?.max(1);
    let mut plan = Plan::new(flags.workload()?, flags.number("--seed")?, seconds);
    if trace {
        // The traced run reports no set-up or recovery times.
        plan.setups = 0;
        plan.recoveries = 0;
    }
    let out = Path::new(OUT_DIR);
    std::fs::create_dir_all(out).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    print_header(&plan, trace, out);
    let outcome = if trace {
        run_traced(&plan, out)
    } else {
        let exe = std::env::current_exe().map_err(|e| format!("locate perfbench: {e}"))?;
        run_untraced(&plan, out, &exe)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    if let Some(file) = &outcome.span_file {
        println!("# spans: {}", file.display());
    }
    print!("{}", report::table(&outcome.metrics));
    for error in &outcome.errors {
        println!("# check failed: {error}");
    }
    println!(
        "{}",
        report::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_header(plan: &Plan, trace: bool, out: &Path) {
    let kind = plan.kind;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# perfbench workload={} seed={} n={} trace={}",
        kind.name(),
        plan.seed,
        plan.peers,
        u8::from(trace)
    );
    println!(
        "# nproc={nproc} rev={} profile={profile}",
        report::git_rev()
    );
    let chunk = kind.chunk();
    println!(
        "# warmup_requests={} timed_requests={} latency_samples={} ({} per sample) \
setups={} recoveries={} recovery_stores={}",
        plan.warmup,
        plan.timed,
        plan.timed / chunk,
        if chunk == 1 { "request" } else { "chunk" },
        plan.setups,
        plan.recoveries,
        if kind.durable() {
            plan.recovery_points().len()
        } else {
            1
        }
    );
    println!(
        "# store_dir={} fs={}",
        out.display(),
        report::filesystem_of(out)
    );
    let config = service_config();
    let persist = config.persist.unwrap_or_default();
    if kind.durable() {
        println!(
            "# policy={} shards={} chunk=1 closed-loop clients=1 ingest_batch={} \
deep_audit_every={} fsync_every={} snapshot_every={}",
            kind.policy_name(),
            kind.shards(),
            config.ingest_batch,
            config.deep_audit_every,
            persist.fsync_every,
            persist.snapshot_every
        );
    } else {
        println!(
            "# policy={} shards={} chunk={chunk} submit_batch, no service/journal/audit; \
recover_s and store_mb from its initial checkpoint",
            kind.policy_name(),
            kind.shards()
        );
    }
}
