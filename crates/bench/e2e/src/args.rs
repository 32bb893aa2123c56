//! Command-line parsing. Every malformed command line maps to exit code 2.

use crate::workloads::Workload;

/// Usage text printed with every argument error.
pub const USAGE: &str = "\
usage: e2e --workload <name|all> [--seed N] [--seconds N] [--trace 0|1] [--spans FILE] [--smoke]
       e2e --list

--workload NAME  paper_all, deploy_10x, survey_300k, greylist_churn, or all
                 (all runs each workload in turn as its own child process)
--seed N         seed every input is generated from (default: each workload's
                 paper default; paper_all then also checks the golden snapshot)
--seconds N      how long the measuring phase runs (default 25)
--trace 0|1      1 runs the traced variant: per-layer metrics instead of the
                 end-to-end ones (default 0)
--spans FILE     with --trace 1, write the recorded spans to FILE as JSON lines
--smoke          tiny inputs, for tests; the numbers mean nothing
--list           print the workloads and why each is in the benchmark

exit codes: 0 every check passed, 1 a correctness check failed, 2 bad arguments";

/// Options shared by every workload run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Opts {
    /// Input seed; `None` keeps the paper defaults.
    pub seed: Option<u64>,
    /// Length of the measuring phase.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where to write spans (traced runs only).
    pub spans: Option<String>,
    /// Tiny inputs.
    pub smoke: bool,
}

/// What the command line asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Print the workload list.
    List,
    /// Run one workload.
    Run(Workload, Opts),
    /// Run every workload, each in a child process.
    All(Opts),
}

/// Parses the arguments after the program name.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut workload: Option<String> = None;
    let mut list = false;
    let mut opts = Opts { seed: None, seconds: 25, trace: false, spans: None, smoke: false };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--list" => list = true,
            "--smoke" => opts.smoke = true,
            "--workload" => {
                let name = value("--workload")?;
                if workload.replace(name).is_some() {
                    return Err("--workload given twice".to_owned());
                }
            }
            "--seed" => opts.seed = Some(number("--seed", &value("--seed")?)?),
            "--seconds" => opts.seconds = number("--seconds", &value("--seconds")?)?,
            "--trace" => {
                opts.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--spans" => opts.spans = Some(value("--spans")?),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if list {
        if workload.is_some() || opts.seed.is_some() || opts.trace || opts.spans.is_some() {
            return Err("--list takes no other arguments".to_owned());
        }
        return Ok(Command::List);
    }
    if opts.spans.is_some() && !opts.trace {
        return Err("--spans needs --trace 1".to_owned());
    }
    match workload.as_deref() {
        None => Err("missing --workload".to_owned()),
        Some("all") if opts.spans.is_some() => {
            Err("--spans needs a single workload, not all".to_owned())
        }
        Some("all") => Ok(Command::All(opts)),
        Some(name) => match Workload::parse(name) {
            Some(w) => Ok(Command::Run(w, opts)),
            None => Err(format!("unknown workload {name:?}")),
        },
    }
}

fn number(flag: &str, text: &str) -> Result<u64, String> {
    text.parse().map_err(|_| format!("{flag} needs an unsigned integer, got {text:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Command, String> {
        parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn benchmark_command_line_parses() {
        let cmd = parse_str("--workload deploy_10x --seed 7 --seconds 10 --trace 1").unwrap();
        let opts = Opts { seed: Some(7), seconds: 10, trace: true, spans: None, smoke: false };
        assert_eq!(cmd, Command::Run(Workload::Deploy, opts));
        assert!(matches!(parse_str("--workload all --trace 0"), Ok(Command::All(_))));
        assert_eq!(parse_str("--list"), Ok(Command::List));
    }

    #[test]
    fn bad_arguments_are_errors() {
        for line in [
            "",
            "--workload",
            "--workload nope",
            "--workload paper_all --workload deploy_10x",
            "--workload paper_all --seed -1",
            "--workload paper_all --seconds ten",
            "--workload paper_all --trace 2",
            "--workload paper_all --spans out.jsonl",
            "--workload all --trace 1 --spans out.jsonl",
            "--workload paper_all --bogus",
            "--workload paper_all extra",
            "--list --seed 3",
        ] {
            assert!(parse_str(line).is_err(), "{line:?} should be rejected");
            assert_eq!(crate::run(line.split_whitespace().map(str::to_owned)), 2, "{line:?}");
        }
    }
}
