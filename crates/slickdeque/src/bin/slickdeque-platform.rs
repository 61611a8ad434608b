//! Stand-alone stream aggregator platform (paper §5.1) as a CLI.
//!
//! ```text
//! slickdeque-platform --op max --queries 60:10,600:60 --source debs:42 --tuples 10000
//! echo "1 2 3" | tr ' ' '\n' | slickdeque-platform --op sum --queries 2:1 --source stdin --emit
//! slickdeque-platform --serve --ingest-addr 127.0.0.1:7878 --metrics-addr 127.0.0.1:9184 \
//!     --pipeline '{"name":"bids","op":"sum","algorithm":"slickdeque","kind":"count","window":1000}'
//! ```

use slickdeque::cli::{
    read_stdin_values, run, run_keyed, run_serve, CliConfig, QuerySummary, SourceChoice,
};

fn print_summaries(summaries: &[QuerySummary]) {
    eprintln!("query            answers   last answer");
    for s in summaries {
        eprintln!(
            "{:<16} {:>7}   {}",
            s.query.to_string(),
            s.answers,
            s.last_answer
        );
    }
}

fn main() {
    let cfg = match CliConfig::parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: slickdeque-platform --op <sum|mean|stddev|max|min> \
                 --queries r:s[,r:s…] [--pat panes|pairs|cutty] \
                 [--source stdin|debs:<seed>[:<ch>]|workload:<name>[:<seed>]] \
                 [--tuples N] [--emit] [--keyed] [--shards N] [--keys N] \
                 [--ooo] [--disorder N] [--lateness N] \
                 [--metrics-addr host:port] [--metrics-hold-ms N] [--trace-out DIR]\n\
                 service:   slickdeque-platform --serve [--ingest-addr host:port] \
                 [--metrics-addr host:port] [--snapshot-dir DIR] [--trace-out DIR] \
                 [--pipeline JSON]... [--restore NAME]... [--serve-hold-ms N]"
            );
            std::process::exit(2);
        }
    };
    if cfg.serve {
        if let Err(e) = run_serve(&cfg) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let mut stdout = std::io::stdout().lock();
    if cfg.keyed {
        match run_keyed(&cfg, &mut stdout) {
            Ok((summaries, stats)) => {
                print_summaries(&summaries);
                eprintln!(
                    "engine: {} shards, {} keys, {} tuples in {:.3}s ({:.0} tuples/s), \
                     max queue depth {}, skew {:.2}",
                    stats.shards.len(),
                    stats.keys(),
                    stats.tuples,
                    stats.elapsed.as_secs_f64(),
                    stats.tuples_per_sec(),
                    stats.max_queue_depth(),
                    stats.skew()
                );
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let stdin_values = if cfg.source == SourceChoice::Stdin {
        match read_stdin_values(std::io::stdin().lock()) {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("error reading stdin: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };
    match run(&cfg, stdin_values, &mut stdout) {
        Ok(summaries) => print_summaries(&summaries),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
