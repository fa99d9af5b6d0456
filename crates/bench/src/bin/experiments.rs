//! Regenerates the paper's evaluation (see EXPERIMENTS.md).
//!
//! `experiments [NAME…]` prints the named experiments' tables — every one
//! when none is named — at `ubft_bench::SAMPLES` requests per data point.
//! `experiments --update [NAME…]` also writes each table into its
//! `<!-- experiment:NAME -->` block of EXPERIMENTS.md.
use ubft_bench::{parse_args, select, splice, DOC, SAMPLES};

fn main() -> Result<(), String> {
    let (names, flags) = parse_args(std::env::args().skip(1), &["--update"], &[])?;
    let experiments = select(&names)?;
    let read = || std::fs::read_to_string(DOC).map_err(|e| format!("{DOC}: {e}"));
    let mut doc = if flags.contains_key("--update") { Some(read()?) } else { None };
    for (i, (name, run)) in experiments.into_iter().enumerate() {
        let table = run(SAMPLES).to_string();
        print!("{}{table}", if i == 0 { "" } else { "\n" });
        if let Some(doc) = &mut doc {
            *doc = splice(doc, name, &table)?;
        }
    }
    match doc {
        Some(doc) => std::fs::write(DOC, doc).map_err(|e| format!("{DOC}: {e}")),
        None => Ok(()),
    }
}
