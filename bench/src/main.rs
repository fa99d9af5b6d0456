use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stdout = std::io::stdout();
    ExitCode::from(ubft_perf::main_with(&args, &mut stdout.lock()))
}
