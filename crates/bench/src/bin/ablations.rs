//! Regenerates the design-choice ablations listed in DESIGN.md §5:
//! path selection, the client echo round, the SWMR replication factor, and
//! CTBcast summary double-buffering.

fn main() {
    let samples = ubft_bench::cli().samples;
    print!("{}", ubft_bench::ablation_path(samples));
    println!();
    print!("{}", ubft_bench::ablation_echo(samples));
    println!();
    print!("{}", ubft_bench::ablation_dmem(samples));
    println!();
    print!("{}", ubft_bench::ablation_summary(samples));
}
