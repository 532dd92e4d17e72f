//! Timed runs: the system allocator, no spans.

fn main() -> std::process::ExitCode {
    perfbench::main_with(false)
}
