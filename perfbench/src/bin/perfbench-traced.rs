//! Traced runs: spans around every public call and a counting
//! allocator, which only this binary installs.

#[global_allocator]
static ALLOC: perfbench::trace::CountingAlloc = perfbench::trace::CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::main_with(true)
}
