//! Untraced benchmark binary: end-to-end metrics on the system allocator.

fn main() -> std::process::ExitCode {
    perfbench::main_with(false)
}
