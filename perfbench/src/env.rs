//! The run's environment: the `RM_*` guard, the machine fingerprint printed
//! with every result, and the process's peak resident memory.

use std::path::Path;

/// Names of the `RM_*` environment variables that are set. The library
/// reads such knobs once per process and they change the program being
/// measured (thread count, SIMD, arenas, epochs, ...), so a benchmark run
/// refuses to start while any is set.
pub fn rm_variables() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("RM_"))
        .collect();
    names.sort();
    names
}

/// Available parallelism of this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit the working directory is checked out at, when it is a git
/// checkout (an exported tree has no `.git` and reports `unknown`).
fn git_rev() -> String {
    let git = Path::new(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The environment fingerprint as one JSON object.
pub fn fingerprint_json(workload: &str, seed: u64, trace: bool, seconds: u64) -> String {
    format!(
        "{{\"fingerprint\":{{\"workload\":{},\"seed\":{},\"trace\":{},\"seconds\":{},\
         \"cpu_model\":{},\"nproc\":{},\"simd_kernel\":{},\"fma_enabled\":{},\
         \"pool_enabled\":{},\"arena_enabled\":{},\"git_rev\":{}}}}}",
        json_str(workload),
        seed,
        trace,
        seconds,
        json_str(&cpu_model()),
        nproc(),
        json_str(rm_tensor::simd_kernel_name()),
        rm_tensor::fma_enabled(),
        rm_runtime::pool_enabled(),
        rm_tensor::arena_enabled(),
        json_str(&git_rev()),
    )
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
