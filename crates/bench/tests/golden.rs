//! The committed output contract of the paper binaries.
//!
//! Each golden test runs one real `make_tables` / `make_figures` invocation,
//! discards its stderr (cache and store telemetry), and compares its stdout
//! byte for byte with a file under `tests/golden/`. The tables are a pure
//! function of their flags, so any difference is a change in which UB
//! programs the oracle files as sanitizer bugs. Updating a golden is a
//! reviewed diff: a mismatch prints the first differing line and the
//! command that regenerates the file.
//!
//! The Table 7 and Table 9 goldens also pin the yield comparisons: guided
//! bugs/unit at least uniform's, partial bugs at most full's, no bugs and
//! a nonzero expected-miss count under the `none` policy, and zero
//! expected misses under `full`.
//!
//! The remaining tests pin the flag contract (a missing or malformed flag
//! value exits 2 with empty stdout) and the store compaction budget.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const TABLES: &str = env!("CARGO_BIN_EXE_make_tables");
const FIGURES: &str = env!("CARGO_BIN_EXE_make_figures");
const COMPACT: &str = env!("CARGO_BIN_EXE_store_compact");

fn run(bin: &str, args: &[&str], stderr: Stdio) -> Output {
    Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stderr(stderr)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

fn bin_name(bin: &str) -> String {
    Path::new(bin).file_name().expect("binary path has a file name").to_string_lossy().into()
}

/// Runs `bin args` and compares its stdout with `tests/golden/{golden}`.
fn check_golden(bin: &str, args: &[&str], golden: &str) {
    let out = run(bin, args, Stdio::null());
    let command = format!("{} {}", bin_name(bin), args.join(" "));
    assert!(out.status.success(), "`{command}` exited with {}", out.status);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(golden);
    let want = std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    if out.stdout == want {
        return;
    }
    let (got, want) = (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&want));
    let got: Vec<&str> = got.split_inclusive('\n').collect();
    let want: Vec<&str> = want.split_inclusive('\n').collect();
    let i = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i)).unwrap_or(0);
    let show = |line: Option<&&str>| line.map_or("<end of output>".into(), |l| format!("{l:?}"));
    panic!(
        "`{command}` stdout differs from tests/golden/{golden} at line {}\n  \
         golden: {}\n  actual: {}\n\
         regenerate with:\n  cargo run -q --release -p ubfuzz-bench --bin {} -- {} \
         > crates/bench/tests/golden/{golden} 2> /dev/null",
        i + 1,
        show(want.get(i)),
        show(got.get(i)),
        bin_name(bin),
        args.join(" ")
    );
}

#[test]
fn table_0_all_tables() {
    check_golden(TABLES, &["--table", "0"], "table0.txt");
}

#[test]
fn table_3() {
    check_golden(TABLES, &["--table", "3", "--seeds", "8"], "table3.txt");
}

#[test]
fn table_3_partial_policy() {
    check_golden(
        TABLES,
        &["--table", "3", "--seeds", "6", "--san", "partial:0.5"],
        "table3_partial.txt",
    );
}

#[test]
fn table_7_guided_vs_uniform() {
    check_golden(TABLES, &["--table", "7", "--seeds", "8"], "table7.txt");
}

#[test]
fn table_9_partial_sanitization() {
    check_golden(TABLES, &["--table", "9", "--seeds", "8"], "table9.txt");
}

#[test]
fn oracle_ablation() {
    check_golden(TABLES, &["--ablation", "--seeds", "5"], "ablation.txt");
}

#[test]
fn all_figures() {
    check_golden(FIGURES, &["--seeds", "4"], "figures.txt");
}

/// A flag whose value is missing or malformed is misuse: exit status 2 and
/// nothing on stdout, never a run with the default.
fn assert_rejected(bin: &str, args: &[&str]) {
    let out = run(bin, args, Stdio::piped());
    let command = format!("{} {}", bin_name(bin), args.join(" "));
    assert_eq!(out.status.code(), Some(2), "`{command}` must exit 2");
    assert!(out.stdout.is_empty(), "`{command}` printed to stdout");
    assert!(!out.stderr.is_empty(), "`{command}` must say what is wrong");
}

#[test]
fn malformed_seeds_exits_2() {
    assert_rejected(TABLES, &["--seeds", "banana"]);
}

#[test]
fn flag_without_value_exits_2() {
    assert_rejected(TABLES, &["--table"]);
    assert_rejected(TABLES, &["--table", "2", "--trace-out"]);
}

#[test]
fn malformed_figure_exits_2() {
    assert_rejected(FIGURES, &["--figure", "x"]);
}

/// The `after=` byte count of the one `[store] compact: prefix` line on
/// stderr.
fn compacted_bytes(stderr: &[u8]) -> u64 {
    let text = String::from_utf8_lossy(stderr);
    let lines: Vec<&str> = text.lines().filter(|l| l.starts_with("[store] compact: ")).collect();
    assert_eq!(lines.len(), 1, "one compact line:\n{text}");
    assert!(lines[0].starts_with("[store] compact: prefix "), "{text}");
    let after = lines[0].split(' ').find_map(|f| f.strip_prefix("after=")).expect("after=");
    after.parse::<u64>().expect("after= is a byte count")
}

/// Compacting a store keeps its prefix table plus the frontier within the
/// requested byte budget, and a campaign over the compacted
/// store renders the same tables.
#[test]
fn compaction_respects_its_budget_and_is_invisible() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("ubfuzz_golden_compact_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.to_str().expect("utf-8 temp path");
    let campaign = ["--table", "3", "--seeds", "2", "--store", store];
    let first = run(TABLES, &campaign, Stdio::null());
    assert!(first.status.success());
    let size = |table: &str| std::fs::metadata(dir.join(table)).map_or(0, |m| m.len());
    let frontier = size("frontier.bin");
    assert_eq!(size("sanitized.bin"), 0, "no post-sanitize table is written");
    let budget = (size("prefix.bin") + frontier) / 2;
    let compact =
        run(COMPACT, &["--store", store, "--store-budget", &budget.to_string()], Stdio::piped());
    assert!(compact.status.success());
    let after = compacted_bytes(&compact.stderr) + frontier;
    assert!(after <= budget, "compacted store holds {after} bytes, budget {budget}");
    let second = run(TABLES, &campaign, Stdio::null());
    assert!(second.status.success());
    assert_eq!(first.stdout, second.stdout, "compaction changed the rendered tables");
    let _ = std::fs::remove_dir_all(&dir);
}
