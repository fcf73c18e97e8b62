//! Tiny-size run of every workload, untraced and traced: every metric named
//! in `BENCHMARK.json` is printed with its unit, and no check fails. The
//! `dse` and `replay` pipelines run inside both workloads' traced runs (and
//! `dse` inside their untraced runs).

use serde_json::Value;
use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every metric in the `BENCHMARK.json` list `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let list = Value::get(doc.as_object().expect("object"), key)
        .and_then(Value::as_array)
        .expect("metric list");
    list.iter()
        .map(|m| {
            let m = m.as_object().expect("metric object");
            let s = |k| {
                Value::get(m, k)
                    .and_then(Value::as_str)
                    .expect(k)
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: u8) {
    let out = Command::new(env!("CARGO_BIN_EXE_rppm-e2ebench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the last line is JSON");
    let result = result.as_object().expect("object");
    let field = |k| Value::get(result, k).unwrap_or_else(|| panic!("missing `{k}`"));
    assert_eq!(field("correct").as_bool(), Some(true), "{workload}: {last}");
    assert_eq!(field("failed").as_u64(), Some(0), "{workload}: {last}");
    assert!(field("attempted").as_u64() > Some(0));

    let metrics = field("metrics").as_object().expect("metrics object");
    let expected = declared(if trace == 1 {
        "per_layer"
    } else {
        "end_to_end"
    });
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        names.len(),
        expected.len(),
        "{workload} --trace {trace}: {names:?}"
    );
    for (name, unit) in expected {
        let m = Value::get(metrics, &name)
            .and_then(Value::as_object)
            .unwrap_or_else(|| panic!("{workload} --trace {trace}: no metric {name}"));
        assert_eq!(
            Value::get(m, "unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let value = Value::get(m, "value").and_then(Value::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name}: {value:?}");
        assert!(
            stdout.contains(&format!("{name} = ")),
            "{name} printed by name"
        );
    }
}

#[test]
fn catalog() {
    run("catalog", 0);
    run("catalog", 1);
}

#[test]
fn serve() {
    run("serve", 0);
    run("serve", 1);
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for workload in ["nope", "dse", "replay"] {
        let out = Command::new(env!("CARGO_BIN_EXE_rppm-e2ebench"))
            .args(["--workload", workload])
            .output()
            .expect("benchmark runs");
        assert_eq!(out.status.code(), Some(2), "--workload {workload}");
        assert!(out.stdout.is_empty());
    }
}
