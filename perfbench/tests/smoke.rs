//! Tiny-scale smoke runs: every workload, untraced and traced, runs one
//! round to its end with every answer equal to the oracle, every
//! property check passing, and every figure reported.

use ciao_perfbench::spec::{Scale, Workload};
use ciao_perfbench::{run, Options};
use std::path::PathBuf;

fn options(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::tiny(),
        shards: 2,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "smoke-{}-{}",
            workload.name(),
            u8::from(trace)
        )),
    }
}

#[test]
fn every_workload_runs_correctly_end_to_end() {
    for workload in Workload::ALL {
        let report = run(&options(workload, false));
        assert!(report.correct, "{}: {:?}", workload.name(), report.failures);
        assert_eq!(report.failed(), 0);
        assert_eq!(report.metrics.len(), 10);
        for m in &report.metrics {
            assert!(
                m.value > 0.0,
                "{} {} = {}",
                workload.name(),
                m.name,
                m.value
            );
        }
        let line = report.result_json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}

#[test]
fn every_workload_traces_its_layers() {
    for workload in Workload::ALL {
        let opts = options(workload, true);
        let report = run(&opts);
        assert!(report.correct, "{}: {:?}", workload.name(), report.failures);
        let trace = report.trace_file.expect("trace written");
        let text = std::fs::read_to_string(&trace).expect("trace readable");
        assert!(text.starts_with("{\"traceEvents\":["));
        let value = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} reported"))
                .value
        };
        assert!(value("core.ingest_ns_per_record") > 0.0);
        assert!(value("engine.exec_us") > 0.0);
        assert!(value("storage.replayed_chunks") > 0.0);
        assert!((0.0..=100.0).contains(&value("trace.unattributed_pct")));
        if workload == Workload::WinlogDrift {
            assert!(value("service.compact_ms") > 0.0);
            assert!(value("storage.checkpoint_ms") > 0.0);
        }
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }
}
