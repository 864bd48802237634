//! Regressions for the exchange-overlap window fix.
//!
//! The overlap feature hides iteration `i`'s routed exchange under
//! iteration `i+1`'s cost analysis. The original implementation capped
//! the hidden time by the *fixed* per-iteration overhead constant —
//! crediting a full five-copy window even when the next iteration's
//! analysis was nearly idle (a drained frontier prices almost nothing)
//! and even on the run's *last* iteration, which has no successor to
//! hide under at all. The fix derives the window from the next
//! iteration's **actual** analysis span:
//!
//! ```text
//! window_i = ANALYSIS_SPAN_COPIES · copy_latency · active_frac_{i+1}
//! hidden_i = min(exchange_makespan_i, window_i),  hidden_last = 0
//! ```

use hytgraph::algos::Sssp;
use hytgraph::core::runner::{analysis_span, ANALYSIS_SPAN_COPIES, ITERATION_OVERHEAD_COPIES};
use hytgraph::core::{HyTGraphConfig, HyTGraphSystem, RunResult, SystemKind};
use hytgraph::graph::{generators, DeviceAssignment};

const EPS: f64 = 1e-12;

fn overlap_config(max_iterations: u32) -> HyTGraphConfig {
    let mut cfg = SystemKind::HyTGraph.configure(HyTGraphConfig::default());
    cfg.num_devices = 4;
    cfg.device_assignment = DeviceAssignment::EdgeBalanced;
    cfg.threads = 1;
    cfg.overlap_exchange = true;
    cfg.max_iterations = max_iterations;
    cfg
}

fn run(max_iterations: u32) -> (RunResult<u32>, f64) {
    let g = generators::rmat(11, 10.0, 9, true);
    let cfg = overlap_config(max_iterations);
    let copy_latency = cfg.machine.pcie.copy_latency;
    let mut sys = HyTGraphSystem::new(g, cfg);
    (sys.run(Sssp::from_source(0)), copy_latency)
}

/// The core claim: iteration `i`
/// never hides more than `min(its exchange makespan, iteration i+1's
/// actual analysis span)`, and the final iteration hides nothing.
#[test]
fn hidden_is_bounded_by_next_iterations_measured_analysis_span() {
    let (r, copy_latency) = run(u32::MAX);
    assert!(r.iterations >= 3, "need a multi-iteration run to exercise the window");
    let n = r.per_iteration.len();
    let mut any_hidden = false;
    for i in 0..n - 1 {
        let cur = &r.per_iteration[i];
        let next = &r.per_iteration[i + 1];
        let window = analysis_span(copy_latency, next.active_partitions, next.total_partitions);
        assert!(
            cur.exchange.hidden <= cur.exchange.time + EPS,
            "iteration {i} hid more exchange than it had"
        );
        assert!(
            cur.exchange.hidden <= window + EPS,
            "iteration {i} hid {} over a successor analysis span of only {window}",
            cur.exchange.hidden,
        );
        // Not just bounded: the window is used exactly.
        assert!((cur.exchange.hidden - cur.exchange.time.min(window)).abs() < EPS);
        any_hidden |= cur.exchange.hidden > 0.0;
    }
    assert!(any_hidden, "overlap hid nothing at all");
    // Natural drain: the final iteration has no successor analysis.
    assert_eq!(r.per_iteration[n - 1].exchange.hidden, 0.0);
    // Consistency: total time equals the serial run minus total hidden.
    let (serial, _) = {
        let g = generators::rmat(11, 10.0, 9, true);
        let mut cfg = overlap_config(u32::MAX);
        cfg.overlap_exchange = false;
        let mut sys = HyTGraphSystem::new(g, cfg);
        (sys.run(Sssp::from_source(0)), ())
    };
    let hidden: f64 = r.per_iteration.iter().map(|it| it.exchange.hidden).sum();
    assert_eq!(serial.values, r.values);
    assert!((serial.total_time - r.total_time - hidden).abs() < 1e-9);
}

/// The max-iterations cap is the other way a run can end; the capped
/// final iteration must hide nothing either (there is no iteration
/// `cap+1` whose analysis could absorb it).
#[test]
fn capped_final_iteration_hides_nothing() {
    let (full, _) = run(u32::MAX);
    let cap = full.iterations / 2;
    assert!(cap >= 2);
    let (r, _) = run(cap);
    assert_eq!(r.iterations, cap, "run must actually stop at the cap");
    let last = r.per_iteration.last().unwrap();
    assert!(last.exchange.time > 0.0, "capped mid-run iteration still exchanges");
    assert_eq!(last.exchange.hidden, 0.0);
    // Every non-final iteration matches the uncapped run's record
    // exactly — the fix only changes who counts as "final".
    for (a, b) in r.per_iteration[..cap as usize - 1]
        .iter()
        .zip(full.per_iteration[..cap as usize - 1].iter())
    {
        assert!((a.exchange.hidden - b.exchange.hidden).abs() < EPS);
        assert!((a.time - b.time).abs() < EPS);
    }
}

/// The measured window's parts: the analysis span is the overlappable
/// share of the per-iteration overhead, scaled by the priced-partition
/// fraction, and degenerate inputs are safe.
#[test]
fn analysis_span_scales_with_active_fraction() {
    let lat = 30.0e-6;
    const { assert!(ANALYSIS_SPAN_COPIES < ITERATION_OVERHEAD_COPIES) };
    assert_eq!(analysis_span(lat, 8, 8), ANALYSIS_SPAN_COPIES * lat);
    assert!((analysis_span(lat, 2, 8) - ANALYSIS_SPAN_COPIES * lat * 0.25).abs() < EPS);
    assert_eq!(analysis_span(lat, 0, 8), 0.0);
    // Clamped, not extrapolated, if activity ever overcounts.
    assert_eq!(analysis_span(lat, 9, 8), ANALYSIS_SPAN_COPIES * lat);
    assert_eq!(analysis_span(lat, 3, 0), 0.0);
}

/// Overlap is pure attribution: values and iteration counts are
/// bit-identical with the overlap on and off.
#[test]
fn overlap_window_never_touches_values() {
    let g = generators::rmat(10, 8.0, 5, true);
    let mut results = Vec::new();
    for overlap in [false, true] {
        let mut cfg = overlap_config(u32::MAX);
        cfg.overlap_exchange = overlap;
        let mut sys = HyTGraphSystem::new(g.clone(), cfg);
        let r = sys.run(Sssp::from_source(3));
        results.push((r.values, r.iterations));
    }
    assert_eq!(results[0], results[1]);
}
