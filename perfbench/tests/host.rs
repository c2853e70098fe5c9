//! The host clocks and order statistics the report relies on.

use dtm_perfbench::host::{median, minimum, thread_cpu_s};
use std::time::Instant;

#[test]
fn thread_cpu_time_advances_and_never_outruns_wall_time() {
    let Some(cpu_start) = thread_cpu_s() else {
        return;
    };
    let wall_start = Instant::now();
    let mut x = 0u64;
    while wall_start.elapsed().as_millis() < 20 {
        x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
    }
    let cpu = thread_cpu_s().expect("available once") - cpu_start;
    let wall = wall_start.elapsed().as_secs_f64();
    assert!(cpu > 0.0, "cpu time did not advance");
    assert!(cpu <= wall + 1e-3, "cpu {cpu} s against wall {wall} s");
}

#[test]
fn order_statistics() {
    assert_eq!(minimum(&[3.0, 1.5, 2.0]), 1.5);
    assert!(minimum(&[]).is_nan());
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}
