//! Self-timed harness over the paper-table experiments: times one
//! reduced-scale section of each table so `cargo bench` exercises the
//! full regeneration pipeline. (`repro table2`, `repro table3` and
//! `repro exec_time` produce the complete tables.)

use mcc_bench::timing::bench;
use mcc_bench::{block_size_sweep, cache_size_sweep, exec_time_comparison, Scenario};
use mcc_trace::BlockSize;

fn scenario() -> Scenario {
    Scenario {
        scale: 0.02,
        ..Scenario::default()
    }
}

fn main() {
    bench("tables/table2_64kb_section", 0, || {
        cache_size_sweep(64, &scenario())
    });
    bench("tables/table3_16b_section", 0, || {
        block_size_sweep(BlockSize::B16, &scenario())
    });
    bench("tables/exec_time_all_apps", 0, || {
        exec_time_comparison(&scenario())
    });
}
