//! A small "application" example: 2D heat diffusion on a plate with a hot
//! spot, solved with the naive reference executor and with AN5D's
//! N.5D-blocked schedule, comparing results and counted memory traffic.
//!
//! Run with `cargo run --example heat_diffusion`. The blocked execution
//! goes through the execution backend this `main` resolves from
//! `AN5D_BACKEND`, so `AN5D_BACKEND=vector cargo run --example
//! heat_diffusion` runs the tiles of each temporal block across all CPUs
//! — with bit-identical output.

use an5d::reference::run_reference;
use an5d::{
    create_backend, An5dError, BlockConfig, Expr, FrameworkScheme, Grid, GridDiff, GridInit,
    KernelPlan, Precision, StencilDef, StencilProblem, BACKEND_ENV,
};

fn main() -> Result<(), An5dError> {
    // An explicit 5-point heat-diffusion stencil with alpha = 0.2.
    let alpha = 0.2;
    let expr = Expr::constant(1.0 - 4.0 * alpha) * Expr::cell(&[0, 0])
        + Expr::constant(alpha) * Expr::cell(&[-1, 0])
        + Expr::constant(alpha) * Expr::cell(&[1, 0])
        + Expr::constant(alpha) * Expr::cell(&[0, -1])
        + Expr::constant(alpha) * Expr::cell(&[0, 1]);
    let def = StencilDef::new("heat2d", expr)?;
    let problem = StencilProblem::new(def.clone(), &[192, 192], 60)?;
    let init = GridInit::HotSpot {
        peak: 100.0,
        width: 0.15,
    };

    // Reference solution.
    let reference = run_reference::<f64>(&problem, init);

    // Blocked solution with bT = 6 temporal blocking, executed on the
    // backend named by AN5D_BACKEND (serial by default).
    let spec = std::env::var(BACKEND_ENV).unwrap_or_else(|_| "serial".to_string());
    let Some(backend) = create_backend(&spec) else {
        eprintln!("{BACKEND_ENV}={spec}: expected serial, vector or vector:<threads>");
        std::process::exit(2);
    };
    let config = BlockConfig::new(6, &[96], Some(96), Precision::Double)?;
    let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d())?;
    let initial = Grid::<f64>::from_init(&problem.grid_shape(), init);
    let blocked = backend.execute_f64(&plan, &problem, initial);

    let diff = GridDiff::compute(&reference, &blocked.grid).expect("same shapes");
    println!("Heat diffusion, 192x192 plate, 60 time-steps, hot spot initial condition");
    println!("  execution backend: {}", backend.describe());
    println!("  blocked vs reference max |diff|: {:.3e}", diff.max_abs);

    let centre = blocked.grid.get(&[97, 97]);
    let corner = blocked.grid.get(&[5, 5]);
    println!("  temperature at centre: {centre:.3}, near corner: {corner:.3}");

    let c = &blocked.counters;
    println!("\nCounted work of the blocked execution:");
    println!("  kernel launches (temporal blocks): {}", c.kernel_launches);
    println!(
        "  global memory reads / writes:      {} / {}",
        c.gm_reads, c.gm_writes
    );
    println!(
        "  shared memory reads / writes:      {} / {}",
        c.sm_reads, c.sm_writes
    );
    println!("  cell updates (incl. redundant):    {}", c.cell_updates);
    println!(
        "  redundancy ratio:                  {:.1}%",
        c.redundancy_ratio() * 100.0
    );

    // For comparison: what a non-temporally-blocked run would move.
    let naive_traffic = problem.total_cell_updates() * 2;
    println!(
        "  global traffic vs naive (elements):  {} vs {} ({:.1}x less)",
        c.gm_reads + c.gm_writes,
        naive_traffic,
        naive_traffic as f64 / (c.gm_reads + c.gm_writes) as f64
    );
    Ok(())
}
