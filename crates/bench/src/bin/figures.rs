//! Regenerates the paper's tables and figures.
//!
//! Usage: `figures <id> [scale]` where `<id>` is one of `table1`, `table2`,
//! `fig1`, `fig3`, `fig8`, `fig9`, `fig10`, `fig11`, `fig12`, `fig13`,
//! `fig14`, `tlb`, `pagesize`, or `all`; extensions/ablations beyond the
//! paper: `watermark`, `profiling`, `nvlink`, `scaling`, `oversub`,
//! `serve`, or `extras` for all of them. `[scale]` is `tiny`, `small` or `paper`
//! (default `paper`).
//! With `--store <path>` the default-machine figures run through the
//! `gps-harness` result store: completed runs (from earlier figure
//! invocations or `gps-run sweep`) are reused, fresh ones are appended, so
//! an interrupted regeneration resumes where it stopped.

use gps_bench::figures;
use gps_bench::figures::FigureCtx;
use gps_workloads::ScaleProfile;

const USAGE: &str = "\
usage: figures <id> [scale] [--csv] [--store <path>]

Regenerates the tables and figures of the GPS paper (MICRO 2021).

  <id>     table1 table2 fig1 fig3 fig8 fig9 fig10 fig11 fig12 fig13 fig14
           tlb pagesize all
           ablations/extensions: watermark profiling nvlink scaling topology
           oversub serve extras
  [scale]  tiny | small | paper (default: paper)
  --csv    emit CSV instead of an aligned text table (figures only)
  --store <path>
           resume from (and append to) a gps-run result store: completed
           default-machine runs are content-addressed cache hits, only the
           missing ones simulate (custom-policy ablations always rerun)
";

fn emit(fig: gps_bench::figures::Figure, csv: bool) {
    if csv {
        println!("{}", fig.to_csv());
    } else {
        println!("{}", fig.render());
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let csv = if let Some(pos) = args.iter().position(|a| a == "--csv") {
        args.remove(pos);
        true
    } else {
        false
    };
    let ctx = if let Some(pos) = args.iter().position(|a| a == "--store") {
        args.remove(pos);
        if pos >= args.len() {
            eprintln!("--store needs a path\n{USAGE}");
            std::process::exit(2);
        }
        FigureCtx::with_store(args.remove(pos))
    } else {
        FigureCtx::in_memory()
    };
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    if let Some(extra) = args.get(2) {
        eprintln!("unexpected argument {extra:?}\n{USAGE}");
        std::process::exit(2);
    }
    let id = args.first().map(String::as_str).unwrap_or("all").to_owned();
    let id = id.as_str();
    let scale = match args.get(1).map(|s| s.parse::<ScaleProfile>()) {
        None => ScaleProfile::Paper,
        Some(Ok(scale)) => scale,
        Some(Err(e)) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match id {
        "table1" => println!("{}", figures::table1()),
        "table2" => println!("{}", figures::table2()),
        "fig1" => emit(figures::fig1(&ctx, scale), csv),
        "fig3" => emit(figures::fig3(), csv),
        "fig8" => emit(figures::fig8(&ctx, scale), csv),
        "fig9" => emit(figures::fig9(&ctx, scale), csv),
        "fig10" => emit(figures::fig10(&ctx, scale), csv),
        "fig11" => emit(figures::fig11(&ctx, scale), csv),
        "fig12" => emit(figures::fig12(&ctx, scale), csv),
        "fig13" => emit(figures::fig13(&ctx, scale), csv),
        "fig14" => emit(figures::fig14(scale), csv),
        "tlb" => emit(figures::gps_tlb_sensitivity(scale), csv),
        "pagesize" => emit(figures::page_size_sensitivity(scale), csv),
        "watermark" => emit(figures::watermark_sensitivity(scale), csv),
        "profiling" => emit(figures::profiling_mode(scale), csv),
        "nvlink" => emit(figures::nvlink_sweep(&ctx, scale), csv),
        "scaling" => emit(figures::scaling_curve(&ctx, scale), csv),
        "topology" => emit(figures::topology_comparison(scale), csv),
        "oversub" => emit(figures::oversubscription_sweep(&ctx, scale), csv),
        "serve" => emit(figures::serve_sweep(scale), csv),
        "extras" => {
            for f in [
                figures::watermark_sensitivity(scale),
                figures::profiling_mode(scale),
                figures::nvlink_sweep(&ctx, scale),
                figures::scaling_curve(&ctx, scale),
                figures::topology_comparison(scale),
                figures::oversubscription_sweep(&ctx, scale),
                figures::serve_sweep(scale),
            ] {
                println!("{}", f.render());
            }
        }
        "all" => {
            println!("{}", figures::table1());
            println!("{}", figures::table2());
            println!("{}", figures::fig3().render());
            for f in [
                figures::fig1(&ctx, scale),
                figures::fig8(&ctx, scale),
                figures::fig9(&ctx, scale),
                figures::fig10(&ctx, scale),
                figures::fig11(&ctx, scale),
                figures::fig12(&ctx, scale),
                figures::fig13(&ctx, scale),
                figures::fig14(scale),
                figures::gps_tlb_sensitivity(scale),
                figures::page_size_sensitivity(scale),
            ] {
                println!("{}", f.render());
            }
        }
        other => {
            eprintln!("unknown figure id {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
