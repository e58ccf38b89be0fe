//! Regenerates the paper's tables and figures.
//!
//! Usage: `figures <id> [scale]` where `<id>` is one of the ids in
//! [`FIGURES`]: the paper's tables and figures (`table1`, `fig8`, ...,
//! `tlb`, `pagesize`), or `all` for every one of them; the extensions and
//! ablations beyond the paper (`watermark`, `profiling`, `nvlink`,
//! `scaling`, `topology`, `oversub`, `serve`), or `extras` for all of
//! them. `[scale]` is `tiny`, `small` or `paper` (default `paper`).
//! With `--store <path>` the default-machine figures run through the
//! `gps-harness` result store: completed runs (from earlier figure
//! invocations or `gps-run sweep`) are reused, fresh ones are appended, so
//! an interrupted regeneration resumes where it stopped.

use std::io::Write as _;

use gps_figures::figures::{self, Figure, FigureCtx};
use gps_workloads::ScaleProfile;

/// What one id renders: a fixed-layout table or a figure that `--csv` can
/// turn into CSV.
enum Output {
    Table(String),
    Figure(Figure),
}

/// Which multi-figure id runs an entry: `all` (the paper) or `extras`.
#[derive(PartialEq)]
enum Group {
    Paper,
    Extra,
}

use Group::{Extra, Paper};

type Runner = fn(&FigureCtx, ScaleProfile) -> Output;

/// Every figure id in output order: it drives dispatch, `all`, `extras`
/// and the id list of the usage text.
#[rustfmt::skip]
const FIGURES: &[(&str, Group, Runner)] = &[
    ("table1",    Paper, |_, _| Output::Table(figures::table1())),
    ("table2",    Paper, |_, _| Output::Table(figures::table2())),
    ("fig3",      Paper, |_, _| Output::Figure(figures::fig3())),
    ("fig1",      Paper, |c, s| Output::Figure(figures::fig1(c, s))),
    ("fig8",      Paper, |c, s| Output::Figure(figures::fig8(c, s))),
    ("fig9",      Paper, |c, s| Output::Figure(figures::fig9(c, s))),
    ("fig10",     Paper, |c, s| Output::Figure(figures::fig10(c, s))),
    ("fig11",     Paper, |c, s| Output::Figure(figures::fig11(c, s))),
    ("fig12",     Paper, |c, s| Output::Figure(figures::fig12(c, s))),
    ("fig13",     Paper, |c, s| Output::Figure(figures::fig13(c, s))),
    ("fig14",     Paper, |_, s| Output::Figure(figures::fig14(s))),
    ("tlb",       Paper, |_, s| Output::Figure(figures::gps_tlb_sensitivity(s))),
    ("pagesize",  Paper, |_, s| Output::Figure(figures::page_size_sensitivity(s))),
    ("watermark", Extra, |_, s| Output::Figure(figures::watermark_sensitivity(s))),
    ("profiling", Extra, |_, s| Output::Figure(figures::profiling_mode(s))),
    ("nvlink",    Extra, |c, s| Output::Figure(figures::nvlink_sweep(c, s))),
    ("scaling",   Extra, |c, s| Output::Figure(figures::scaling_curve(c, s))),
    ("topology",  Extra, |c, s| Output::Figure(figures::topology_comparison(c, s))),
    ("oversub",   Extra, |c, s| Output::Figure(figures::oversubscription_sweep(c, s))),
    ("serve",     Extra, |_, s| Output::Figure(figures::serve_sweep(s))),
];

fn ids(group: Group) -> String {
    let ids: Vec<&str> = FIGURES
        .iter()
        .filter(|(_, g, _)| *g == group)
        .map(|(id, _, _)| *id)
        .collect();
    ids.join(" ")
}

fn usage() -> String {
    format!(
        "\
usage: figures <id> [scale] [--csv] [--store <path>]

Regenerates the tables and figures of the GPS paper (MICRO 2021).

  <id>     {} all
           ablations/extensions: {} extras
  [scale]  tiny | small | paper (default: paper)
  --csv    emit CSV instead of an aligned text table (figures only)
  --store <path>
           resume from (and append to) a gps-run result store: completed
           default-machine runs are content-addressed cache hits, only the
           missing ones simulate (custom-policy ablations always rerun)
",
        ids(Paper),
        ids(Extra),
    )
}

fn fail(message: &str) -> ! {
    eprintln!("{message}\n{}", usage());
    std::process::exit(2);
}

/// Writes one output with a single `write_all`. A closed pipe
/// (`figures all | head`) ends the run successfully: nobody reads the rest.
fn emit(output: Output, csv: bool) {
    let text = match output {
        Output::Table(text) => text,
        Output::Figure(fig) if csv => fig.to_csv(),
        Output::Figure(fig) => fig.render(),
    };
    if let Err(e) = std::io::stdout().write_all(format!("{text}\n").as_bytes()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("figures: writing stdout: {e}");
        std::process::exit(1);
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
            fail("--store needs a path");
        }
        FigureCtx::with_store(args.remove(pos))
    } else {
        FigureCtx::in_memory()
    };
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return;
    }
    if let Some(extra) = args.get(2) {
        fail(&format!("unexpected argument {extra:?}"));
    }
    let id = args.first().map(String::as_str).unwrap_or("all");
    let scale = match args.get(1).map(|s| s.parse::<ScaleProfile>()) {
        None => ScaleProfile::Paper,
        Some(Ok(scale)) => scale,
        Some(Err(e)) => fail(&e.to_string()),
    };
    let selected: Vec<Runner> = FIGURES
        .iter()
        .filter(|(fig, group, _)| match id {
            "all" => *group == Paper,
            "extras" => *group == Extra,
            _ => *fig == id,
        })
        .map(|(_, _, run)| *run)
        .collect();
    if selected.is_empty() {
        fail(&format!("unknown figure id {id:?}"));
    }
    for run in selected {
        emit(run(&ctx, scale), csv);
    }
}
