//! An interactive Fuzzy SQL shell over the paper's demo catalogs.
//!
//! ```sh
//! cargo run --example fuzzy_repl
//! echo "SELECT F.NAME FROM F WHERE F.AGE = 'medium young'" | cargo run --example fuzzy_repl
//! ```
//!
//! Meta-commands:
//!
//! * `\tables` — list tables with sizes
//! * `\vocab` — list linguistic terms
//! * `\explain <sql>` — show the classified type and the unnested plan
//! * `\analyze <sql>` — explain, run, and report costs side by side
//! * `\strategy unnest|nested|naive` — switch the evaluation strategy
//! * `\term <name> <a> <b> <c> <d>` — define a trapezoidal term
//! * `\quit` — exit
//!
//! Anything else is executed as a Fuzzy SQL SELECT.

use fuzzy_db::core::Trapezoid;
use fuzzy_db::workload::paper;
use fuzzy_db::{Database, StatementResult, Strategy};
use fuzzy_storage::SimDisk;
use std::io::{self, BufRead, Write};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One disk hosting all three demo catalogs.
    let disk = SimDisk::with_default_page_size();
    let mut catalog = paper::dating_service(&disk)?;
    for source in [paper::employees(&disk)?, paper::cities(&disk)?] {
        let names: Vec<String> = source.table_names().map(|s| s.to_string()).collect();
        for name in names {
            catalog.register(source.table(&name).unwrap().clone());
        }
        for (term, shape) in source.vocabulary().iter() {
            catalog.vocabulary_mut().define(term, *shape);
        }
    }
    let db = Database::from_catalog(catalog, disk);
    let mut strategy = Strategy::Unnest;

    println!("fuzzy-db shell — tables: F, M, EMP_SALES, EMP_RESEARCH, CITIES_REGION_A/B");
    println!(
        "type \\tables, \\vocab, \\explain <sql>, \\strategy <s>, \\quit, or any\n\
         statement: SELECT / CREATE TABLE / DEFINE TERM / INSERT / DELETE / UPDATE\n"
    );

    let stdin = io::stdin();
    let mut out = io::stdout();
    loop {
        print!("fuzzy> ");
        out.flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break; // EOF
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('\\') {
            let mut parts = rest.split_whitespace();
            match parts.next().unwrap_or("") {
                "quit" | "q" => break,
                "tables" => {
                    let catalog = db.catalog();
                    let mut names: Vec<&str> = catalog.table_names().collect();
                    names.sort_unstable();
                    for name in names {
                        let t = catalog.table(name).unwrap();
                        println!(
                            "  {name}: {} tuples, {} pages, schema {}",
                            t.num_tuples(),
                            t.num_pages(),
                            t.schema()
                        );
                    }
                }
                "vocab" => {
                    let mut terms: Vec<(String, String)> = db
                        .catalog()
                        .vocabulary()
                        .iter()
                        .map(|(n, s)| (n.to_string(), s.to_string()))
                        .collect();
                    terms.sort();
                    for (name, shape) in terms {
                        println!("  {name:<16} {shape}");
                    }
                }
                "explain" => {
                    let sql = rest.trim_start_matches("explain").trim();
                    match db.explain(sql) {
                        Ok(text) => print!("{text}"),
                        Err(e) => println!("error: {e}"),
                    }
                }
                "analyze" => {
                    let sql = rest.trim_start_matches("analyze").trim();
                    match db.explain(sql) {
                        Ok(text) => print!("{text}"),
                        Err(e) => {
                            println!("error: {e}");
                            continue;
                        }
                    }
                    match db.query(sql).strategy(strategy).run() {
                        Ok(out) => println!(
                            "executed: {} rows | {} reads, {} writes | {} pairs | max Rng(r) {} | cpu {:?}",
                            out.answer.len(),
                            out.measurement.io.reads,
                            out.measurement.io.writes,
                            out.metrics.totals().pairs_examined,
                            out.metrics.totals().max_window,
                            out.measurement.cpu
                        ),
                        Err(e) => println!("error: {e}"),
                    }
                }
                "strategy" => match parts.next() {
                    Some("unnest") => {
                        strategy = Strategy::Unnest;
                        println!("strategy: unnest (extended merge-join)");
                    }
                    Some("nested") => {
                        strategy = Strategy::NestedLoop;
                        println!("strategy: nested loop (the paper's baseline)");
                    }
                    Some("naive") => {
                        strategy = Strategy::Naive;
                        println!("strategy: naive reference evaluation");
                    }
                    _ => println!("usage: \\strategy unnest|nested|naive"),
                },
                "term" => {
                    let args: Vec<&str> = parts.collect();
                    if args.len() < 5 {
                        println!("usage: \\term <name> <a> <b> <c> <d>");
                        continue;
                    }
                    let nums: Result<Vec<f64>, _> =
                        args[args.len() - 4..].iter().map(|s| s.parse()).collect();
                    let name = args[..args.len() - 4].join(" ");
                    match nums {
                        Ok(v) => match Trapezoid::new(v[0], v[1], v[2], v[3]) {
                            Ok(shape) => {
                                db.define_term(&name, shape);
                                println!("defined '{name}' as {shape}");
                            }
                            Err(e) => println!("error: {e}"),
                        },
                        Err(e) => println!("error: {e}"),
                    }
                }
                other => println!("unknown command \\{other}"),
            }
            continue;
        }
        let is_select = line.len() >= 6 && line[..6].eq_ignore_ascii_case("SELECT");
        if is_select {
            match db.query(line).strategy(strategy).run() {
                Ok(outcome) => {
                    print!("{}", outcome.answer);
                    println!(
                        "-- {} rows | plan {} | {} reads, {} writes | cpu {:?}",
                        outcome.answer.len(),
                        outcome.plan_label,
                        outcome.measurement.io.reads,
                        outcome.measurement.io.writes,
                        outcome.measurement.cpu
                    );
                }
                Err(e) => println!("error: {e}"),
            }
        } else {
            // DDL / DML: CREATE TABLE, DEFINE TERM, INSERT, DELETE, UPDATE.
            match db.execute(line) {
                Ok(StatementResult::Rows(rel)) => print!("{rel}"),
                Ok(StatementResult::Affected(n)) => println!("-- {n} tuples affected"),
                Ok(StatementResult::Explained(text)) => print!("{text}"),
                Ok(StatementResult::Done) => println!("-- ok"),
                Err(e) => println!("error: {e}"),
            }
        }
    }
    Ok(())
}
