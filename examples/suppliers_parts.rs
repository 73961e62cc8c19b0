//! The paper's running supplier/part domain (Examples 5.2 and Sec. 5.3).
//!
//! ```sh
//! cargo run --example suppliers_parts
//! ```

use rcsafe::{
    classify, parse, serve, CompileOptions, Database, NoCache, PipelineError, Request, Served,
};

/// Compile and evaluate one query text, uncached.
fn query(text: &str, db: &Database) -> Result<Served, PipelineError> {
    serve(&Request::new(text, CompileOptions::default()), db, NoCache)
}

fn main() {
    let db = Database::from_facts(
        "% parts catalogue
         Part('bolt')
         Part('nut')
         Part('washer')
         Part('gasket')
         % who supplies what
         Supplies('acme', 'bolt')
         Supplies('acme', 'nut')
         Supplies('acme', 'washer')
         Supplies('acme', 'gasket')
         Supplies('busy', 'bolt')
         Supplies('busy', 'nut')
         Supplies('cheap', 'gasket')",
    )
    .expect("facts load");

    // Example 5.2's G: "Does some supplier supply all parts?"
    // ∃y ∀x (¬P(x) ∨ S(y, x)) — evaluable but NOT allowed.
    let g = "exists y. forall x. (!Part(x) | Supplies(y, x))";
    println!("G  = {}", parse(g).unwrap());
    println!("     class: {}", classify(&parse(g).unwrap()));
    let ans = query(g, &db).unwrap().relation;
    println!(
        "     some supplier supplies all parts? {:?}",
        ans.as_bool().unwrap()
    );

    // The "apparently harmless variant" — *which* suppliers supply all
    // parts — is unsafe as ∀x(¬P(x) ∨ S(y,x)): if Part were empty, every y
    // would qualify. The paper's point: the system must REJECT it…
    let open = "forall x. (!Part(x) | Supplies(y, x))";
    println!("\nopen variant = {}", parse(open).unwrap());
    match query(open, &db) {
        Err(e) => println!("     rejected: {e}"),
        Ok(_) => unreachable!(),
    }

    // …until the user grounds y in the database:
    let grounded = "exists p. Supplies(y, p) & forall x. (!Part(x) | Supplies(y, x))";
    println!("\ngrounded = {}", parse(grounded).unwrap());
    let out = query(grounded, &db).unwrap();
    println!("     class:   {}", out.class);
    println!("     algebra: {}", out.compiled.expr);
    println!("     answer:  {}", out.relation);

    // Sec. 5.3's default-value query: supplier per part, 'none' when
    // nobody supplies it. `x = c` is the only way values outside the
    // database enter an answer.
    let mut db2 = db.clone();
    db2.load_facts("Part('unicorn-horn')").unwrap();
    println!("\ndefault-value query (after adding an unsupplied part):");
    let ans = query(
        "Part(x) & (Supplies(y, x) | (forall z. !Supplies(z, x)) & y = 'none')",
        &db2,
    )
    .unwrap()
    .relation;
    for t in ans.iter() {
        println!("     part {:10}  supplier {}", t[0].to_string(), t[1]);
    }
}
