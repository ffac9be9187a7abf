#[test]
fn mutual_rewrite_loses_x_constraint() {
    use hk_smt::analysis::{simplify_query, SimplifyOutcome};
    use hk_smt::term::{Ctx, Sort};
    let mut ctx = Ctx::new();
    let y = ctx.var("y", Sort::Bv(8));
    let x = ctx.var("x", Sort::Bv(8)); // x has the higher TermId
    let c5 = ctx.bv_const(8, 5);
    let exy = ctx.eq(x, y);
    let exc = ctx.eq(x, c5);
    match simplify_query(&mut ctx, &[exy, exc], 2, false) {
        SimplifyOutcome::Simplified { assertions, .. } => {
            println!("rewritten assertions:");
            for a in &assertions {
                println!("  {}", ctx.display(*a));
            }
            // soundness requires some surviving constraint on x
            let mentions_x = assertions.iter().any(|&a| {
                fn has(ctx: &Ctx, t: hk_smt::term::TermId, x: hk_smt::term::TermId) -> bool {
                    if t == x {
                        return true;
                    }
                    hk_smt::bitblast::term_children(ctx, t)
                        .into_iter()
                        .any(|c| has(ctx, c, x))
                }
                has(&ctx, a, x)
            });
            assert!(mentions_x, "UNSOUND: x dropped from the conjunction");
        }
        other => panic!("unexpected: {other:?}"),
    }
}
