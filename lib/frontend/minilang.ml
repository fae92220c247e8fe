let compile ?heap_words machine src =
  let prog = Lower.lower ?heap_words machine (Parser.parse src) in
  (* frontend cleanup: block-local copy propagation + DCE, as any real
     compiler performs long before register allocation *)
  List.iter
    (fun (_, f) ->
      ignore (Lsra_analysis.Copyprop.run f);
      (* The liveness DCE returns is stale once lowering is done. *)
      ignore (fst (Lsra_analysis.Dce.run_to_fixpoint f)))
    (Lsra_ir.Program.funcs prog);
  prog
