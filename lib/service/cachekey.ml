open Lsra_ir
open Lsra_target

let machine_fingerprint m =
  let per_class cls =
    Printf.sprintf "%s:regs=%d,caller=%d,args=%d" (Rclass.to_string cls)
      (Machine.n_regs m cls)
      (List.length (Machine.caller_saved m cls))
      (match cls with
      | Rclass.Int -> List.length (Machine.int_args m)
      | Rclass.Float -> List.length (Machine.float_args m))
  in
  Printf.sprintf "%s{%s}" (Machine.name m)
    (String.concat ";" (List.map per_class Rclass.all))

let algo_fingerprint (algo : Lsra.Allocator.algorithm) =
  match algo with
  | Second_chance opts ->
    Printf.sprintf "binpack{esc=%b,moveopt=%b,consistency=%s}"
      opts.Lsra.Binpack.early_second_chance opts.Lsra.Binpack.move_opt
      (match opts.Lsra.Binpack.consistency with
      | Lsra.Binpack.Iterative -> "iterative"
      | Lsra.Binpack.Conservative -> "conservative")
  | (Two_pass | Poletto | Graph_coloring) as a -> Lsra.Allocator.short_name a
  | Optimal opts ->
    (* The budget is part of the result's identity: a bigger budget can
       turn a degraded answer into a proven optimum. *)
    Printf.sprintf "optimal{budget=%d,gate=%d}" opts.Lsra.Optimal.node_budget
      opts.Lsra.Optimal.max_instrs

let digest_canonical ?backend ~machine ~algo ~passes canonical =
  (* NUL separators: no component can masquerade as another by embedding
     a delimiter (the canonical IR text never contains NUL). The backend
     fingerprint is appended only when present, so every pre-existing
     key — and every journaled store built from one — stays valid. *)
  let key =
    String.concat "\x00"
      ([
         machine_fingerprint machine;
         algo_fingerprint algo;
         Lsra.Passes.to_spec (Lsra.Passes.normalize passes);
         canonical;
       ]
      @ match backend with None -> [] | Some b -> [ b ])
  in
  Digest.to_hex (Digest.string key)

let digest ?backend ~machine ~algo ~passes prog =
  digest_canonical ?backend ~machine ~algo ~passes
    (Lsra_text.Ir_text.to_string prog)

let digest_source ?backend ~machine ~algo ~passes source =
  digest ?backend ~machine ~algo ~passes (Lsra_text.Ir_text.of_string source)
